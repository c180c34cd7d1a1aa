#include "telemetry/retention.h"

namespace ecov::ts {

void
RollupTier::record(TimeS t, double v)
{
    if (t < open_end_) {
        // Still inside the open bucket (t >= its start: timestamps
        // never go backwards).
        RollupBucket &b = buckets_.back();
        b.integral_vs += carry_ * static_cast<double>(t - frontier_);
        b.sum += v;
        if (v > b.max)
            b.max = v;
        b.last = v;
    } else {
        close();
        // Open the new bucket; the span from its start boundary to
        // this sample integrates the carried-in step value (0 before
        // the first sample ever, matching the raw-series convention).
        const TimeS bstart = alignDown(t, width_s_);
        open_end_ = bstart + width_s_;
        buckets_.push_back(RollupBucket{
            bstart, v, v, v,
            carry_ * static_cast<double>(t - bstart)});
    }
    frontier_ = t;
    carry_ = v;
}

void
RollupTier::close()
{
    if (open_end_ == kNoOpen)
        return;
    // The open bucket's step integral is missing the tail from its
    // last sample to its end boundary.
    buckets_.back().integral_vs +=
        carry_ * static_cast<double>(open_end_ - frontier_);
    open_end_ = kNoOpen;
}

void
RollupTier::dropBefore(TimeS cut)
{
    while (!buckets_.empty() && buckets_.front().start_s < cut)
        buckets_.pop_front();
    // Dropping the open bucket itself leaves nothing to close.
    if (buckets_.empty())
        open_end_ = kNoOpen;
}

std::size_t
RollupTier::lowerBound(TimeS t) const
{
    return buckets_.partitionPoint(
        [t](const RollupBucket &b) { return b.start_s < t; });
}

double
RollupTier::integrateVs(TimeS a, TimeS b) const
{
    if (b <= a || buckets_.empty())
        return 0.0;
    std::size_t i = lowerBound(a);
    // Step value in effect at `a`: the closing value of the bucket
    // before the range (which, for unaligned `a`, is the bucket
    // containing it — a bucket-resolution approximation). Before the
    // oldest retained bucket the value reads as 0: dropped history is
    // clamped, never extrapolated.
    double carry = i > 0 ? buckets_[i - 1].last : 0.0;
    double acc = 0.0;
    TimeS t = a;
    for (; i < buckets_.size() && buckets_[i].start_s < b; ++i) {
        const RollupBucket &bk = buckets_[i];
        acc += carry * static_cast<double>(bk.start_s - t);
        acc += bk.integral_vs;
        t = bk.start_s + width_s_;
        carry = bk.last;
    }
    acc += carry * static_cast<double>(b - t);
    return acc;
}

double
RollupTier::sumRange(TimeS a, TimeS b) const
{
    double acc = 0.0;
    for (std::size_t i = lowerBound(a);
         i < buckets_.size() && buckets_[i].start_s < b; ++i)
        acc += buckets_[i].sum;
    return acc;
}

double
RollupTier::maxRange(TimeS a, TimeS b, bool *seen) const
{
    double best = 0.0;
    for (std::size_t i = lowerBound(a);
         i < buckets_.size() && buckets_[i].start_s < b; ++i) {
        if (!*seen || buckets_[i].max > best) {
            best = buckets_[i].max;
            *seen = true;
        }
    }
    return best;
}

double
RollupTier::valueAt(TimeS t, bool *known) const
{
    // Last bucket with start <= t.
    const std::size_t i = lowerBound(t + 1);
    if (i == 0) {
        *known = false;
        return 0.0;
    }
    *known = true;
    return buckets_[i - 1].last;
}

} // namespace ecov::ts
