#include "telemetry/time_series.h"

#include <algorithm>

#include "util/logging.h"

namespace ecov::ts {

namespace {

/** The comparator shared by every lower-bound search. */
inline bool
sampleBefore(const Sample &s, TimeS v)
{
    return s.time_s < v;
}

/** Seal cuts are minute-aligned so tiers tile on bucket seams. */
constexpr TimeS kCutAlignS = 60;

} // namespace

void
TimeSeries::setRetention(const RetentionConfig &config)
{
    if (total_appends_ > 0)
        fatal("TimeSeries::setRetention: series already holds samples "
              "(retention must be configured before the first append)");
    retention_ = config;
    if (retention_.seal_batch == 0)
        retention_.seal_batch = 1;
    // Tiers must nest: cold inside minute inside hour coverage,
    // otherwise queries would hit a gap between exact and rolled-up
    // history.
    if (retention_.cold_keep < 1.0)
        retention_.cold_keep = 1.0;
    if (retention_.minute_keep < retention_.cold_keep)
        retention_.minute_keep = retention_.cold_keep;
    if (retention_.hour_keep < retention_.minute_keep)
        retention_.hour_keep = retention_.minute_keep;
    bounded_ = retention_.bounded();
}

void
TimeSeries::append(TimeS time_s, double value)
{
    if (!samples_.empty() && time_s < samples_.back().time_s)
        fatal("TimeSeries::append: timestamps must be non-decreasing");
    samples_.push_back(Sample{time_s, value});
    ++total_appends_;
    if (!bounded_)
        return;
    hour_.record(time_s, value);
    maybeSeal();
}

void
TimeSeries::maybeSeal()
{
    // First index the retention bound wants to keep (the tighter of
    // the count and window bounds). A pure function of the appended
    // data and the config — no wall clock, no allocator state — so
    // eviction is deterministic and thread-count independent.
    const std::size_t n = samples_.size();
    std::size_t keep_from = 0;
    if (retention_.max_samples > 0 && n > retention_.max_samples)
        keep_from = n - retention_.max_samples;
    if (retention_.window_s > 0) {
        const std::size_t wfrom =
            lowerBound(samples_.back().time_s - retention_.window_s);
        if (wfrom > keep_from)
            keep_from = wfrom;
    }
    // Amortize: only seal once a whole batch has aged out.
    if (keep_from < retention_.seal_batch)
        return;
    // Cut on a minute boundary at (or before) the first keeper, so
    // block seams land on rollup-bucket seams.
    const TimeS cut =
        alignDown(samples_[keep_from].time_s, kCutAlignS);
    const std::size_t seal_n = lowerBound(cut);
    if (seal_n == 0)
        return;
    sealPrefix(seal_n, cut);
}

void
TimeSeries::sealPrefix(std::size_t seal_n, TimeS cut)
{
    // Blocks tile: this block starts where the previous one ended
    // (or at the exact-coverage boundary / the aligned first sample
    // for the very first seal).
    const TimeS start_cut =
        !cold_.empty() ? cold_.back().end_cut_s
        : has_retired_
            ? exact_since_s_
            : alignDown(samples_.front().time_s, kCutAlignS);
    cold_.push_back(
        sealBlock(samples_.data(), seal_n, start_cut, cut));
    cold_samples_ += seal_n;
    // The minute tier holds sealed history only. Folding the span in
    // sample order runs the same record() arithmetic a per-append
    // tier would have; the cut is minute-aligned and every kept
    // sample lies at or past it, so the next record() would close the
    // last folded bucket exactly as close() does now. Queries never
    // read a minute bucket at or past the cut.
    for (std::size_t i = 0; i < seal_n; ++i)
        minute_.record(samples_[i].time_s, samples_[i].value);
    minute_.close();
    samples_.erase(samples_.begin(),
                   samples_.begin() +
                       static_cast<std::ptrdiff_t>(seal_n));
    // The ring base moved: outstanding index cursors are stale now.
    ++epoch_;
    retireCold();
    dropRollups();
}

void
TimeSeries::retireCold()
{
    const TimeS newest = samples_.back().time_s;
    while (!cold_.empty()) {
        const SealedBlock &front = cold_.front();
        bool retire;
        if (retention_.window_s > 0) {
            const TimeS keep_behind = static_cast<TimeS>(
                retention_.cold_keep *
                static_cast<double>(retention_.window_s));
            retire = front.end_cut_s <= newest - keep_behind;
        } else {
            retire = cold_samples_ >
                     static_cast<std::size_t>(
                         retention_.cold_keep *
                         static_cast<double>(retention_.max_samples));
        }
        if (!retire)
            return;
        // The block's end cut becomes the exact-coverage boundary;
        // its closing value is the step carry for queries starting
        // exactly at that boundary.
        has_retired_ = true;
        exact_since_s_ = front.end_cut_s;
        value_before_exact_ = front.last_value;
        cold_samples_ -= front.count;
        cold_.pop_front();
    }
}

void
TimeSeries::dropRollups()
{
    const TimeS newest = samples_.back().time_s;
    // Effective window for the keep multipliers: the configured
    // window, or the observed hot span under a pure count bound.
    TimeS w_eff = retention_.window_s;
    if (w_eff <= 0)
        w_eff = std::max<TimeS>(
            newest - samples_.front().time_s, kCutAlignS);
    // Hour-aligned drops for both tiers keep the hour->minute seam
    // clean: a surviving minute front never splits an hour bucket
    // that was itself dropped.
    minute_.dropBefore(alignDown(
        newest - static_cast<TimeS>(retention_.minute_keep *
                                    static_cast<double>(w_eff)),
        3600));
    hour_.dropBefore(alignDown(
        newest - static_cast<TimeS>(retention_.hour_keep *
                                    static_cast<double>(w_eff)),
        3600));
}

void
TimeSeries::reserve(std::size_t n)
{
    // Once a span has been sealed the ring is at its steady retention
    // size; re-reserving the full horizon would defeat the bound.
    if (!cold_.empty() || has_retired_)
        return;
    if (bounded_) {
        const std::size_t bound =
            (retention_.max_samples > 0
                 ? retention_.max_samples
                 : static_cast<std::size_t>(retention_.window_s) +
                       1) +
            retention_.seal_batch;
        n = std::min(n, bound);
    }
    samples_.reserve(n);
}

double
TimeSeries::last() const
{
    // The hot ring never empties once written (sealing keeps >= 1).
    return samples_.empty() ? 0.0 : samples_.back().value;
}

std::size_t
TimeSeries::lowerBound(TimeS t) const
{
    auto it = std::lower_bound(samples_.begin(), samples_.end(), t,
                               sampleBefore);
    return static_cast<std::size_t>(it - samples_.begin());
}

std::size_t
TimeSeries::lowerBound(TimeS t, std::size_t hint) const
{
    const std::size_t n = samples_.size();
    if (hint > n)
        hint = n;
    // One comparison decides which side of the hint the answer lies
    // on; the binary search then runs over that side only. Since
    // std::lower_bound is deterministic and the answer is inside the
    // chosen subrange, the result is identical to an unhinted search.
    std::size_t lo = 0, hi = n;
    if (hint < n && samples_[hint].time_s < t)
        lo = hint + 1;
    else
        hi = hint;
    auto it = std::lower_bound(samples_.begin() +
                                   static_cast<std::ptrdiff_t>(lo),
                               samples_.begin() +
                                   static_cast<std::ptrdiff_t>(hi),
                               t, sampleBefore);
    return static_cast<std::size_t>(it - samples_.begin());
}

double
TimeSeries::valueAt(TimeS t) const
{
    if (samples_.empty())
        return 0.0;
    if ((cold_.empty() && !has_retired_) ||
        t >= samples_.front().time_s) {
        const std::size_t idx = lowerBound(t);
        if (idx < samples_.size() && samples_[idx].time_s == t)
            return samples_[idx].value;
        if (idx == 0)
            return cold_.empty()
                       ? (has_retired_ ? value_before_exact_ : 0.0)
                       : cold_.back().last_value;
        return samples_[idx - 1].value;
    }
    if (!has_retired_ || t >= exact_since_s_) {
        // Exact region: the step value at t from the cold blocks,
        // matching the flat series' semantics (first sample with
        // time >= t wins an exact hit; else the previous sample).
        double prev = has_retired_ ? value_before_exact_ : 0.0;
        for (const SealedBlock &blk : cold_) {
            if (blk.last_time_s < t) {
                prev = blk.last_value;
                continue;
            }
            if (blk.first_time_s > t)
                break;
            BlockCursor bc(blk);
            Sample s;
            while (bc.next(&s)) {
                if (s.time_s < t) {
                    prev = s.value;
                    continue;
                }
                if (s.time_s == t)
                    return s.value;
                break;
            }
            break;
        }
        return prev;
    }
    // Rollup region: bucket-resolution step value; 0 before all
    // retained knowledge (clamp, never extrapolate).
    bool known = false;
    double v = minute_.valueAt(t, &known);
    if (known)
        return v;
    v = hour_.valueAt(t, &known);
    return known ? v : 0.0;
}

double
TimeSeries::hotIntegrateWh(TimeS t1, TimeS t2, Cursor *cursor) const
{
    double acc = 0.0;
    TimeS cursor_t = t1;
    // Walk sample boundaries inside (t1, t2). The hint is honored
    // only when its epoch matches the ring's — a cursor from before
    // an eviction batch self-resets to a full search instead of
    // pointing at the wrong sample.
    std::size_t idx = (cursor && cursor->epoch == epoch_)
                          ? lowerBound(t1, cursor->index)
                          : lowerBound(t1);
    if (cursor) {
        cursor->index = idx;
        cursor->epoch = epoch_;
    }
    // Value in effect at t1: the previous sample's (or 0 before the
    // first) — read straight from the index the search already found,
    // instead of re-searching via valueAt(t1).
    double current = idx > 0 ? samples_[idx - 1].value : 0.0;
    if (idx < samples_.size() && samples_[idx].time_s == t1) {
        current = samples_[idx].value;
        ++idx;
    }
    while (idx < samples_.size() && samples_[idx].time_s < t2) {
        acc += current *
               static_cast<double>(samples_[idx].time_s - cursor_t);
        cursor_t = samples_[idx].time_s;
        current = samples_[idx].value;
        ++idx;
    }
    acc += current * static_cast<double>(t2 - cursor_t);
    return acc / kSecondsPerHour;
}

double
TimeSeries::integrateWh(TimeS t1, TimeS t2, Cursor *cursor) const
{
    if (t2 <= t1 || samples_.empty())
        return 0.0;
    // Window entirely inside the hot ring (or nothing ever evicted):
    // the legacy flat scan, bit-identical to the unbounded series.
    if ((cold_.empty() && !has_retired_) ||
        t1 >= samples_.front().time_s)
        return hotIntegrateWh(t1, t2, cursor);
    double acc_vs = 0.0;
    TimeS a = t1;
    if (has_retired_ && t1 < exact_since_s_) {
        const TimeS rb = std::min(t2, exact_since_s_);
        acc_vs += rollupIntegrateVs(t1, rb);
        a = rb;
    }
    if (a < t2)
        acc_vs += exactIntegrateVs(a, t2);
    if (cursor) {
        cursor->index = lowerBound(t1);
        cursor->epoch = epoch_;
    }
    return acc_vs / kSecondsPerHour;
}

double
TimeSeries::exactIntegrateVs(TimeS a, TimeS b) const
{
    // Replicates the flat-history walk op for op: `current` tracks
    // the step value, `acc` accumulates current * dt at each sample
    // boundary in (a, b), so results over the cold+hot coverage are
    // bit-identical to the unbounded series.
    double current = has_retired_ ? value_before_exact_ : 0.0;
    double acc = 0.0;
    TimeS cursor_t = a;
    bool at_start = true;
    bool stopped = false;

    auto consume = [&](const Sample &s) {
        if (s.time_s >= b) {
            stopped = true;
            return;
        }
        if (at_start && s.time_s == a) {
            // The flat walk's exact-hit branch: a sample exactly at
            // the window start replaces the carried-in value.
            current = s.value;
            at_start = false;
            return;
        }
        at_start = false;
        acc += current * static_cast<double>(s.time_s - cursor_t);
        cursor_t = s.time_s;
        current = s.value;
    };

    for (const SealedBlock &blk : cold_) {
        if (stopped)
            break;
        if (blk.last_time_s < a) {
            current = blk.last_value;
            continue;
        }
        BlockCursor bc(blk);
        Sample s;
        while (!stopped && bc.next(&s)) {
            if (s.time_s < a) {
                current = s.value;
                continue;
            }
            consume(s);
        }
    }
    for (std::size_t i = 0; i < samples_.size() && !stopped; ++i) {
        if (samples_[i].time_s < a) {
            current = samples_[i].value;
            continue;
        }
        consume(samples_[i]);
    }
    acc += current * static_cast<double>(b - cursor_t);
    return acc;
}

double
TimeSeries::hotSumRange(TimeS t1, TimeS t2, Cursor *cursor) const
{
    const std::size_t start = (cursor && cursor->epoch == epoch_)
                                  ? lowerBound(t1, cursor->index)
                                  : lowerBound(t1);
    if (cursor) {
        cursor->index = start;
        cursor->epoch = epoch_;
    }
    double acc = 0.0;
    for (std::size_t i = start;
         i < samples_.size() && samples_[i].time_s < t2; ++i)
        acc += samples_[i].value;
    return acc;
}

double
TimeSeries::sumRange(TimeS t1, TimeS t2, Cursor *cursor) const
{
    if (samples_.empty() || (cold_.empty() && !has_retired_) ||
        t1 >= samples_.front().time_s)
        return hotSumRange(t1, t2, cursor);
    double acc = 0.0;
    if (has_retired_ && t1 < exact_since_s_)
        acc += rollupSumRange(t1, std::min(t2, exact_since_s_));
    const TimeS a =
        has_retired_ ? std::max(t1, exact_since_s_) : t1;
    if (a < t2)
        acc += exactSumRange(a, t2);
    if (cursor) {
        cursor->index = lowerBound(t1);
        cursor->epoch = epoch_;
    }
    return acc;
}

double
TimeSeries::exactSumRange(TimeS a, TimeS b) const
{
    double acc = 0.0;
    for (const SealedBlock &blk : cold_) {
        if (blk.last_time_s < a)
            continue;
        if (blk.first_time_s >= b)
            return acc;
        BlockCursor bc(blk);
        Sample s;
        while (bc.next(&s)) {
            if (s.time_s < a)
                continue;
            if (s.time_s >= b)
                return acc;
            acc += s.value;
        }
    }
    for (const Sample &s : samples_) {
        if (s.time_s < a)
            continue;
        if (s.time_s >= b)
            break;
        acc += s.value;
    }
    return acc;
}

double
TimeSeries::averageOver(TimeS t1, TimeS t2) const
{
    if (t2 <= t1)
        return 0.0;
    double wh = integrateWh(t1, t2);
    return wh * kSecondsPerHour / static_cast<double>(t2 - t1);
}

double
TimeSeries::maxRange(TimeS t1, TimeS t2) const
{
    if (samples_.empty() || (cold_.empty() && !has_retired_) ||
        t1 >= samples_.front().time_s) {
        double best = 0.0;
        bool seen = false;
        for (std::size_t i = lowerBound(t1);
             i < samples_.size() && samples_[i].time_s < t2; ++i) {
            if (!seen || samples_[i].value > best) {
                best = samples_[i].value;
                seen = true;
            }
        }
        return seen ? best : 0.0;
    }
    bool seen = false;
    double best = 0.0;
    if (has_retired_ && t1 < exact_since_s_)
        best = rollupMaxRange(t1, std::min(t2, exact_since_s_),
                              &seen);
    const TimeS a =
        has_retired_ ? std::max(t1, exact_since_s_) : t1;
    if (a < t2)
        best = exactMaxRange(a, t2, &seen, best);
    return seen ? best : 0.0;
}

double
TimeSeries::exactMaxRange(TimeS a, TimeS b, bool *seen,
                          double best) const
{
    for (const SealedBlock &blk : cold_) {
        if (blk.last_time_s < a)
            continue;
        if (blk.first_time_s >= b)
            return best;
        BlockCursor bc(blk);
        Sample s;
        while (bc.next(&s)) {
            if (s.time_s < a)
                continue;
            if (s.time_s >= b)
                return best;
            if (!*seen || s.value > best) {
                best = s.value;
                *seen = true;
            }
        }
    }
    for (const Sample &s : samples_) {
        if (s.time_s < a)
            continue;
        if (s.time_s >= b)
            break;
        if (!*seen || s.value > best) {
            best = s.value;
            *seen = true;
        }
    }
    return best;
}

TimeS
TimeSeries::minuteFront() const
{
    // The minute tier's oldest bucket; once drops have emptied it,
    // the first hot sample's minute, which is where a tier fed on
    // every append would begin (its sealed buckets all dropped, its
    // hot ones never are: drop cuts lie at or behind the seal cut).
    return minute_.empty()
               ? alignDown(samples_.front().time_s, kCutAlignS)
               : minute_.frontStart();
}

double
TimeSeries::rollupIntegrateVs(TimeS a, TimeS b) const
{
    // Compose tiers: the minute tier answers from its front on, the
    // hour tier answers the span before that. The hand-off is
    // hour-aligned (dropRollups guarantees clean seams); a seam slice
    // that neither tier retains reads as 0 — dropped history is
    // clamped, never extrapolated.
    const TimeS mstart = minuteFront();
    if (a >= mstart)
        return minute_.integrateVs(a, b);
    const TimeS hb = std::min(b, alignDown(mstart, 3600));
    double acc = hb > a ? hour_.integrateVs(a, hb) : 0.0;
    if (b > mstart)
        acc += minute_.integrateVs(mstart, b);
    return acc;
}

double
TimeSeries::rollupSumRange(TimeS a, TimeS b) const
{
    const TimeS mstart = minuteFront();
    if (a >= mstart)
        return minute_.sumRange(a, b);
    double acc =
        hour_.sumRange(a, std::min(b, alignDown(mstart, 3600)));
    if (b > mstart)
        acc += minute_.sumRange(mstart, b);
    return acc;
}

double
TimeSeries::rollupMaxRange(TimeS a, TimeS b, bool *seen) const
{
    const TimeS mstart = minuteFront();
    if (a >= mstart)
        return minute_.maxRange(a, b, seen);
    double best =
        hour_.maxRange(a, std::min(b, alignDown(mstart, 3600)), seen);
    if (b > mstart) {
        bool mseen = false;
        const double m = minute_.maxRange(mstart, b, &mseen);
        if (mseen && (!*seen || m > best)) {
            best = m;
            *seen = true;
        }
    }
    return best;
}

std::size_t
TimeSeries::memoryBytes() const
{
    std::size_t bytes = sizeof(TimeSeries) +
                        samples_.capacity() * sizeof(Sample) +
                        cold_.capacity() * sizeof(SealedBlock);
    for (const SealedBlock &blk : cold_)
        bytes += blk.payload.capacity();
    bytes += minute_.memoryBytes() + hour_.memoryBytes();
    return bytes;
}

} // namespace ecov::ts
