#include "telemetry/sample_store.h"

#include <algorithm>

#include "util/logging.h"

namespace ecov::ts {

void
SampleStore::appendSlow(TimeS t, double v)
{
    const std::size_t n = values_.size();
    if (n > 0 && t < backTime())
        fatal("TimeSeries::append: timestamps must be non-decreasing");
    if (!times_) {
        if (n == 0) {
            t0_ = t;
            values_.push_back(v);
            return;
        }
        // The second sample fixes the step; a repeated time cannot.
        if (n == 1 && t != t0_) {
            step_ = static_cast<std::uint64_t>(t) -
                    static_cast<std::uint64_t>(t0_);
            values_.push_back(v);
            return;
        }
        // The cadence breaks: materialise the axis, once. The column
        // matches the values' capacity, so a reserved series keeps
        // appending without a reallocation.
        auto times = std::make_unique<std::vector<TimeS>>();
        times->reserve(std::max(values_.capacity(), n + 1));
        for (std::size_t i = 0; i < n; ++i)
            times->push_back(time(i));
        times_ = std::move(times);
    }
    times_->push_back(t);
    values_.push_back(v);
}

void
SampleStore::erasePrefix(std::size_t n)
{
    if (times_)
        times_->erase(times_->begin(),
                      times_->begin() + static_cast<std::ptrdiff_t>(n));
    else if (n < values_.size())
        t0_ = time(n);
    values_.erase(values_.begin(),
                  values_.begin() + static_cast<std::ptrdiff_t>(n));
}

void
SampleStore::reserve(std::size_t n)
{
    values_.reserve(n);
    if (times_)
        times_->reserve(n);
}

std::size_t
SampleStore::lowerBound(TimeS t) const
{
    if (times_)
        return static_cast<std::size_t>(
            std::lower_bound(times_->begin(), times_->end(), t) -
            times_->begin());
    const std::size_t n = values_.size();
    if (n == 0 || t <= t0_)
        return 0;
    // The first i with t0 + i·step >= t is ceil((t - t0) / step); the
    // difference is positive, so it is exact in unsigned arithmetic.
    const std::uint64_t d =
        static_cast<std::uint64_t>(t) - static_cast<std::uint64_t>(t0_);
    const std::uint64_t i = d / step_ + (d % step_ != 0 ? 1 : 0);
    return i < n ? static_cast<std::size_t>(i) : n;
}

std::size_t
SampleStore::lowerBound(TimeS t, std::size_t hint) const
{
    if (!times_)
        return lowerBound(t);
    const std::size_t n = times_->size();
    if (hint > n)
        hint = n;
    // One comparison decides which side of the hint the answer lies
    // on; the binary search then runs over that side only. Since
    // std::lower_bound is deterministic and the answer is inside the
    // chosen subrange, the result is identical to an unhinted search.
    std::size_t lo = 0, hi = n;
    if (hint < n && (*times_)[hint] < t)
        lo = hint + 1;
    else
        hi = hint;
    const auto first = times_->begin();
    return static_cast<std::size_t>(
        std::lower_bound(first + static_cast<std::ptrdiff_t>(lo),
                         first + static_cast<std::ptrdiff_t>(hi), t) -
        first);
}

std::size_t
SampleStore::heapBytes() const
{
    std::size_t bytes = values_.capacity() * sizeof(double);
    if (times_)
        bytes += sizeof(*times_) + times_->capacity() * sizeof(TimeS);
    return bytes;
}

} // namespace ecov::ts
