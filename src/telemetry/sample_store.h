/**
 * @file
 * The raw telemetry sample and the store behind a series' hot ring.
 *
 * Split out of time_series.h so the cold block codec (block.h) and
 * the series (time_series.h) can share them without a cyclic include.
 */

#ifndef ECOV_TELEMETRY_SAMPLE_STORE_H
#define ECOV_TELEMETRY_SAMPLE_STORE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/units.h"

namespace ecov::ts {

/** One timestamped sample. */
struct Sample
{
    TimeS time_s;   ///< sample timestamp (start of its interval)
    double value;   ///< sample value (units defined by the series)
};

/**
 * Samples with non-decreasing times, oldest first, stored as a value
 * column plus a time axis.
 *
 * While every append lands on `t0 + n·step` — as every ecovisor
 * series does, one append per settled tick at its start — the axis
 * is just (t0, step): a sample costs its 8-byte value, time(i) is
 * arithmetic and lowerBound() a division. The first append that
 * breaks the cadence (a repeated time, a gap, jitter) materialises
 * the explicit times into a column that it allocates; from then on
 * the store keeps both columns, 16 B a sample. Both layouts read the
 * same samples through time(i) and value(i), so callers have one set
 * of loops. The axis arithmetic is unsigned, so times anywhere in the
 * TimeS range never overflow.
 */
class SampleStore
{
  public:
    std::size_t size() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    /** Value slots allocated. */
    std::size_t capacity() const { return values_.capacity(); }

    /** Time of sample i (i < size()). */
    TimeS
    time(std::size_t i) const
    {
        if (times_)
            return (*times_)[i];
        return static_cast<TimeS>(static_cast<std::uint64_t>(t0_) +
                                  static_cast<std::uint64_t>(i) * step_);
    }

    /** Value of sample i (i < size()). */
    double value(std::size_t i) const { return values_[i]; }

    Sample operator[](std::size_t i) const { return {time(i), values_[i]}; }

    TimeS frontTime() const { return time(0); }
    TimeS backTime() const { return time(values_.size() - 1); }

    /** Append a sample; fatal when t is before the newest sample. */
    void
    append(TimeS t, double v)
    {
        const std::size_t n = values_.size();
        if (!times_ && n >= 2) {
            const TimeS last = time(n - 1);
            if (t > last && static_cast<std::uint64_t>(t) -
                                    static_cast<std::uint64_t>(last) ==
                                step_) {
                values_.push_back(v);
                return;
            }
        }
        appendSlow(t, v);
    }

    /** Drop the oldest n samples (n <= size()). */
    void erasePrefix(std::size_t n);

    /** Pre-size every column for n samples. Never shrinks. */
    void reserve(std::size_t n);

    /** Index of the first sample with time >= t. */
    std::size_t lowerBound(TimeS t) const;

    /**
     * lowerBound(t), with the explicit-time binary search confined to
     * the side of `hint` the answer lies on. Any hint is safe,
     * including one past size().
     */
    std::size_t lowerBound(TimeS t, std::size_t hint) const;

    /** Heap bytes held, counting each column's capacity. */
    std::size_t heapBytes() const;

  private:
    /** Every append the cadence check does not take. */
    void appendSlow(TimeS t, double v);

    std::vector<double> values_;
    /** Time of sample 0 on the cadence axis. */
    TimeS t0_ = 0;
    /** Cadence step; any positive value while size() < 2. */
    std::uint64_t step_ = 1;
    /** Explicit times, allocated by the first cadence break. */
    std::unique_ptr<std::vector<TimeS>> times_;
};

} // namespace ecov::ts

#endif // ECOV_TELEMETRY_SAMPLE_STORE_H
