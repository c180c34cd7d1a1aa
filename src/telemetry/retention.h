/**
 * @file
 * Retention policy and rollup tiers for bounded-memory telemetry.
 *
 * A TimeSeries with a RetentionConfig keeps three storage tiers (see
 * docs/PERF.md "Retention tiers" and §10):
 *
 *   hot ring   raw samples inside the retention bound (exact)
 *   cold       delta-compressed sealed blocks of evicted raw spans
 *              (still exact, decoded transparently by queries)
 *   rollups    minute and hour buckets (sum/max/last plus the step
 *              integral), answering queries older than the cold span
 *              at bucket resolution; the minute tier is folded from
 *              each sealed span, the hour tier on every append
 *
 * Everything here is a deterministic function of the appended samples
 * and the config — eviction decisions never depend on wall clock,
 * thread count or allocator state, so bounded series preserve the
 * repo-wide bit-identity contract.
 */

#ifndef ECOV_TELEMETRY_RETENTION_H
#define ECOV_TELEMETRY_RETENTION_H

#include <cstddef>
#include <cstdint>
#include <limits>

#include "telemetry/ring.h"
#include "util/units.h"

namespace ecov::ts {

/**
 * Per-series retention policy. Default-constructed = unbounded
 * (seed-compatible append-only behavior, zero overhead).
 *
 * The raw ring keeps the newest `max_samples` samples and/or the
 * samples within `window_s` of the newest timestamp (whichever bound
 * is tighter when both are set). Evicted spans are sealed into cold
 * blocks; cold blocks older than `cold_keep` windows are retired to
 * rollups only; minute/hour buckets are themselves dropped after
 * `minute_keep`/`hour_keep` windows. All three multipliers are in
 * units of the effective window (window_s, or the observed raw-ring
 * span under a pure count bound), so total memory is O(window).
 */
struct RetentionConfig
{
    /** Max raw samples retained; 0 = no count bound. */
    std::size_t max_samples = 0;
    /** Max raw sample age behind the newest sample; 0 = no bound. */
    TimeS window_s = 0;
    /**
     * Eviction batch: sealing runs only once at least this many
     * samples have aged out, so the ring may transiently hold up to
     * `seal_batch` extra samples (amortizes block encoding; one block
     * per batch).
     */
    std::size_t seal_batch = 64;
    /** Cold blocks retained, in effective windows behind newest. */
    double cold_keep = 4.0;
    /** Minute buckets retained, in effective windows behind newest. */
    double minute_keep = 8.0;
    /** Hour buckets retained, in effective windows behind newest. */
    double hour_keep = 64.0;

    /** True when any bound is set. */
    bool
    bounded() const
    {
        return max_samples > 0 || window_s > 0;
    }
};

/**
 * Epoch-checked search hint for the monotone interval queries.
 *
 * Replaces the bare index cursor: a bounded series bumps its epoch on
 * every eviction batch, and a cursor whose epoch mismatches is
 * ignored (self-reset) instead of indexing past the new ring base.
 * On an unbounded series the epoch stays 0 forever, so the cursor
 * behaves exactly like the old std::size_t hint. Cursors never change
 * results — only search cost (see ts::TimeSeries).
 */
struct Cursor
{
    std::size_t index = 0;   ///< hot-ring index hint
    std::uint64_t epoch = 0; ///< ring epoch the index was valid for
};

/** Floor-align t to a bucket width (correct for negative t). */
inline TimeS
alignDown(TimeS t, TimeS width)
{
    TimeS r = t % width;
    if (r < 0)
        r += width;
    return t - r;
}

/** Ceil-align t to a bucket width. */
inline TimeS
alignUp(TimeS t, TimeS width)
{
    const TimeS d = alignDown(t, width);
    return d == t ? t : d + width;
}

/**
 * One downsampled bucket covering [start_s, start_s + width).
 * `integral_vs` is the exact step integral of the raw samples over
 * the bucket (value-seconds), accumulated incrementally as samples
 * fold in; `last` is the step value carried out of the bucket, which
 * query composition uses to integrate across sample-free gaps.
 */
struct RollupBucket
{
    TimeS start_s = 0;
    double sum = 0.0;
    double max = 0.0;
    double last = 0.0;
    double integral_vs = 0.0;
};

/**
 * One downsampling tier (minute or hour buckets) in a flat ring,
 * maintained incrementally: record() folds each sample into the open
 * (newest) bucket, closing it — finalizing its step integral — when a
 * sample lands at or past the open bucket's end. Sample-free buckets
 * are never materialized; the query side integrates gaps from the
 * previous bucket's `last`. Query methods assume the queried range
 * lies entirely behind the open bucket (the TimeSeries query split
 * guarantees this: rollups only answer ranges older than the exact
 * cold+hot coverage).
 */
class RollupTier
{
  public:
    explicit RollupTier(TimeS width_s) : width_s_(width_s) {}

    TimeS width() const { return width_s_; }
    bool empty() const { return buckets_.empty(); }
    std::size_t bucketCount() const { return buckets_.size(); }

    /** Start of the oldest retained bucket (0 when empty). */
    TimeS
    frontStart() const
    {
        return buckets_.empty() ? 0 : buckets_.front().start_s;
    }

    /** Fold one sample in (timestamps non-decreasing). */
    void record(TimeS t, double v);

    /**
     * Close the open bucket now, exactly as the next record() past
     * its end would: the step integral gains the tail from the last
     * sample to the bucket's end. A no-op when no bucket is open.
     * The caller promises that no later sample falls inside the
     * closed bucket.
     */
    void close();

    /** Drop buckets starting before `cut`. */
    void dropBefore(TimeS cut);

    /**
     * Step integral over [a, b) in value-seconds, composed from
     * closed buckets: full buckets contribute their exact integral,
     * sample-free gaps integrate the previous bucket's closing value,
     * and spans before the oldest retained bucket contribute 0 (the
     * boundary-clamp contract — evicted history is never
     * extrapolated). A partial leading bucket (unaligned `a` inside a
     * bucket) is approximated by that bucket's closing value.
     */
    double integrateVs(TimeS a, TimeS b) const;

    /** Sum of bucket sums for buckets with a <= start < b. */
    double sumRange(TimeS a, TimeS b) const;

    /**
     * Max over buckets with a <= start < b; sets *seen when at least
     * one bucket contributed.
     */
    double maxRange(TimeS a, TimeS b, bool *seen) const;

    /** Bytes held by the tier: its ring's capacity. */
    std::size_t
    memoryBytes() const
    {
        return buckets_.capacity() * sizeof(RollupBucket);
    }

  private:
    /** open_end_ while no bucket is open: every t is at or past it. */
    static constexpr TimeS kNoOpen = std::numeric_limits<TimeS>::min();

    /** Index of the first bucket with start >= t. */
    std::size_t lowerBound(TimeS t) const;

    TimeS width_s_;
    Ring<RollupBucket> buckets_;
    /** End of the open (newest) bucket; kNoOpen when none is open. */
    TimeS open_end_ = kNoOpen;
    /** Timestamp of the last recorded sample. */
    TimeS frontier_ = 0;
    /** Value of the last recorded sample (step carry). */
    double carry_ = 0.0;
};

} // namespace ecov::ts

#endif // ECOV_TELEMETRY_RETENTION_H
