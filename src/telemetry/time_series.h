/**
 * @file
 * Time series with interval queries and optional bounded retention.
 *
 * Substitute for the prototype's InfluxDB store: the ecovisor records
 * power, energy and carbon samples here and the Table 2 library
 * functions answer interval queries (energy/carbon over (t1, t2))
 * against it.
 *
 * By default a series is append-only and unbounded — bit-identical to
 * the seed behavior. With a RetentionConfig (setRetention(), or
 * EcovisorOptions::retention_samples / retention_window_s) it becomes
 * a three-tier bounded store (docs/PERF.md "Retention tiers"):
 *
 *  - **hot ring**: the raw samples inside the retention bound, in a
 *    SampleStore (sample_store.h): a value column whose time axis is
 *    just (t0, step) while the series keeps a fixed cadence, with
 *    explicit times only after a cadence break. Eviction erases an
 *    aligned prefix in batches.
 *  - **cold blocks**: evicted spans sealed into delta-of-delta /
 *    XOR-compressed blocks (block.h) — still lossless; queries decode
 *    them transparently, so every interval query is bit-identical to
 *    the unbounded series over the whole cold+hot coverage, a
 *    superset of the guaranteed raw window.
 *  - **rollups**: minute/hour buckets (retention.h) answering queries
 *    older than the cold span at bucket resolution; older than the
 *    hour tier, evicted history reads as 0 (clamped, never
 *    extrapolated). The minute tier is folded from each sealed span,
 *    so an append touches only the ring and the open hour bucket
 *    (docs/PERF.md §10).
 */

#ifndef ECOV_TELEMETRY_TIME_SERIES_H
#define ECOV_TELEMETRY_TIME_SERIES_H

#include <cstddef>
#include <cstdint>

#include "telemetry/block.h"
#include "telemetry/retention.h"
#include "telemetry/ring.h"
#include "telemetry/sample_store.h"
#include "util/units.h"

namespace ecov::ts {

/**
 * Series of (time, value) samples with monotonically non-decreasing
 * timestamps and optional bounded retention.
 *
 * Two interpretations are supported by the query methods:
 *  - *gauge* series (e.g. power in W): value holds until the next sample;
 *    integrate() treats samples as a step function.
 *  - *counter* deltas (e.g. energy per tick in Wh): sumRange() adds the
 *    raw values whose timestamps fall inside the window.
 *
 * The range queries take an optional *cursor* (ts::Cursor): an in/out
 * search hint updated to the window-start index that was found. Policy
 * loops issue monotonically advancing windows, so the cursor turns the
 * per-query binary search over the whole history into a search over
 * the few samples appended since the last query. The cursor never
 * changes a result — a stale hint (wrong index, or an epoch from
 * before an eviction batch) only costs a wider search — so cursored
 * and cursorless calls are bit-identical.
 */
class TimeSeries
{
  public:
    /**
     * Set the retention policy. Must be called before the first
     * append (the ecovisor configures series at intern time); calling
     * it on a series that already holds samples is fatal.
     */
    void setRetention(const RetentionConfig &config);

    /** The retention policy in effect (default: unbounded). */
    const RetentionConfig &retention() const { return retention_; }

    /** True when a retention bound is configured. */
    bool bounded() const { return bounded_; }

    /** Append a sample; timestamps must be non-decreasing. */
    void append(TimeS time_s, double value);

    /**
     * Pre-size the raw sample storage for n total samples: an
     * ecovisor that knows its horizon avoids repeated growth
     * reallocation across long runs. On a bounded series the
     * reservation is capped at the retention bound (plus the seal
     * batch) — the ring can never hold more — and becomes a no-op
     * once the first span has been sealed (the ring is at steady size
     * then; re-reserving the horizon would defeat retention). Never
     * shrinks.
     */
    void reserve(std::size_t n);

    /** Reserved raw sample capacity (diagnostics/benches). */
    std::size_t capacity() const { return store_.capacity(); }

    /** Number of raw samples in the hot ring. */
    std::size_t size() const { return store_.size(); }

    /** True when the series has never been written. */
    bool empty() const { return total_appends_ == 0; }

    /** Hot-ring sample i, oldest retained first (i < size()). */
    Sample sample(std::size_t i) const { return store_[i]; }

    /**
     * Integrate the step function over [t1, t2).
     *
     * For a power series in watts with times in seconds the result is
     * watt-seconds / 3600 = watt-hours. Exact (bit-identical to the
     * unbounded series) while t1 falls inside the cold+hot coverage;
     * the portion of the window older than that is answered from
     * rollups, and history evicted past the hour tier contributes 0
     * (the boundary clamp — an evicted first sample's value is never
     * extrapolated backwards).
     *
     * @param cursor optional search hint (see class comment)
     * @return integral in (value-unit x hours)
     */
    double integrateWh(TimeS t1, TimeS t2,
                       Cursor *cursor = nullptr) const;

    /** Sum raw sample values with t1 <= time < t2 (counter deltas).
     *  Same tier semantics as integrateWh: exact over cold+hot,
     *  bucket sums in the rollup region, 0 beyond. */
    double sumRange(TimeS t1, TimeS t2, Cursor *cursor = nullptr) const;

    /** Maximum raw sample value with t1 <= time < t2; 0 when none. */
    double maxRange(TimeS t1, TimeS t2) const;

    /** Index of first hot-ring sample with time >= t. */
    std::size_t lowerBound(TimeS t) const;

    /**
     * Hinted lower bound: identical result to lowerBound(t), but the
     * binary search is confined to the side of `hint` the answer lies
     * on. A hint at (or just before) the answer — the monotone-query
     * steady state — degenerates to O(1) comparisons. Any hint value
     * is safe, including one past size().
     */
    std::size_t lowerBound(TimeS t, std::size_t hint) const;

    // ------------------------------------------------------------------
    // Retention diagnostics (tests, benches, memory budgeting).
    // ------------------------------------------------------------------

    /** Ring epoch: bumped on every eviction batch (cursor checks). */
    std::uint64_t epoch() const { return epoch_; }

    /** Samples ever appended (across all tiers and evictions). */
    std::uint64_t totalAppends() const { return total_appends_; }

    /** Sealed cold blocks currently retained. */
    std::size_t coldBlockCount() const { return cold_.size(); }

    /** Raw samples held inside the cold blocks. */
    std::size_t coldSampleCount() const { return cold_samples_; }

    /** Minute-rollup buckets currently retained. They cover sealed
     *  (folded) history only: the hot ring's minutes are not rolled
     *  up until their span is sealed. */
    std::size_t minuteBucketCount() const
    {
        return minute_.bucketCount();
    }

    /** Hour-rollup buckets currently retained. */
    std::size_t hourBucketCount() const { return hour_.bucketCount(); }

    /**
     * Start of the exact (cold+hot) coverage: queries from here on
     * are bit-identical to the unbounded series. Meaningful only
     * after hasRetired(); before that, exact coverage is the whole
     * history.
     */
    TimeS exactSince() const { return exact_since_s_; }

    /** True once at least one cold block has been retired. */
    bool hasRetired() const { return has_retired_; }

    /** Approximate bytes held across all tiers, counting each tier's
     *  allocated capacity (as for the hot ring's). */
    std::size_t memoryBytes() const;

  private:
    void maybeSeal();
    void sealPrefix(std::size_t seal_n, TimeS cut);
    void retireCold();
    void dropRollups();

    /** The legacy flat-scan queries over the hot ring only. */
    double hotIntegrateWh(TimeS t1, TimeS t2, Cursor *cursor) const;
    double hotSumRange(TimeS t1, TimeS t2, Cursor *cursor) const;
    /** Folds the hot samples in [a, b) into a running max. */
    double hotMaxRange(TimeS a, TimeS b, bool *seen, double best) const;

    /** Exact queries over [a, b) walking cold blocks then the hot
     *  ring (a >= exactSince()); op-for-op identical to the same
     *  scan over the flat unbounded history. The integral is in
     *  value-seconds. */
    double exactIntegrateVs(TimeS a, TimeS b) const;
    double exactSumRange(TimeS a, TimeS b) const;
    double exactMaxRange(TimeS a, TimeS b, bool *seen,
                         double best) const;

    /** Where the rollup composition hands off from the hour tier to
     *  the minute tier (see the definition). */
    TimeS minuteFront() const;

    /** Rollup-tier composition over [a, b) (entirely before the
     *  exact coverage): hour tier up to the minute tier's coverage,
     *  minute tier from there. */
    double rollupIntegrateVs(TimeS a, TimeS b) const;
    double rollupSumRange(TimeS a, TimeS b) const;
    double rollupMaxRange(TimeS a, TimeS b, bool *seen) const;

    SampleStore store_; ///< hot ring, oldest first
    RetentionConfig retention_;
    bool bounded_ = false;
    /** Exact-coverage boundary state (set by cold retirement). */
    bool has_retired_ = false;

    std::uint64_t epoch_ = 0;
    std::uint64_t total_appends_ = 0;

    /** Sealed cold spans, oldest first; spans tile [start,end) cuts. */
    Ring<SealedBlock> cold_;
    std::size_t cold_samples_ = 0;

    TimeS exact_since_s_ = 0;
    double value_before_exact_ = 0.0;

    /** Folded from sealed spans only (sealPrefix). */
    RollupTier minute_{60};
    /** Recorded on every append: its open bucket can straddle the
     *  seal cut, and queries read it. */
    RollupTier hour_{3600};
};

} // namespace ecov::ts

#endif // ECOV_TELEMETRY_TIME_SERIES_H
