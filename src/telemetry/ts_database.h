/**
 * @file
 * Named time-series database (InfluxDB stand-in).
 *
 * Series are addressed by a (measurement, tag) pair, e.g.
 * ("container_power_w", "app1/c3") or ("grid_carbon", ""). The ecovisor
 * writes one sample per tick per series; library functions (Table 2)
 * query intervals.
 *
 * Storage layout (the telemetry hot path, see docs/PERF.md): series
 * live in a dense **slab** addressed by a SeriesId. The string pair is
 * *interned* to an id exactly once (intern()/findSeries()); every
 * append after that is an indexed, allocation-free, string-free
 * vector push. Writes go only through ids; the string-keyed
 * series()/keys() lookups remain on the read side, where global
 * series such as "grid_carbon" are addressed by name. The slab is a
 * deque: interning a new series never moves existing ones, so
 * `const TimeSeries &` references and SeriesIds stay valid for the
 * database's lifetime.
 */

#ifndef ECOV_TELEMETRY_TS_DATABASE_H
#define ECOV_TELEMETRY_TS_DATABASE_H

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "telemetry/time_series.h"

namespace ecov::ts {

/**
 * Dense index of an interned (measurement, tag) series. Stable from
 * intern() on; never recycled while the database lives.
 */
using SeriesId = std::int32_t;

/** Sentinel for "no series". */
inline constexpr SeriesId kInvalidSeries = -1;

/**
 * In-memory multi-series store.
 *
 * intern() creates series on demand (write path); the const query
 * path returns a shared empty series for unknown keys so callers need
 * no existence checks.
 *
 * Interned-but-never-written series are invisible to the query
 * surface: series() reads them as empty, and keys()/seriesCount()
 * report only series holding at least one sample, so pre-resolving
 * ids (the ecovisor interns every app's series at registration)
 * changes nothing a reader observes.
 */
class TsDatabase
{
  public:
    /** Composite series key. */
    struct Key
    {
        std::string measurement;
        std::string tag;

        bool
        operator<(const Key &o) const
        {
            if (measurement != o.measurement)
                return measurement < o.measurement;
            return tag < o.tag;
        }
    };

    // ------------------------------------------------------------------
    // SeriesId surface (the hot path: resolve once, index thereafter).
    // ------------------------------------------------------------------

    /**
     * Intern (measurement, tag): the existing id, or a fresh slab
     * slot on first use. The only allocating call on the write path —
     * do it at setup time, not per tick. Fresh series inherit the
     * database's default retention policy.
     */
    SeriesId intern(const std::string &measurement,
                    const std::string &tag);

    /**
     * Retention policy applied to every series interned from now on
     * (already-interned series keep theirs). The ecovisor sets this
     * from EcovisorOptions before interning any series, so the whole
     * database is uniformly bounded or uniformly unbounded.
     */
    void setDefaultRetention(const RetentionConfig &config);

    /** The policy fresh series inherit (default: unbounded). */
    const RetentionConfig &defaultRetention() const
    {
        return default_retention_;
    }

    /** Approximate live bytes across all interned series. */
    std::size_t memoryBytes() const;

    /** Id of an already-interned pair; kInvalidSeries when unknown. */
    SeriesId findSeries(const std::string &measurement,
                        const std::string &tag = "") const;

    /**
     * Append a sample to an interned series: a bounds check plus an
     * indexed vector push — no string compares, no allocation beyond
     * amortized sample growth (none at all after reserve()).
     * Fatal on an invalid id.
     */
    void append(SeriesId id, TimeS time_s, double value);

    /** Indexed series lookup (fatal on an invalid id). */
    const TimeSeries &series(SeriesId id) const;

    /** Pre-size an interned series for n total samples. */
    void reserve(SeriesId id, std::size_t n);

    /** Interned series count, including never-written ones. */
    std::size_t internedCount() const { return slab_.size(); }

    // ------------------------------------------------------------------
    // String lookups (read side only).
    // ------------------------------------------------------------------

    /** Series lookup for queries; empty series when unknown. */
    const TimeSeries &series(const std::string &measurement,
                             const std::string &tag = "") const;

    /** All (measurement, tag) keys with at least one sample, sorted. */
    std::vector<Key> keys() const;

    /** Number of series holding at least one sample. */
    std::size_t seriesCount() const;

  private:
    /** Sorted intern table: key -> slab index. */
    std::map<Key, SeriesId> index_;
    /**
     * The series slab. A deque so interning never relocates existing
     * series: ids, and `const TimeSeries &` references handed to
     * callers, stay stable — which is also what lets sharded
     * recording append to disjoint ids while the structure itself is
     * untouched (interning is sequential by contract, see
     * Ecovisor::recordTelemetry).
     */
    std::deque<TimeSeries> slab_;
    RetentionConfig default_retention_;
    static const TimeSeries empty_;
};

} // namespace ecov::ts

#endif // ECOV_TELEMETRY_TS_DATABASE_H
