/**
 * @file
 * Deterministic fault schedules (docs/FAULTS.md).
 *
 * A FaultSchedule is a plain list of typed fault events — grid outage
 * windows, solar derating/dropout, battery offline/capacity fade,
 * sensor blackout, transport closes — fixed before the run starts.
 * At every tick boundary the injector folds the events active at that
 * tick into one core::EnergyFaults value; transport events are read
 * by the driver that owns the connections. Nothing here consults a
 * wall clock or an unseeded generator: a chaotic run is a pure
 * function of (schedule, seed) and therefore replayable bit-for-bit,
 * at any ECOV_THREADS value — the same determinism contract as the
 * settlement core (docs/ARCHITECTURE.md).
 */

#ifndef ECOV_FAULT_SCHEDULE_H
#define ECOV_FAULT_SCHEDULE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/faults.h"
#include "util/units.h"

namespace ecov::fault {

/** What a FaultEvent does while its window is active. */
enum class FaultKind : std::uint8_t
{
    GridOutage,          ///< no grid import; deficits shed as unserved
    SolarDerate,         ///< multiply solar output by `magnitude`
    SolarDropout,        ///< solar output forced to zero
    BatteryOffline,      ///< no battery charge/discharge
    BatteryCapacityFade, ///< usable capacity clamped to `magnitude`
    SensorBlackout,      ///< energy getters serve last settled values
    TransportClose,      ///< close tenant `target`'s connection
};

/** Sentinel target: the event applies to every tenant / site-wide. */
inline constexpr std::uint32_t kAllTargets = 0xFFFFFFFFu;

/**
 * One scheduled fault. Energy faults are active over the half-open
 * window [start_s, end_s); TransportClose fires once at start_s (the
 * driver reads `magnitude` as the outage length in ticks before it
 * may reconnect).
 */
struct FaultEvent
{
    FaultKind kind = FaultKind::GridOutage;
    TimeS start_s = 0;
    TimeS end_s = 0;
    /** Kind-specific: derate factor, capacity fraction, down-ticks. */
    double magnitude = 0.0;
    /** Tenant index for transport faults; kAllTargets otherwise. */
    std::uint32_t target = kAllTargets;
};

/** Shape knobs for the FaultSchedule::storm() generator. */
struct StormProfile
{
    int grid_outages = 2;        ///< outage windows over the horizon
    int solar_events = 3;        ///< derate/dropout windows
    int sensor_blackouts = 2;    ///< blackout windows
    bool battery_offline = true; ///< include one offline window
    double capacity_fade = 0.85; ///< late-run fade factor (1 = none)
    /** Tenants eligible for TransportClose events; 0 disables. */
    std::uint32_t tenants = 0;
    /** Mean transport closes per tenant over the horizon. */
    double closes_per_tenant = 1.0;
};

/**
 * An immutable-after-setup list of fault events plus the fold that
 * turns it into the per-tick active fault set.
 */
class FaultSchedule
{
  public:
    FaultSchedule() = default;

    /** Append one event (validated: windowed kinds need start < end,
     *  derate/fade magnitudes must lie in [0, 1]). */
    void add(const FaultEvent &event);

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }
    const std::vector<FaultEvent> &events() const { return events_; }

    /**
     * Fold every energy event active at time t into one fault set, in
     * insertion order: outage/offline/blackout flags OR together,
     * derates multiply (dropout is derate 0), capacity fade takes the
     * tightest factor. Transport events never affect the result.
     */
    core::EnergyFaults energyAt(TimeS t) const;

    /**
     * Visit every TransportClose event with start_s in [t0, t1), in
     * insertion order — the driver calls this once per tick with the
     * tick's window to find connections to sever.
     */
    template <typename Fn>
    void
    forEachTransportCloseIn(TimeS t0, TimeS t1, Fn &&fn) const
    {
        for (const FaultEvent &e : events_) {
            if (e.kind == FaultKind::TransportClose &&
                e.start_s >= t0 && e.start_s < t1)
                fn(e);
        }
    }

    /**
     * Generate a deterministic "fault storm" over [0, horizon_s):
     * overlapping energy-fault windows plus seeded per-tenant
     * transport closes, aligned to tick_s boundaries. Same (seed,
     * horizon, tick, profile) -> same schedule, always.
     */
    static FaultSchedule storm(std::uint64_t seed, TimeS horizon_s,
                               TimeS tick_s,
                               const StormProfile &profile = {});

  private:
    std::vector<FaultEvent> events_;
};

} // namespace ecov::fault

#endif // ECOV_FAULT_SCHEDULE_H
