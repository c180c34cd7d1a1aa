/**
 * @file
 * Batched calls for the ecovisor API.
 *
 * A policy that reads five Table 1 signals per tick pays five API
 * round-trips. The batched surface amortises that:
 *
 *  - EnergySnapshot: every Table 1 getter for one app, filled by a
 *    single Ecovisor::getEnergySnapshot(handle) call. All values are
 *    coherent — read at the same instant of the same tick.
 *
 *  - CapBatch: a set of container power caps submitted together via
 *    Ecovisor::applyCapBatch(). The batch is validated as a unit
 *    (all entries or none — no partially applied cap sets) and
 *    committed atomically at the next tick settlement, so a policy
 *    re-dividing a power budget across N workers can never expose a
 *    transient state where old and new caps mix within a tick.
 *
 * Both bottom out in the cluster's SoA columns (cop/columns.h): a
 * snapshot's power values are column-backed aggregate walks, and a
 * committed cap batch writes the watt-cap and utilization-cap columns
 * per container. Semantics and every value are unchanged from the
 * pre-column layout — bit-identical by the determinism contract
 * (docs/ARCHITECTURE.md).
 */

#ifndef ECOV_API_SNAPSHOT_H
#define ECOV_API_SNAPSHOT_H

#include <cstddef>
#include <vector>

#include "api/handle.h"

namespace ecov::api {

/**
 * All Table 1 getters for one application, read coherently in one
 * call. Field semantics match the scalar getters exactly.
 */
struct EnergySnapshot
{
    /** Current virtual solar power output, watts. */
    double solar_w = 0.0;
    /** Grid power usage over the last settled tick, watts. */
    double grid_w = 0.0;
    /** Current grid carbon intensity, gCO2/kWh. */
    double grid_carbon_g_per_kwh = 0.0;
    /** Battery discharge rate over the last settled tick, watts. */
    double battery_discharge_w = 0.0;
    /** Energy stored in the virtual battery, watt-hours. */
    double battery_charge_level_wh = 0.0;
    /**
     * True when a sensor blackout is active and the live-evaluated
     * fields (solar_w, grid_carbon_g_per_kwh) are the last *settled*
     * readings rather than fresh ones. The ecovisor never
     * extrapolates through a blackout — it serves the last exact
     * value and says so (docs/FAULTS.md).
     */
    bool stale = false;
};

/** One requested container power cap. */
struct CapRequest
{
    ContainerHandle container;
    /** Cap in watts; kUnlimitedW (infinity) removes the cap. */
    double cap_w = 0.0;
};

/**
 * A set of power caps applied together. Build with add(), submit with
 * Ecovisor::applyCapBatch(). Later entries for the same container win.
 */
class CapBatch
{
  public:
    /** Queue one cap. */
    void
    add(ContainerHandle container, double cap_w)
    {
        requests_.push_back({container, cap_w});
    }

    /** Drop all queued caps. */
    void clear() { requests_.clear(); }

    /** Number of queued caps. */
    std::size_t size() const { return requests_.size(); }

    /** True when nothing is queued. */
    bool empty() const { return requests_.empty(); }

    /** The queued caps, in insertion order. */
    const std::vector<CapRequest> &requests() const { return requests_; }

  private:
    std::vector<CapRequest> requests_;
};

} // namespace ecov::api

#endif // ECOV_API_SNAPSHOT_H
