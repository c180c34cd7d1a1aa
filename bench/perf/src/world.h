/**
 * @file
 * The simulated site every in-process workload runs on, the domain
 * digest and world checks, and the resident-memory measurement.
 */

#ifndef ECOPERF_WORLD_H
#define ECOPERF_WORLD_H

#include <cstdint>
#include <string>

#include "carbon/carbon_signal.h"
#include "core/ecovisor.h"
#include "energy/grid_connection.h"
#include "energy/physical_energy_system.h"
#include "energy/solar_array.h"
#include "report.h"

namespace ecoperf {

/** Simulated seconds per tick (the paper's default). */
inline constexpr ecov::TimeS kTickS = 60;

/**
 * The scale_many_tenants site: a three-level carbon trace, a solar
 * day, `nodes` 8-core servers, and the paper's battery bank, behind
 * one ecovisor.
 */
struct Rig
{
    ecov::carbon::TraceCarbonSignal signal;
    ecov::energy::GridConnection grid;
    ecov::energy::SolarArray solar;
    ecov::cop::Cluster cluster;
    ecov::energy::PhysicalEnergySystem phys;
    ecov::core::Ecovisor eco;

    Rig(int nodes, const ecov::core::EcovisorOptions &options);
};

/**
 * Marker listeners that split Simulation::step() into the phases the
 * tracer reports. Construct after Ecovisor::attach(), so each marker
 * runs after the ecovisor's listener of its phase: the Environment
 * marker opens the Policy phase, the Workload marker closes it
 * (core.upcalls) and opens Accounting, and the Telemetry marker
 * closes Accounting (core.settle, minus `nested_ns`).
 */
class PhaseMarkers
{
  public:
    explicit PhaseMarkers(ecov::sim::Simulation &simul);
    PhaseMarkers(const PhaseMarkers &) = delete;
    PhaseMarkers &operator=(const PhaseMarkers &) = delete;

    /** Time other spans took inside this tick's settlement. */
    std::int64_t nested_ns = 0;

  private:
    std::int64_t policy_start_ns_ = 0;
    std::int64_t settle_start_ns_ = 0;
};

/** One of `tenants` equal shares of the site's solar and battery. */
ecov::core::AppShareConfig tenantShare(int tenants);

/**
 * Demand of a tenant's container c at a tick: a 97-tick cycle whose
 * phase `phase` the seed draws per tenant.
 */
inline double
demandAt(std::int64_t tick, int tenant, int c, int phase)
{
    const std::int64_t k = (tick * 31 + tenant * 13 + c * 7 + phase) % 97;
    return 0.2 + 0.6 * static_cast<double>(k) / 97.0;
}

/** "t%04d": tenant names sort in index order. */
std::string tenantName(int index);

/**
 * FNV-1a over the bit patterns of the tick count, each app's total
 * carbon, battery energy and live containers (handle order), and the
 * site's curtailed energy. Equal digests mean equal domain state.
 */
std::uint64_t domainDigest(const ecov::core::Ecovisor &eco,
                           std::int64_t ticks);

/**
 * Check the world after a run: every app has `containers_per_app`
 * live containers, its last settlement conserves energy (demand =
 * solar used + battery discharge + grid + unserved), and its battery
 * holds between 0 and its capacity.
 */
void checkWorld(const ecov::core::Ecovisor &eco, int containers_per_app,
                RunResult *r);

/** Take the domain digest and RSS (without the host reference's
 *  buffer) when the world reaches the check tick. */
void atCheckTick(const ecov::core::Ecovisor &eco, std::int64_t ticks,
                 std::int64_t check_tick, RunResult *r);

/** Resident set of this process now, MB. */
double residentMb();

/** Return freed heap to the OS, so RSS counts only live state. */
void trimHeap();

} // namespace ecoperf

#endif // ECOPERF_WORLD_H
