/**
 * @file
 * Canonical test rig shared by the core suites: a trace carbon signal,
 * a grid connection, a solar array, a 4-node cluster, the physical
 * energy system, and an ecovisor wired on top. Suites that need a
 * different trace or cluster shape override fields of RigOptions; the
 * defaults match the "Table 1" rig the Ecovisor suite settles against
 * (3 h carbon period at 100/300/50 g/kWh, 200 W solar from 6 h to
 * 18 h, four 5 W servers).
 */

#ifndef ECOV_TESTS_COMMON_RIG_H
#define ECOV_TESTS_COMMON_RIG_H

#include <optional>
#include <utility>
#include <vector>

#include "carbon/carbon_signal.h"
#include "cop/cluster.h"
#include "core/ecovisor.h"
#include "energy/grid_connection.h"
#include "energy/physical_energy_system.h"
#include "energy/solar_array.h"
#include "power/server_power_model.h"
#include "util/units.h"

namespace ecov::testutil {

/** Knobs for the canonical rig; defaults are the Ecovisor-suite rig. */
struct RigOptions
{
    std::vector<carbon::TraceCarbonSignal::Point> signal_points = {
        {0, 100.0}, {3600, 300.0}, {7200, 50.0}};
    TimeS signal_period = 10800;
    std::vector<energy::SolarArray::Point> solar_points = {
        {0, 0.0}, {6 * 3600, 200.0}, {18 * 3600, 0.0}};
    TimeS solar_period = 24 * 3600;
    /** When false the physical system has no solar array at all. */
    bool use_solar = true;
    int nodes = 4;
    power::ServerPowerConfig power{4, 1.35, 5.0, 0.0};
    /** nullopt = no physical battery bank. */
    std::optional<energy::BatteryConfig> physical_battery =
        energy::BatteryConfig{};
    core::EcovisorOptions eco{};
};

/** A full test rig: cluster + energy system + ecovisor. */
struct Rig
{
    carbon::TraceCarbonSignal signal;
    energy::GridConnection grid;
    energy::SolarArray solar;
    cop::Cluster cluster;
    energy::PhysicalEnergySystem phys;
    core::Ecovisor eco;

    explicit Rig(RigOptions opts = {})
        : signal(std::move(opts.signal_points), opts.signal_period),
          grid(&signal),
          solar(std::move(opts.solar_points), opts.solar_period),
          cluster(opts.nodes, opts.power),
          phys(&grid, opts.use_solar ? &solar : nullptr,
               opts.physical_battery),
          eco(&cluster, &phys, opts.eco)
    {}

    /** Convenience: canonical rig with non-default ecovisor options. */
    explicit Rig(core::EcovisorOptions eco_opts)
        : Rig(RigOptions{.eco = eco_opts})
    {}

    // The members hold pointers into each other (grid -> signal,
    // phys -> grid/solar, eco -> cluster/phys); a copied or moved Rig
    // would still point into the source.
    Rig(const Rig &) = delete;
    Rig &operator=(const Rig &) = delete;

    /** Handle for a live container id (invalid once destroyed). */
    api::ContainerHandle
    handle(cop::ContainerId id) const
    {
        return api::handleOf(cluster, id);
    }

    /** Run n ticks of dt seconds, dispatching callbacks + settling. */
    void
    run(int n, TimeS dt = 60, TimeS start = 0)
    {
        for (int i = 0; i < n; ++i) {
            TimeS t = start + static_cast<TimeS>(i) * dt;
            eco.dispatchTickCallbacks(t, dt);
            eco.settleTick(t, dt);
        }
    }
};

/**
 * An app share with a solar fraction and a battery sized so the rates
 * follow the paper's 0.25C charge / 1C discharge convention.
 */
inline core::AppShareConfig
appShare(double solar_fraction, double batt_capacity_wh,
         double initial_soc = 0.5)
{
    core::AppShareConfig s;
    s.solar_fraction = solar_fraction;
    energy::BatteryConfig b;
    b.capacity_wh = batt_capacity_wh;
    b.soc_floor = 0.30;
    b.max_charge_w = batt_capacity_wh / 4.0;  // 0.25C
    b.max_discharge_w = batt_capacity_wh;     // 1C
    b.initial_soc = initial_soc;
    s.battery = b;
    return s;
}

} // namespace ecov::testutil

#endif // ECOV_TESTS_COMMON_RIG_H
