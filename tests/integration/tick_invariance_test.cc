/**
 * @file
 * Discretization property tests: for piecewise-constant signals whose
 * change points align with tick boundaries, the settled energy and
 * carbon totals must be invariant to the tick interval delta-t. This
 * validates that the ecovisor's per-tick discretization (Section 3.1)
 * introduces no systematic accounting error.
 */

#include <gtest/gtest.h>

#include "carbon/carbon_signal.h"
#include "core/ecovisor.h"
#include "util/logging.h"

namespace ecov {
namespace {

struct Totals
{
    double energy_wh;
    double grid_wh;
    double carbon_g;
    double battery_wh;
    double curtailed_wh;
};

/**
 * Run a fixed 2-hour scenario (solar + battery + grid, hourly signal
 * changes) at the given tick length and return the settled totals.
 */
Totals
runAt(TimeS tick_s)
{
    carbon::TraceCarbonSignal signal({{0, 100.0}, {3600, 300.0}});
    energy::GridConnection grid(&signal);
    energy::SolarArray solar({{0, 20.0}, {3600, 2.0}}, 2 * 3600);
    cop::Cluster cluster(4, power::ServerPowerConfig{4, 1.35, 5.0, 0.0});
    energy::PhysicalEnergySystem phys(&grid, &solar,
                                      energy::BatteryConfig{});
    core::Ecovisor eco(&cluster, &phys);

    core::AppShareConfig share;
    share.solar_fraction = 1.0;
    energy::BatteryConfig b;
    b.capacity_wh = 100.0;
    b.max_charge_w = 10.0;
    b.max_discharge_w = 50.0;
    b.initial_soc = 0.5;
    share.battery = b;
    const api::AppHandle app = eco.tryAddApp("app", share).value();

    auto id = cluster.createContainer("app", 4.0);
    if (!id)
        fatal("tick_invariance: cannot place container");
    cluster.setDemand(*id, 1.0); // constant 5 W
    eco.setBatteryMaxDischarge(app, 3.0).orFatal();

    for (TimeS t = 0; t < 2 * 3600; t += tick_s)
        eco.settleTick(t, tick_s);

    const auto &v = *eco.ves(app);
    return Totals{v.totalEnergyWh(), v.totalGridWh(), v.totalCarbonG(),
                  v.battery().energyWh(), v.totalCurtailedWh()};
}

/** Ticks that divide the hourly signal boundaries evenly. */
class TickInvariance : public ::testing::TestWithParam<TimeS>
{
};

TEST_P(TickInvariance, TotalsMatchOneMinuteBaseline)
{
    Totals base = runAt(60);
    Totals other = runAt(GetParam());
    EXPECT_NEAR(other.energy_wh, base.energy_wh, 1e-6);
    EXPECT_NEAR(other.grid_wh, base.grid_wh, 1e-6);
    EXPECT_NEAR(other.carbon_g, base.carbon_g, 1e-6);
    EXPECT_NEAR(other.battery_wh, base.battery_wh, 1e-6);
    EXPECT_NEAR(other.curtailed_wh, base.curtailed_wh, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Ticks, TickInvariance,
                         ::testing::Values<TimeS>(10, 30, 120, 300, 600,
                                                  1800, 3600));

TEST(TickInvariance, BaselineSanity)
{
    // Hand-checked first hour: demand 5 W, solar 20 W.
    //   solar serves 5 W; excess 15 W charges at the 10 W limit;
    //   5 W curtailed. Second hour: solar 2 W, deficit 3 W from the
    //   battery (cap 3 W), 0 from grid.
    Totals t = runAt(60);
    EXPECT_NEAR(t.energy_wh, 10.0, 1e-6);       // 5 W x 2 h
    EXPECT_NEAR(t.grid_wh, 0.0, 1e-6);
    EXPECT_NEAR(t.carbon_g, 0.0, 1e-6);
    // Battery: 50 + 10 (hour 1) - 3 (hour 2) = 57 Wh.
    EXPECT_NEAR(t.battery_wh, 57.0, 1e-6);
    EXPECT_NEAR(t.curtailed_wh, 5.0, 1e-6);
}

} // namespace
} // namespace ecov
