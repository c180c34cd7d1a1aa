/**
 * @file
 * EcoLib (Table 2) tests: interval queries, carbon rate/budget,
 * asynchronous notifications.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "carbon/carbon_signal.h"
#include "common/rig.h"
#include "core/ecolib.h"
#include "util/logging.h"

namespace ecov::core {
namespace {

/**
 * Canonical rig on a 2 h carbon trace (100/400 g/kWh) and a 100 W
 * solar day, with a single "app" owning everything.
 */
struct Rig : testutil::Rig
{
    Rig()
        : testutil::Rig([] {
              testutil::RigOptions o;
              o.signal_points = {{0, 100.0}, {3600, 400.0}};
              o.signal_period = 7200;
              o.solar_points = {
                  {0, 0.0}, {6 * 3600, 100.0}, {18 * 3600, 0.0}};
              return o;
          }())
    {
        AppShareConfig share;
        share.solar_fraction = 1.0;
        energy::BatteryConfig b;
        b.capacity_wh = 1440.0;
        b.initial_soc = 0.5;
        share.battery = b;
        app = eco.tryAddApp("app", share).value();
    }

    api::AppHandle app;
};

TEST(EcoLib, RequiresKnownApp)
{
    Rig rig;
    EXPECT_THROW(EcoLib(&rig.eco, "missing"), FatalError);
    EXPECT_THROW(EcoLib(nullptr, "app"), FatalError);
}

TEST(EcoLib, AppPowerAndIntervalEnergy)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    auto id = rig.cluster.createContainer("app", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0); // 5 W
    rig.run(60, 60); // one hour
    EXPECT_NEAR(lib.getAppPower(), 5.0, 1e-9);
    // Energy over the hour: ~5 Wh (last tick extends to 3600).
    double wh = lib.getAppEnergyWh(0, 3600);
    EXPECT_NEAR(wh, 5.0, 0.2);
}

TEST(EcoLib, ContainerEnergyAndCarbon)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    auto id = rig.cluster.createContainer("app", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);
    rig.run(60, 60);
    double wh = lib.getContainerEnergyWh(*id, 0, 3600);
    EXPECT_NEAR(wh, 5.0, 0.2);
    // Sole container: its carbon equals the app's interval carbon.
    EXPECT_NEAR(lib.getContainerCarbonG(*id, 0, 3600),
                lib.getAppCarbonG(0, 3600), 1e-9);
}

TEST(EcoLib, CumulativeCarbonMatchesVes)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    auto id = rig.cluster.createContainer("app", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);
    rig.run(10, 60);
    EXPECT_DOUBLE_EQ(lib.getAppCarbonG(), rig.eco.ves(rig.app)->totalCarbonG());
}

TEST(EcoLib, CarbonBudgetTracksRemaining)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    EXPECT_FALSE(lib.hasCarbonBudget());
    EXPECT_THROW(lib.carbonBudgetRemaining(), FatalError);

    // Disable the battery so the load is served from the grid.
    ASSERT_TRUE(rig.eco.setBatteryMaxDischarge(rig.app, 0.0).ok());
    auto id = rig.cluster.createContainer("app", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);
    lib.setCarbonBudget(1.0); // 1 g
    EXPECT_NEAR(lib.carbonBudgetRemaining(), 1.0, 1e-12);
    rig.run(60, 60); // 5 Wh at 100 g/kWh = 0.5 g
    EXPECT_NEAR(lib.carbonBudgetRemaining(), 0.5, 0.05);
}

TEST(EcoLib, BudgetSetAfterSpendingCountsFromNow)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    auto id = rig.cluster.createContainer("app", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);
    rig.run(60, 60);
    lib.setCarbonBudget(1.0);
    EXPECT_NEAR(lib.carbonBudgetRemaining(), 1.0, 1e-12);
}

TEST(EcoLib, CarbonRateCapsContainers)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    // Drain the battery share so only grid serves the load.
    ASSERT_TRUE(rig.eco.setBatteryMaxDischarge(rig.app, 0.0).ok());
    auto id = rig.cluster.createContainer("app", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);

    // At 100 g/kWh, 1e-4 g/s allows 3.6 W of grid power (plus zero
    // solar at midnight).
    lib.setCarbonRate(1e-4);
    rig.run(30, 60);
    double cap = rig.eco.getContainerPowercap(rig.handle(*id)).value();
    EXPECT_NEAR(cap, 3.6, 0.1);
    // Achieved carbon rate respects the limit.
    const auto &s = rig.eco.ves(rig.app)->lastSettlement();
    EXPECT_LE(s.carbon_g / 60.0, 1e-4 + 1e-9);

    lib.clearCarbonRate();
    EXPECT_FALSE(lib.carbonRate().has_value());
    EXPECT_TRUE(
        std::isinf(rig.eco.getContainerPowercap(rig.handle(*id)).value()));
}

TEST(EcoLib, ContainerCarbonRateCapsSingleContainer)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    ASSERT_TRUE(rig.eco.setBatteryMaxDischarge(rig.app, 0.0).ok());
    auto limited = rig.cluster.createContainer("app", 4.0);
    auto free_c = rig.cluster.createContainer("app", 4.0);
    ASSERT_TRUE(limited && free_c);
    rig.cluster.setDemand(*limited, 1.0);
    rig.cluster.setDemand(*free_c, 1.0);

    // 1e-4 g/s at 100 g/kWh allows 3.6 W for the limited container;
    // the other one stays uncapped.
    lib.setContainerCarbonRate(*limited, 1e-4);
    rig.run(10, 60);
    const api::ContainerHandle limited_h = rig.handle(*limited);
    const api::ContainerHandle free_h = rig.handle(*free_c);
    EXPECT_NEAR(rig.eco.getContainerPowercap(limited_h).value(), 3.6, 0.1);
    EXPECT_TRUE(std::isinf(rig.eco.getContainerPowercap(free_h).value()));
    EXPECT_NEAR(rig.eco.getContainerPower(limited_h).value(), 3.6, 0.1);
    EXPECT_NEAR(rig.eco.getContainerPower(free_h).value(), 5.0, 1e-9);

    lib.clearContainerCarbonRate(*limited);
    EXPECT_TRUE(
        std::isinf(rig.eco.getContainerPowercap(limited_h).value()));
}

TEST(EcoLib, ContainerCarbonRateRejectsForeignContainer)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    EXPECT_THROW(lib.setContainerCarbonRate(42, 1e-4), FatalError);
}

TEST(EcoLib, CarbonChangeNotification)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    int fires = 0;
    double seen_prev = -1, seen_now = -1;
    lib.notifyCarbonChange(
        [&](double prev, double now) {
            ++fires;
            seen_prev = prev;
            seen_now = now;
        },
        0.5);
    // Intensity jumps 100 -> 400 at t=3600 (a 3x relative change).
    rig.run(61, 60);
    EXPECT_GE(fires, 1);
    EXPECT_DOUBLE_EQ(seen_prev, 100.0);
    EXPECT_DOUBLE_EQ(seen_now, 400.0);
}

TEST(EcoLib, SolarChangeNotification)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    int fires = 0;
    lib.notifySolarChange([&](double, double) { ++fires; }, 0.5);
    // Cross sunrise at 6 h: solar 0 -> 100 W.
    rig.run(2, 3600, 5 * 3600);
    EXPECT_GE(fires, 1);
}

TEST(EcoLib, BatteryFullNotificationEdgeTriggered)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    int full_fires = 0;
    lib.notifyBatteryFull([&] { ++full_fires; });

    // Charge to full from the grid at max rate (night: no solar).
    ASSERT_TRUE(rig.eco.setBatteryChargeRate(rig.app, 360.0).ok());
    rig.run(5, 3600); // 0.25C fills from 50 % in 2 h; stay full after
    EXPECT_EQ(full_fires, 1); // edge-triggered: fires exactly once
}

TEST(EcoLib, BatteryEmptyNotificationEdgeTriggered)
{
    // Dedicated setup with no solar share so the battery only drains.
    carbon::TraceCarbonSignal signal({{0, 100.0}});
    energy::GridConnection grid(&signal);
    cop::Cluster cluster(4, power::ServerPowerConfig{4, 1.35, 5.0, 0.0});
    energy::PhysicalEnergySystem phys(&grid, nullptr,
                                      energy::BatteryConfig{});
    Ecovisor eco(&cluster, &phys);
    AppShareConfig share;
    energy::BatteryConfig b;
    b.capacity_wh = 1440.0;
    b.initial_soc = 0.32; // 28.8 Wh above the floor
    share.battery = b;
    const auto app = eco.tryAddApp("app", share).value();

    EcoLib lib(&eco, "app");
    int empty_fires = 0;
    lib.notifyBatteryEmpty([&] { ++empty_fires; });

    ASSERT_TRUE(eco.setBatteryMaxDischarge(app, 1440.0).ok());
    auto id = cluster.createContainer("app", 4.0);
    ASSERT_TRUE(id);
    cluster.setDemand(*id, 1.0); // 5 W
    for (int i = 0; i < 10; ++i) {
        TimeS t = static_cast<TimeS>(i) * 3600;
        eco.dispatchTickCallbacks(t, 3600);
        eco.settleTick(t, 3600);
    }
    // 28.8 Wh at 5 W drains within ~6 h; fires exactly once.
    EXPECT_EQ(empty_fires, 1);
}

TEST(EcoLib, InvalidArgumentsFatal)
{
    Rig rig;
    EcoLib lib(&rig.eco, "app");
    EXPECT_THROW(lib.setCarbonRate(-1.0), FatalError);
    EXPECT_THROW(lib.setCarbonBudget(-1.0), FatalError);
    EXPECT_THROW(lib.notifySolarChange(nullptr), FatalError);
    EXPECT_THROW(lib.notifyBatteryFull(nullptr), FatalError);
}

} // namespace
} // namespace ecov::core
