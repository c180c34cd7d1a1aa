/**
 * @file
 * Carbon arbitrage policy tests (§3.1): charge on clean power,
 * discharge on dirty power, and an end-to-end saving check against a
 * square-wave carbon signal.
 */

#include <gtest/gtest.h>

#include "carbon/carbon_signal.h"
#include "common/rig.h"
#include "core/ecovisor.h"
#include "policies/carbon_arbitrage.h"
#include "util/logging.h"

namespace ecov::policy {
namespace {

/** Carbon alternates clean (100) / dirty (300) every hour. */
struct Rig : testutil::Rig
{
    explicit Rig(double efficiency = 1.0)
        : testutil::Rig([] {
              testutil::RigOptions o;
              o.signal_points = {{0, 100.0}, {3600, 300.0}};
              o.signal_period = 7200;
              o.use_solar = false;
              return o;
          }())
    {
        core::AppShareConfig share;
        energy::BatteryConfig b;
        b.capacity_wh = 40.0;
        b.soc_floor = 0.0;
        b.max_charge_w = 20.0;
        b.max_discharge_w = 40.0;
        b.initial_soc = 0.0;
        b.efficiency = efficiency;
        share.battery = b;
        app = eco.tryAddApp("app", share).value();
    }

    api::AppHandle app;
};

CarbonArbitrageConfig
config()
{
    CarbonArbitrageConfig cfg;
    cfg.low_g_per_kwh = 150.0;
    cfg.high_g_per_kwh = 250.0;
    cfg.charge_rate_w = 20.0;
    cfg.max_discharge_w = 40.0;
    return cfg;
}

TEST(CarbonArbitragePolicy, ModesFollowIntensity)
{
    Rig rig;
    CarbonArbitragePolicy pol(&rig.eco, "app", config());

    // Clean hour: charges.
    pol.onTick(0, 60);
    EXPECT_EQ(pol.mode(), CarbonArbitragePolicy::Mode::Charging);
    EXPECT_DOUBLE_EQ(rig.eco.ves(rig.app)->chargeRateW(), 20.0);
    EXPECT_DOUBLE_EQ(rig.eco.ves(rig.app)->maxDischargeW(), 0.0);

    // Dirty hour: discharges.
    rig.eco.settleTick(3600 - 60, 60);
    pol.onTick(3600, 60);
    EXPECT_EQ(pol.mode(), CarbonArbitragePolicy::Mode::Discharging);
    EXPECT_DOUBLE_EQ(rig.eco.ves(rig.app)->chargeRateW(), 0.0);
    EXPECT_DOUBLE_EQ(rig.eco.ves(rig.app)->maxDischargeW(), 40.0);
}

TEST(CarbonArbitragePolicy, HoldBetweenThresholds)
{
    carbon::TraceCarbonSignal mid({{0, 200.0}});
    energy::GridConnection grid(&mid);
    cop::Cluster cluster(4, power::ServerPowerConfig{});
    energy::PhysicalEnergySystem phys(&grid, nullptr,
                                      energy::BatteryConfig{});
    core::Ecovisor eco(&cluster, &phys);
    core::AppShareConfig share;
    share.battery = energy::BatteryConfig{};
    eco.tryAddApp("app", share).value();
    CarbonArbitragePolicy pol(&eco, "app", config());
    pol.onTick(0, 60);
    EXPECT_EQ(pol.mode(), CarbonArbitragePolicy::Mode::Hold);
}

TEST(CarbonArbitragePolicy, ReducesCarbonForConstantLoad)
{
    auto runWith = [](bool arbitrage) {
        Rig rig;
        CarbonArbitragePolicy pol(&rig.eco, "app", config());
        auto id = rig.cluster.createContainer("app", 4.0);
        EXPECT_TRUE(id.has_value());
        rig.cluster.setDemand(*id, 1.0); // constant 5 W
        if (!arbitrage) {
            // Battery idle: no charge, no discharge.
            rig.eco.setBatteryMaxDischarge(rig.app, 0.0).orFatal();
        }
        for (TimeS t = 0; t < 24 * 3600; t += 60) {
            if (arbitrage)
                pol.onTick(t, 60);
            rig.eco.settleTick(t, 60);
        }
        return rig.eco.ves(rig.app)->totalCarbonG();
    };
    double base = runWith(false);
    double arb = runWith(true);
    // All dirty-hour load (300 g/kWh) is displaced to clean hours
    // (100 g/kWh): carbon drops substantially.
    EXPECT_LT(arb, base * 0.85);
}

TEST(CarbonArbitragePolicy, RoundTripLossCanNegateThinSpreads)
{
    // With 70 % round-trip efficiency and a thin 100 -> 120 spread,
    // arbitrage wastes more energy than the spread saves.
    auto runWith = [](double efficiency, double dirty) {
        carbon::TraceCarbonSignal sig(
            {{0, 100.0}, {3600, dirty}}, 7200);
        energy::GridConnection grid(&sig);
        cop::Cluster cluster(4, power::ServerPowerConfig{});
        energy::PhysicalEnergySystem phys(&grid, nullptr,
                                          energy::BatteryConfig{});
        core::Ecovisor eco(&cluster, &phys);
        core::AppShareConfig share;
        energy::BatteryConfig b;
        b.capacity_wh = 40.0;
        b.soc_floor = 0.0;
        b.max_charge_w = 20.0;
        b.max_discharge_w = 40.0;
        b.initial_soc = 0.0;
        b.efficiency = efficiency;
        share.battery = b;
        const api::AppHandle app = eco.tryAddApp("app", share).value();

        CarbonArbitrageConfig cfg;
        cfg.low_g_per_kwh = 110.0;
        cfg.high_g_per_kwh = dirty - 10.0;
        cfg.charge_rate_w = 20.0;
        cfg.max_discharge_w = 40.0;
        CarbonArbitragePolicy pol(&eco, "app", cfg);

        auto id = cluster.createContainer("app", 4.0);
        EXPECT_TRUE(id.has_value());
        cluster.setDemand(*id, 1.0);
        for (TimeS t = 0; t < 24 * 3600; t += 60) {
            pol.onTick(t, 60);
            eco.settleTick(t, 60);
        }
        return eco.ves(app)->totalCarbonG();
    };
    // Thin spread + lossy battery: arbitrage hurts.
    EXPECT_GT(runWith(0.7, 130.0), runWith(1.0, 130.0));
}

TEST(CarbonArbitragePolicy, InvalidConstructionFatal)
{
    Rig rig;
    EXPECT_THROW(CarbonArbitragePolicy(nullptr, "app", config()),
                 FatalError);
    EXPECT_THROW(CarbonArbitragePolicy(&rig.eco, "nope", config()),
                 FatalError);
    CarbonArbitrageConfig bad = config();
    bad.low_g_per_kwh = bad.high_g_per_kwh;
    EXPECT_THROW(CarbonArbitragePolicy(&rig.eco, "app", bad),
                 FatalError);

    // App without a battery share cannot arbitrage.
    rig.eco.tryAddApp("no-batt", core::AppShareConfig{}).value();
    EXPECT_THROW(CarbonArbitragePolicy(&rig.eco, "no-batt", config()),
                 FatalError);
}

} // namespace
} // namespace ecov::policy
