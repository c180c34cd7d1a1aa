/**
 * @file
 * Ecovisor tests: Table 1 API semantics, share validation,
 * multiplexing invariants, telemetry, and simulation integration.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "carbon/carbon_signal.h"
#include "common/rig.h"
#include "core/ecovisor.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ecov::core {
namespace {

// Canonical rig (trace signal + grid + solar + 4-node cluster) and the
// 0.25C/1C share helper come from the shared fixture header.
using testutil::Rig;
using testutil::appShare;

TEST(Ecovisor, AppRegistration)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(0.5, 700.0)).ok());
    ASSERT_TRUE(rig.eco.tryAddApp("b", appShare(0.5, 700.0)).ok());
    EXPECT_TRUE(rig.eco.findApp("a").ok());
    EXPECT_EQ(rig.eco.findApp("c").code(), api::ErrorCode::UnknownApp);
    auto names = rig.eco.appNames();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    EXPECT_EQ(rig.eco.tryAddApp("a", appShare(0.0, 10.0)).code(),
              api::ErrorCode::DuplicateApp);
}

TEST(Ecovisor, ShareOversubscriptionRejected)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(0.7, 700.0)).ok());
    // Solar beyond 100 %.
    EXPECT_EQ(rig.eco.tryAddApp("b", appShare(0.4, 100.0)).code(),
              api::ErrorCode::ShareViolation);
    // Battery capacity beyond the 1440 Wh physical bank.
    EXPECT_EQ(rig.eco.tryAddApp("c", appShare(0.1, 1000.0)).code(),
              api::ErrorCode::ShareViolation);
}

TEST(Ecovisor, SolarShareWithoutArrayRejected)
{
    carbon::TraceCarbonSignal sig({{0, 100.0}});
    energy::GridConnection grid(&sig);
    cop::Cluster cluster(1, power::ServerPowerConfig{});
    energy::PhysicalEnergySystem phys(&grid, nullptr, std::nullopt);
    Ecovisor eco(&cluster, &phys);
    AppShareConfig s;
    s.solar_fraction = 0.5;
    EXPECT_EQ(eco.tryAddApp("a", s).code(), api::ErrorCode::NoSolar);
    // Battery share without a bank.
    AppShareConfig s2;
    s2.battery = energy::BatteryConfig{};
    EXPECT_EQ(eco.tryAddApp("b", s2).code(), api::ErrorCode::NoBattery);
}

TEST(Ecovisor, GetSolarPowerSplitsByFraction)
{
    Rig rig;
    const auto a = rig.eco.tryAddApp("a", appShare(0.25, 360.0)).value();
    const auto b = rig.eco.tryAddApp("b", appShare(0.75, 1080.0)).value();
    // Before any settlement, time 0: solar is 0 at midnight.
    EXPECT_DOUBLE_EQ(rig.eco.getSolarPower(a).value(), 0.0);
    // Settle up to 6 h (solar turns on at 200 W).
    rig.eco.settleTick(6 * 3600 - 60, 60);
    EXPECT_DOUBLE_EQ(rig.eco.getSolarPower(a).value(), 50.0);
    EXPECT_DOUBLE_EQ(rig.eco.getSolarPower(b).value(), 150.0);
}

TEST(Ecovisor, GridCarbonTracksSignal)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).ok());
    EXPECT_DOUBLE_EQ(rig.eco.getGridCarbon(), 100.0);
    rig.eco.settleTick(3600 - 60, 60);
    // Next tick starts at 3600 where intensity is 300.
    EXPECT_DOUBLE_EQ(rig.eco.getGridCarbon(), 300.0);
}

TEST(Ecovisor, ContainerPowercapTranslatesToUtilization)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).ok());
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    const api::ContainerHandle c = api::handleOf(rig.cluster, *id);
    rig.cluster.setDemand(*id, 1.0);
    EXPECT_NEAR(rig.eco.getContainerPower(c).value(), 1.25, 1e-9);
    EXPECT_TRUE(std::isinf(rig.eco.getContainerPowercap(c).value()));

    ASSERT_TRUE(rig.eco.setContainerPowercap(c, 0.8).ok());
    EXPECT_DOUBLE_EQ(rig.eco.getContainerPowercap(c).value(), 0.8);
    EXPECT_NEAR(rig.eco.getContainerPower(c).value(), 0.8, 1e-9);

    // Removing the cap restores full power.
    ASSERT_TRUE(rig.eco.setContainerPowercap(c, kUnlimitedW).ok());
    EXPECT_NEAR(rig.eco.getContainerPower(c).value(), 1.25, 1e-9);
}

TEST(Ecovisor, PowercapReappliedAfterVerticalScale)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).ok());
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    const api::ContainerHandle c = api::handleOf(rig.cluster, *id);
    rig.cluster.setDemand(*id, 1.0);
    ASSERT_TRUE(rig.eco.setContainerPowercap(c, 1.0).ok());
    // Vertical scale changes the core allocation; the cap must be
    // re-derived at the next settlement.
    rig.cluster.setCores(*id, 2.0);
    rig.eco.settleTick(0, 60);
    EXPECT_NEAR(rig.eco.getContainerPower(c).value(), 1.0, 1e-6);
}

TEST(Ecovisor, SettlementChargesAppsForGridPower)
{
    Rig rig;
    const auto a = rig.eco.tryAddApp("a", appShare(0.0, 360.0, 0.30)).value();
    auto id = rig.cluster.createContainer("a", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);
    rig.eco.settleTick(0, 3600);
    // 5 W for 1 h at 100 g/kWh: 0.5 g. Battery is at its floor, no
    // solar share, so everything came from the grid.
    EXPECT_NEAR(rig.eco.getGridPower(a).value(), 5.0, 1e-9);
    EXPECT_NEAR(rig.eco.ves(a)->totalCarbonG(), 0.5, 1e-9);
    // Global meter agrees.
    EXPECT_NEAR(rig.grid.totalCarbonG(), 0.5, 1e-9);
}

TEST(Ecovisor, BatteryChargeAndDischargeSettings)
{
    Rig rig;
    const auto a = rig.eco.tryAddApp("a", appShare(0.0, 360.0, 0.5)).value();
    ASSERT_TRUE(rig.eco.setBatteryChargeRate(a, 90.0).ok());
    rig.eco.settleTick(0, 3600);
    // 90 Wh stored from the grid (rate limit is 90 W at 0.25C).
    EXPECT_NEAR(rig.eco.getBatteryChargeLevel(a).value(), 180.0 + 90.0,
                1e-9);

    // Now discharge: cap the rate and add load.
    ASSERT_TRUE(rig.eco.setBatteryChargeRate(a, 0.0).ok());
    ASSERT_TRUE(rig.eco.setBatteryMaxDischarge(a, 3.0).ok());
    auto id = rig.cluster.createContainer("a", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);
    rig.eco.settleTick(3600, 3600);
    EXPECT_NEAR(rig.eco.getBatteryDischargeRate(a).value(), 3.0, 1e-9);
    // Residual 2 W came from the grid.
    EXPECT_NEAR(rig.eco.getGridPower(a).value(), 2.0, 1e-9);
}

TEST(Ecovisor, AggregateBatteryNeverExceedsPhysicalLimits)
{
    Rig rig;
    const auto a = rig.eco.tryAddApp("a", appShare(0.5, 720.0, 1.0)).value();
    const auto b = rig.eco.tryAddApp("b", appShare(0.5, 720.0, 1.0)).value();
    ASSERT_TRUE(rig.eco.setBatteryMaxDischarge(a, 720.0).ok());
    ASSERT_TRUE(rig.eco.setBatteryMaxDischarge(b, 720.0).ok());
    // Aggregate virtual level mirrors into the physical bank.
    rig.eco.settleTick(0, 60);
    EXPECT_NEAR(rig.eco.aggregateBatteryWh(), 1440.0, 1e-6);
    EXPECT_NEAR(rig.phys.battery().energyWh(), 1440.0, 1e-6);
    // Virtual rate limits are shares of the physical 1C rate: the sum
    // of what both apps could discharge stays within the physical cap.
    double max_sum = rig.eco.ves(a)->battery().config().max_discharge_w +
                     rig.eco.ves(b)->battery().config().max_discharge_w;
    EXPECT_LE(max_sum, rig.phys.battery().config().max_discharge_w + 1e-9);
}

TEST(Ecovisor, UnownedSolarIsCurtailedByDefault)
{
    Rig rig;
    // Battery full.
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(0.25, 1440.0, 1.0)).ok());
    // At 7 h solar is 200 W; app owns 50 W, rest is unowned.
    rig.eco.settleTick(7 * 3600, 3600);
    // 150 W unowned + 50 W owned-but-full = 200 W curtailed for 1 h.
    EXPECT_NEAR(rig.eco.curtailedWh(), 200.0, 1e-6);
}

TEST(Ecovisor, NetMeterPolicyExportsExcess)
{
    EcovisorOptions opts;
    opts.excess_solar = ExcessSolarPolicy::NetMeter;
    Rig rig(opts);
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(1.0, 1440.0, 1.0)).ok());
    rig.eco.settleTick(7 * 3600, 3600);
    EXPECT_NEAR(rig.eco.netMeteredWh(), 200.0, 1e-6);
    EXPECT_DOUBLE_EQ(rig.eco.curtailedWh(), 0.0);
}

TEST(Ecovisor, RedistributePolicyFillsOtherBatteries)
{
    EcovisorOptions opts;
    opts.excess_solar = ExcessSolarPolicy::Redistribute;
    Rig rig(opts);
    ASSERT_TRUE(rig.eco.tryAddApp("full", appShare(1.0, 720.0, 1.0)).ok());
    const auto hungry =
        rig.eco.tryAddApp("hungry", appShare(0.0, 720.0, 0.5)).value();
    rig.eco.settleTick(7 * 3600, 3600);
    // "full" cannot store its 200 W excess; "hungry" absorbs up to its
    // 180 W charge limit; the 20 W remainder is curtailed.
    EXPECT_NEAR(rig.eco.ves(hungry)->battery().energyWh(),
                360.0 + 180.0, 1e-6);
    EXPECT_NEAR(rig.eco.curtailedWh(), 20.0, 1e-6);
}

TEST(Ecovisor, TickCallbackDispatch)
{
    Rig rig;
    const auto a = rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();
    int calls = 0;
    ASSERT_TRUE(
        rig.eco.registerTickCallback(a, [&](TimeS, TimeS) { ++calls; })
            .ok());
    rig.eco.dispatchTickCallbacks(0, 60);
    rig.eco.dispatchTickCallbacks(60, 60);
    EXPECT_EQ(calls, 2);
}

TEST(Ecovisor, AttachDrivesCallbacksAndSettlement)
{
    Rig rig;
    const auto a = rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();
    sim::Simulation simul(60);
    rig.eco.attach(simul);
    int ticks = 0;
    ASSERT_TRUE(
        rig.eco.registerTickCallback(a, [&](TimeS, TimeS) { ++ticks; })
            .ok());
    simul.runTicks(10);
    EXPECT_EQ(ticks, 10);
    EXPECT_EQ(rig.eco.lastSettledTick(), 9 * 60);
    // Telemetry recorded one sample per tick.
    EXPECT_EQ(rig.eco.db().series("grid_carbon").size(), 10u);
    EXPECT_EQ(rig.eco.db().series("app_power_w", "a").size(), 10u);
}

TEST(Ecovisor, GettersSeeCurrentTickOnOffsetStart)
{
    // A simulation starting mid-day must expose that tick's signals
    // on the very first policy-phase read, not midnight's.
    Rig rig;
    const auto a = rig.eco.tryAddApp("a", appShare(1.0, 1440.0)).value();
    sim::Simulation simul(60, 7 * 3600);
    rig.eco.attach(simul);
    double first_solar = -1.0, first_carbon = -1.0;
    simul.addListener(
        [&](TimeS, TimeS) {
            if (first_solar < 0.0) {
                first_solar = rig.eco.getSolarPower(a).value();
                first_carbon = rig.eco.getGridCarbon();
            }
        },
        sim::TickPhase::Policy);
    simul.step();
    EXPECT_DOUBLE_EQ(first_solar, 200.0); // solar is up at 7 am
    // 7 h mod the 3 h signal period = 3600 -> 300 g/kWh.
    EXPECT_DOUBLE_EQ(first_carbon, 300.0);
}

TEST(Ecovisor, TelemetryRecordsPerContainerSeries)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(0.0, 360.0, 0.30)).ok());
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);
    rig.eco.settleTick(0, 60);
    EXPECT_TRUE(rig.eco.db().has("container_power_w",
                                 std::to_string(*id)));
    EXPECT_TRUE(rig.eco.db().has("container_carbon_g",
                                 std::to_string(*id)));
}

TEST(Ecovisor, UnknownAppOrContainerIsAnError)
{
    Rig rig;
    EXPECT_EQ(rig.eco.findApp("nope").code(), api::ErrorCode::UnknownApp);
    const api::AppHandle unregistered(0);
    EXPECT_EQ(rig.eco.getSolarPower(unregistered).code(),
              api::ErrorCode::InvalidHandle);
    EXPECT_EQ(rig.eco.setBatteryChargeRate(unregistered, 1.0).code(),
              api::ErrorCode::InvalidHandle);
    EXPECT_EQ(rig.eco
                  .setContainerPowercap(api::handleOf(rig.cluster, 42), 1.0)
                  .code(),
              api::ErrorCode::UnknownContainer);
    EXPECT_EQ(rig.eco
                  .registerTickCallback(unregistered, [](TimeS, TimeS) {})
                  .code(),
              api::ErrorCode::InvalidHandle);
}

TEST(Ecovisor, NullDependenciesFatal)
{
    Rig rig;
    EXPECT_THROW(Ecovisor(nullptr, &rig.phys), FatalError);
    EXPECT_THROW(Ecovisor(&rig.cluster, nullptr), FatalError);
}

/**
 * Property: across random apps/loads, per-app carbon sums to the
 * global grid meter and energy books balance.
 */
class MultiplexAccounting : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MultiplexAccounting, PerAppSumsMatchGlobalMeters)
{
    Rig rig;
    Rng rng(GetParam());
    const auto a =
        rig.eco.tryAddApp("a", appShare(0.3, 400.0, rng.uniform(0.3, 1.0)))
            .value();
    const auto b =
        rig.eco.tryAddApp("b", appShare(0.3, 400.0, rng.uniform(0.3, 1.0)))
            .value();
    ASSERT_TRUE(
        rig.eco.tryAddApp("c", appShare(0.4, 600.0, rng.uniform(0.3, 1.0)))
            .ok());

    std::vector<cop::ContainerId> ids;
    for (int i = 0; i < 9; ++i) {
        auto id = rig.cluster.createContainer(
            std::string(1, static_cast<char>('a' + i % 3)), 1.0);
        ASSERT_TRUE(id);
        ids.push_back(*id);
    }

    TimeS t = 0;
    for (int tick = 0; tick < 500; ++tick) {
        for (auto id : ids)
            rig.cluster.setDemand(id, rng.uniform(0.0, 1.0));
        if (rng.bernoulli(0.1)) {
            ASSERT_TRUE(
                rig.eco.setBatteryChargeRate(a, rng.uniform(0.0, 100.0))
                    .ok());
            ASSERT_TRUE(
                rig.eco.setBatteryMaxDischarge(b, rng.uniform(0.0, 400.0))
                    .ok());
        }
        rig.eco.settleTick(t, 60);
        t += 60;
    }

    double app_carbon = 0.0, app_grid_wh = 0.0;
    for (const auto &name : rig.eco.appNames()) {
        const VirtualEnergySystem *ves =
            rig.eco.ves(rig.eco.findApp(name).value());
        app_carbon += ves->totalCarbonG();
        app_grid_wh += ves->totalGridWh();
    }
    EXPECT_NEAR(app_carbon, rig.grid.totalCarbonG(), 1e-6);
    EXPECT_NEAR(app_grid_wh, rig.grid.totalEnergyWh(), 1e-6);
    // The physical battery mirrors the aggregate of virtual ones.
    EXPECT_NEAR(rig.phys.battery().energyWh(),
                rig.eco.aggregateBatteryWh(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiplexAccounting,
                         ::testing::Values(1, 7, 42, 1001));

} // namespace
} // namespace ecov::core
