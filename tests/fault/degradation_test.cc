/**
 * @file
 * Graceful degradation under energy faults (docs/FAULTS.md): the
 * zero-cost-when-off contract, sensor-blackout staleness, grid-outage
 * emergency caps and unserved-load accounting, battery faults, the
 * FaultInjector's hook lifetime, and bit-identical results at any
 * settlement thread count.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rig.h"
#include "core/ecovisor.h"
#include "core/faults.h"
#include "fault/injector.h"
#include "fault/schedule.h"

namespace ecov::fault {
namespace {

using testutil::Rig;
using testutil::RigOptions;
using testutil::appShare;

// Solar turns on at 6 h in the canonical rig; settling there gives a
// non-trivial solar term (exactly 200 W at the 6 h trace knot).
constexpr TimeS kSolarNoon = 6 * 3600;

TEST(Degradation, UnarmedInjectorIsBitIdentical)
{
    // An installed injector with an empty schedule must not perturb a
    // single bit of the settlement: the fault plane's core branches
    // are all false on the healthy path.
    Rig plain;
    Rig faulted;
    for (Rig *rig : {&plain, &faulted}) {
        const auto a =
            rig->eco.tryAddApp("a", appShare(0.6, 720.0, 0.6)).value();
        rig->eco.tryAddApp("b", appShare(0.4, 400.0, 0.4)).value();
        rig->eco.setBatteryMaxDischarge(a, 10.0).orFatal();
        auto id = rig->cluster.createContainer("a", 2.0);
        ASSERT_TRUE(id);
        rig->cluster.setDemand(*id, 0.9);
    }
    FaultInjector injector(&faulted.eco, FaultSchedule{});

    plain.run(8, 60, kSolarNoon);
    faulted.run(8, 60, kSolarNoon);

    EXPECT_EQ(injector.armedTicks(), 0);
    EXPECT_EQ(faulted.eco.degradedTicks(), 0);
    EXPECT_EQ(faulted.eco.sloViolationTicks(), 0);
    EXPECT_DOUBLE_EQ(faulted.eco.unservedWh(), 0.0);
    // Both rigs registered the same apps in the same order, so the
    // registration-index handles name the same tenant in each.
    for (const api::AppHandle app : {api::AppHandle(0), api::AppHandle(1)}) {
        EXPECT_EQ(plain.eco.getSolarPower(app).value(),
                  faulted.eco.getSolarPower(app).value());
        EXPECT_EQ(plain.eco.getGridPower(app).value(),
                  faulted.eco.getGridPower(app).value());
        EXPECT_EQ(plain.eco.getBatteryChargeLevel(app).value(),
                  faulted.eco.getBatteryChargeLevel(app).value());
    }
    EXPECT_EQ(plain.grid.totalCarbonG(), faulted.grid.totalCarbonG());
}

TEST(Degradation, SensorBlackoutServesLastSettledReadings)
{
    Rig rig;
    auto h = rig.eco.tryAddApp("a", appShare(1.0, 1440.0));
    ASSERT_TRUE(h.ok());

    // Settle the last pre-dawn tick: solar still 0, carbon at the
    // 50 g tail of the trace period. The next tick crosses both the
    // 6 h solar step (0 -> 200 W) and the carbon wrap (50 -> 100 g),
    // so live and last-settled readings genuinely diverge.
    rig.eco.settleTick(kSolarNoon - 60, 60);
    core::EnergyFaults f;
    f.sensor_blackout = true;
    rig.eco.setEnergyFaults(f);

    // The getters freeze on the last settled readings — the exact
    // values, never extrapolated — and the snapshot says so.
    ASSERT_DOUBLE_EQ(rig.phys.solarPowerAt(kSolarNoon), 200.0);
    ASSERT_DOUBLE_EQ(rig.phys.gridCarbonAt(kSolarNoon), 100.0);
    auto snap = rig.eco.getEnergySnapshot(h.value());
    ASSERT_TRUE(snap.ok());
    EXPECT_TRUE(snap.value().stale);
    EXPECT_DOUBLE_EQ(snap.value().solar_w, 0.0);
    EXPECT_DOUBLE_EQ(snap.value().grid_carbon_g_per_kwh, 50.0);
    EXPECT_DOUBLE_EQ(rig.eco.getSolarPower(h.value()).value(), 0.0);
    EXPECT_DOUBLE_EQ(rig.eco.getGridCarbon(), 50.0);

    // Settlement itself is ground truth and keeps using live values:
    // the stale readings advance to the *newest* settled tick, they
    // do not stay pinned at blackout start.
    rig.eco.settleTick(kSolarNoon, 60);
    auto snap2 = rig.eco.getEnergySnapshot(h.value());
    ASSERT_TRUE(snap2.ok());
    EXPECT_TRUE(snap2.value().stale);
    EXPECT_DOUBLE_EQ(snap2.value().solar_w, 200.0);
    EXPECT_DOUBLE_EQ(snap2.value().grid_carbon_g_per_kwh, 100.0);
    EXPECT_EQ(rig.eco.degradedTicks(), 1);

    // Blackout lifts: snapshots go live again.
    rig.eco.setEnergyFaults(core::EnergyFaults{});
    auto snap3 = rig.eco.getEnergySnapshot(h.value());
    ASSERT_TRUE(snap3.ok());
    EXPECT_FALSE(snap3.value().stale);
    EXPECT_DOUBLE_EQ(snap3.value().solar_w,
                     rig.phys.solarPowerAt(kSolarNoon + 60));
}

TEST(Degradation, SolarDropoutFallsBackToGrid)
{
    Rig rig;
    // Solar share only — no battery to island behind, so the lost
    // solar must come straight off the grid.
    core::AppShareConfig share;
    share.solar_fraction = 1.0;
    const auto a = rig.eco.tryAddApp("a", share).value();
    auto id = rig.cluster.createContainer("a", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0); // 5 W: one full node

    core::EnergyFaults f;
    f.solar_derate = 0.0; // dropout
    rig.eco.setEnergyFaults(f);
    rig.eco.settleTick(kSolarNoon, 60);

    // 200 W of owned solar is gone; the whole 5 W comes off the grid,
    // and the live solar getter reports the derated (zero) output.
    EXPECT_DOUBLE_EQ(rig.eco.getGridPower(a).value(), 5.0);
    EXPECT_DOUBLE_EQ(rig.eco.getSolarPower(a).value(), 0.0);
    EXPECT_EQ(rig.eco.degradedTicks(), 1);
    // Dropout sheds nothing — the grid absorbs it, no SLO violation.
    EXPECT_EQ(rig.eco.sloViolationTicks(), 0);
}

TEST(Degradation, GridOutageCapsShedAndRecover)
{
    Rig rig;
    // No solar share, no battery: the islanded budget is exactly zero,
    // so an outage must emergency-cap the app to its idle floor.
    const auto a = rig.eco.tryAddApp("a", core::AppShareConfig{}).value();
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0); // 1.25 W on the canonical node

    FaultSchedule sched;
    sched.add({FaultKind::GridOutage, 60, 180, 0.0, kAllTargets});
    FaultInjector injector(&rig.eco, std::move(sched));

    rig.eco.settleTick(0, 60); // healthy
    EXPECT_DOUBLE_EQ(rig.eco.getGridPower(a).value(), 1.25);

    rig.eco.settleTick(60, 60); // outage tick 1
    rig.eco.settleTick(120, 60); // outage tick 2
    // No import at all during the outage...
    EXPECT_DOUBLE_EQ(rig.eco.getGridPower(a).value(), 0.0);
    // ...the emergency cap floors the container at its idle draw
    // (0.3375 W: the 1-core share of the 1.35 W node idle)...
    EXPECT_NEAR(rig.eco.getContainerPower(rig.handle(*id)).value(), 0.3375,
                1e-12);
    // ...and that idle draw is shed as unserved load, honestly
    // accounted instead of pretending the import happened.
    EXPECT_NEAR(rig.eco.unservedWh(), 2.0 * 0.3375 * 60.0 / 3600.0,
                1e-12);
    EXPECT_EQ(rig.eco.sloViolationTicks(), 2);
    EXPECT_EQ(rig.eco.degradedTicks(), 2);
    EXPECT_EQ(injector.armedTicks(), 2);

    // First healthy tick lifts the emergency caps and restores the
    // full draw from the grid.
    rig.eco.settleTick(180, 60);
    EXPECT_DOUBLE_EQ(rig.eco.getContainerPower(rig.handle(*id)).value(), 1.25);
    EXPECT_DOUBLE_EQ(rig.eco.getGridPower(a).value(), 1.25);
    EXPECT_EQ(rig.eco.sloViolationTicks(), 2);
}

TEST(Degradation, OutageServedFromOwnBatteryWithoutShedding)
{
    Rig rig;
    const auto a = rig.eco.tryAddApp("a", appShare(0.0, 360.0, 0.5)).value();
    rig.eco.setBatteryMaxDischarge(a, 10.0).orFatal();
    auto id = rig.cluster.createContainer("a", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0); // 5 W

    core::EnergyFaults f;
    f.grid_out = true;
    rig.eco.setEnergyFaults(f);
    rig.eco.settleTick(0, 60);

    // The battery can island the whole demand: no caps, no shedding —
    // but the tick still counts as degraded (a fault was armed).
    EXPECT_DOUBLE_EQ(rig.eco.getBatteryDischargeRate(a).value(), 5.0);
    EXPECT_DOUBLE_EQ(rig.eco.getGridPower(a).value(), 0.0);
    EXPECT_DOUBLE_EQ(rig.eco.getContainerPower(rig.handle(*id)).value(), 5.0);
    EXPECT_DOUBLE_EQ(rig.eco.unservedWh(), 0.0);
    EXPECT_EQ(rig.eco.sloViolationTicks(), 0);
    EXPECT_EQ(rig.eco.degradedTicks(), 1);
}

TEST(Degradation, BatteryOfflineForcesGridImport)
{
    Rig rig;
    const auto a = rig.eco.tryAddApp("a", appShare(0.0, 360.0, 0.5)).value();
    rig.eco.setBatteryMaxDischarge(a, 5.0).orFatal();
    auto id = rig.cluster.createContainer("a", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0); // 5 W

    rig.eco.settleTick(0, 3600); // healthy: battery carries the load
    EXPECT_DOUBLE_EQ(rig.eco.getBatteryDischargeRate(a).value(), 5.0);
    EXPECT_DOUBLE_EQ(rig.eco.getGridPower(a).value(), 0.0);

    core::EnergyFaults f;
    f.battery_offline = true;
    rig.eco.setEnergyFaults(f);
    rig.eco.settleTick(3600, 3600);
    EXPECT_DOUBLE_EQ(rig.eco.getBatteryDischargeRate(a).value(), 0.0);
    EXPECT_DOUBLE_EQ(rig.eco.getGridPower(a).value(), 5.0);
}

TEST(Degradation, CapacityFadeClampsStoredEnergyExactly)
{
    Rig rig;
    // 360 Wh stored.
    const auto a = rig.eco.tryAddApp("a", appShare(0.0, 360.0, 1.0)).value();

    core::EnergyFaults f;
    f.battery_capacity_factor = 0.5;
    rig.eco.setEnergyFaults(f);
    rig.eco.settleTick(0, 60);
    // An exact clamp to the usable capacity, not a decay model.
    EXPECT_DOUBLE_EQ(rig.eco.getBatteryChargeLevel(a).value(), 180.0);

    // Lifting the fade does not refill what the clamp removed.
    rig.eco.setEnergyFaults(core::EnergyFaults{});
    rig.eco.settleTick(60, 60);
    EXPECT_DOUBLE_EQ(rig.eco.getBatteryChargeLevel(a).value(), 180.0);
}

TEST(Degradation, InjectorUninstallsHookOnDestruction)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(0.0, 360.0, 0.5)).ok());

    {
        FaultSchedule sched;
        sched.add({FaultKind::SensorBlackout, 0, 120, 0.0,
                   kAllTargets});
        FaultInjector injector(&rig.eco, std::move(sched));
        rig.run(2, 60, 0);
        EXPECT_EQ(injector.armedTicks(), 2);
        EXPECT_TRUE(rig.eco.energyFaults().sensor_blackout);
    }
    // Destruction clears the armed fault set immediately...
    EXPECT_FALSE(rig.eco.energyFaults().any());
    // ...and with the hook gone, later ticks never re-arm it even
    // though the destroyed schedule's window would still be open.
    rig.run(1, 60, 60);
    EXPECT_EQ(rig.eco.degradedTicks(), 2);

    // The hook slot is free again for a fresh injector.
    FaultSchedule sched2;
    sched2.add({FaultKind::BatteryOffline, 0, 600, 0.0, kAllTargets});
    FaultInjector second(&rig.eco, std::move(sched2));
    rig.run(1, 60, 120);
    EXPECT_EQ(second.armedTicks(), 1);
    EXPECT_EQ(rig.eco.degradedTicks(), 3);
}

// ---------------------------------------------------------------------
// Determinism: a faulted run is bit-identical at any thread count.
// ---------------------------------------------------------------------

// One eventful scenario: overlapping outage, derate, fade, blackout
// and battery-offline windows over 12 ticks, three apps settling
// through the sharded path. Returns every per-tick snapshot field.
std::vector<double>
faultedDigest(int threads)
{
    RigOptions opts;
    opts.eco.threads = threads;
    Rig rig(opts);

    auto ha = rig.eco.tryAddApp("a", appShare(0.5, 720.0, 0.6));
    auto hb = rig.eco.tryAddApp("b", appShare(0.3, 400.0, 0.4));
    auto hc = rig.eco.tryAddApp("c", core::AppShareConfig{});
    EXPECT_TRUE(ha.ok() && hb.ok() && hc.ok());
    rig.eco.setBatteryMaxDischarge(ha.value(), 30.0).orFatal();
    rig.eco.setBatteryMaxDischarge(hb.value(), 10.0).orFatal();
    auto ca = rig.cluster.createContainer("a", 2.0);
    auto cb = rig.cluster.createContainer("b", 1.0);
    auto cc = rig.cluster.createContainer("c", 1.0);
    EXPECT_TRUE(ca && cb && cc);
    rig.cluster.setDemand(*ca, 0.9);
    rig.cluster.setDemand(*cb, 1.0);
    rig.cluster.setDemand(*cc, 0.7);

    const TimeS t0 = kSolarNoon;
    FaultSchedule sched;
    sched.add({FaultKind::SolarDerate, t0, t0 + 300, 0.6,
               kAllTargets});
    sched.add({FaultKind::GridOutage, t0 + 60, t0 + 180, 0.0,
               kAllTargets});
    sched.add({FaultKind::BatteryCapacityFade, t0 + 120, t0 + 420,
               0.7, kAllTargets});
    sched.add({FaultKind::SensorBlackout, t0 + 240, t0 + 360, 0.0,
               kAllTargets});
    sched.add({FaultKind::BatteryOffline, t0 + 300, t0 + 420, 0.0,
               kAllTargets});
    FaultInjector injector(&rig.eco, std::move(sched));

    std::vector<double> digest;
    for (int tick = 0; tick < 12; ++tick) {
        const TimeS t = t0 + static_cast<TimeS>(tick) * 60;
        rig.eco.dispatchTickCallbacks(t, 60);
        rig.eco.settleTick(t, 60);
        for (const auto &h : {ha, hb, hc}) {
            auto snap = rig.eco.getEnergySnapshot(h.value());
            EXPECT_TRUE(snap.ok());
            digest.push_back(snap.value().solar_w);
            digest.push_back(snap.value().grid_w);
            digest.push_back(snap.value().grid_carbon_g_per_kwh);
            digest.push_back(snap.value().battery_discharge_w);
            digest.push_back(snap.value().battery_charge_level_wh);
            digest.push_back(snap.value().stale ? 1.0 : 0.0);
        }
    }
    digest.push_back(static_cast<double>(rig.eco.degradedTicks()));
    digest.push_back(static_cast<double>(rig.eco.sloViolationTicks()));
    digest.push_back(rig.eco.unservedWh());
    digest.push_back(rig.grid.totalCarbonG());
    digest.push_back(static_cast<double>(injector.armedTicks()));
    return digest;
}

TEST(DegradationThreads, FaultedRunBitIdenticalAcrossThreadCounts)
{
    const std::vector<double> sequential = faultedDigest(1);
    const std::vector<double> sharded = faultedDigest(4);
    ASSERT_EQ(sequential.size(), sharded.size());
    for (std::size_t i = 0; i < sequential.size(); ++i)
        EXPECT_EQ(sequential[i], sharded[i]) << "digest index " << i;
    // The scenario actually exercised the fault plane.
    EXPECT_GT(sequential[sequential.size() - 1], 0.0); // armed ticks
    EXPECT_GT(sequential[sequential.size() - 5], 0.0); // degraded
}

} // namespace
} // namespace ecov::fault
