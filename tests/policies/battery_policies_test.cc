/**
 * @file
 * Battery policy tests (§5.3): static vs Spark-dynamic vs
 * web-dynamic behaviour over a day/night solar cycle.
 */

#include <gtest/gtest.h>

#include "carbon/carbon_signal.h"
#include "common/rig.h"
#include "core/ecovisor.h"
#include "policies/battery_policies.h"
#include "util/logging.h"

namespace ecov::policy {
namespace {

/**
 * Canonical rig on a flat 200 g/kWh grid, a 40 W solar plateau from
 * 6 h to 18 h, and a 32-node cluster; one "app" owns everything.
 */
struct Rig : testutil::Rig
{
    Rig()
        : testutil::Rig([] {
              testutil::RigOptions o;
              o.signal_points = {{0, 200.0}};
              o.signal_period = 0;
              o.solar_points = {
                  {0, 0.0}, {6 * 3600, 40.0}, {18 * 3600, 0.0}};
              o.nodes = 32;
              return o;
          }())
    {
        core::AppShareConfig share;
        share.solar_fraction = 1.0;
        energy::BatteryConfig b;
        b.capacity_wh = 200.0;
        b.soc_floor = 0.30;
        b.max_charge_w = 50.0;
        b.max_discharge_w = 200.0;
        b.initial_soc = 0.6;
        share.battery = b;
        app = eco.tryAddApp("app", share).value();
    }

    api::AppHandle app;
};

BatteryPolicyConfig
policyConfig()
{
    BatteryPolicyConfig cfg;
    cfg.guaranteed_power_w = 5.0;
    cfg.per_worker_w = 1.25;
    cfg.high_soc = 0.95;
    cfg.low_soc = 0.45;
    return cfg;
}

TEST(StaticBatteryPolicy, FixedWorkersByDayNoneByNight)
{
    Rig rig;
    int workers = -1;
    StaticBatteryPolicy policy(
        &rig.eco, "app", [&](int n) { workers = n; }, policyConfig());
    EXPECT_EQ(policy.dayWorkers(), 4); // floor(5.0 / 1.25)

    // Midnight: dark.
    policy.onTick(0, 60);
    EXPECT_EQ(workers, 0);

    // Settle to 07:00 so getSolarPower sees daylight.
    rig.eco.settleTick(7 * 3600 - 60, 60);
    policy.onTick(7 * 3600, 60);
    EXPECT_EQ(workers, 4);
    // Battery may discharge up to the guaranteed power during day.
    EXPECT_DOUBLE_EQ(rig.eco.ves(rig.app)->maxDischargeW(), 5.0);

    // Night again: suspended, battery preserved.
    rig.eco.settleTick(19 * 3600 - 60, 60);
    policy.onTick(19 * 3600, 60);
    EXPECT_EQ(workers, 0);
    EXPECT_DOUBLE_EQ(rig.eco.ves(rig.app)->maxDischargeW(), 0.0);
}

TEST(DynamicSparkBatteryPolicy, ScalesUpOnFullBattery)
{
    Rig rig;
    wl::SparkJobConfig jc;
    jc.app = "app";
    jc.total_work = 1e9;
    jc.max_workers = 32;
    wl::SparkJob job(&rig.cluster, jc);
    job.start(0);
    DynamicSparkBatteryPolicy policy(&rig.eco, &job, policyConfig());

    // Force the battery full, then tick during daylight.
    rig.eco.settleTick(7 * 3600 - 60, 60);
    rig.eco.setBatteryChargeRate(rig.app, 50.0).orFatal();
    for (TimeS t = 7 * 3600; rig.eco.ves(rig.app)->battery().soc() < 0.95;
         t += 600)
        rig.eco.settleTick(t, 600);
    policy.onTick(12 * 3600, 60);
    // Full battery: consume the whole 40 W solar share -> 32 workers.
    EXPECT_EQ(job.workers(), 32);
}

TEST(DynamicSparkBatteryPolicy, RetreatsToGuaranteedOnLowBattery)
{
    Rig rig;
    wl::SparkJobConfig jc;
    jc.app = "app";
    jc.total_work = 1e9;
    jc.max_workers = 64;
    wl::SparkJob job(&rig.cluster, jc);
    job.start(0);
    DynamicSparkBatteryPolicy policy(&rig.eco, &job, policyConfig());

    rig.eco.settleTick(7 * 3600 - 60, 60);
    // SOC is 0.6 which is between the marks -> hysteresis keeps 0.
    policy.onTick(7 * 3600, 60);
    int before = job.workers();
    EXPECT_EQ(before, 0);

    // Drain below the low mark by discharging into a big load
    // (64 workers x 1.25 W = 80 W against a 40 W solar share).
    rig.eco.setBatteryMaxDischarge(rig.app, 200.0).orFatal();
    job.setWorkers(64);
    for (TimeS t = 7 * 3600; rig.eco.ves(rig.app)->battery().soc() > 0.45;
         t += 600) {
        for (auto id : job.containers())
            rig.cluster.setDemand(id, 1.0);
        rig.eco.settleTick(t, 600);
        ASSERT_LT(t, 48 * 3600);
    }
    policy.onTick(12 * 3600, 60);
    EXPECT_EQ(job.workers(), 4); // guaranteed / per-worker
}

TEST(DynamicSparkBatteryPolicy, NightShutdownKillsWorkers)
{
    Rig rig;
    wl::SparkJobConfig jc;
    jc.app = "app";
    jc.total_work = 1e9;
    wl::SparkJob job(&rig.cluster, jc);
    job.start(0);
    job.setWorkers(5);
    DynamicSparkBatteryPolicy policy(&rig.eco, &job, policyConfig());
    // Midnight tick: all workers killed (uncommitted work lost).
    for (TimeS t = 0; t < 300; t += 60)
        job.onTick(t, 60);
    policy.onTick(300, 60);
    EXPECT_EQ(job.workers(), 0);
    EXPECT_GT(job.lostWork(), 0.0);
}

TEST(DynamicWebBatteryPolicy, TracksLoadWithinEnvelope)
{
    Rig rig;
    auto trace = wl::RequestTrace({{0, 200.0}}, 24 * 3600);
    wl::WebAppConfig wc;
    wc.app = "app";
    wc.worker_capacity_rps = 40.0;
    wc.slo_p95_ms = 100.0;
    wc.max_workers = 32;
    wl::WebApplication app(&rig.cluster, &trace, wc);
    app.start(1);
    DynamicWebBatteryPolicy policy(&rig.eco, &app, policyConfig());

    // Daylight: enough zero-carbon power for the needed workers.
    rig.eco.settleTick(7 * 3600 - 60, 60);
    policy.onTick(7 * 3600, 60);
    int day_workers = app.workers();
    EXPECT_GE(day_workers, 5); // needs ~5 for 200 rps at 100 ms SLO
    // Envelope bound: solar 40 + battery 5 = 45 W -> at most 36.
    EXPECT_LE(day_workers, 36);

    // Night: dormant at the minimum.
    rig.eco.settleTick(20 * 3600 - 60, 60);
    policy.onTick(20 * 3600, 60);
    EXPECT_EQ(app.workers(), wc.min_workers);
}

TEST(BatteryPolicies, InvalidConstructionFatal)
{
    Rig rig;
    EXPECT_THROW(StaticBatteryPolicy(nullptr, "app", [](int) {},
                                     policyConfig()),
                 FatalError);
    EXPECT_THROW(StaticBatteryPolicy(&rig.eco, "app", nullptr,
                                     policyConfig()),
                 FatalError);
    BatteryPolicyConfig bad = policyConfig();
    bad.per_worker_w = 0.0;
    EXPECT_THROW(StaticBatteryPolicy(&rig.eco, "app", [](int) {}, bad),
                 FatalError);
}

} // namespace
} // namespace ecov::policy
