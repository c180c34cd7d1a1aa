/**
 * @file
 * End-to-end integration tests: full Simulation + Ecovisor + workload
 * + policy stacks running reduced versions of the paper's Section 5
 * scenarios, asserting the qualitative orderings the figures show.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/scenarios.h"

#include "carbon/region_traces.h"
#include "core/ecolib.h"
#include "core/ecovisor.h"
#include "policies/battery_policies.h"
#include "policies/carbon_budget.h"
#include "policies/carbon_reduction.h"
#include "policies/solar_cap.h"
#include "sim/simulation.h"
#include "workloads/batch_job.h"
#include "workloads/spark_job.h"
#include "workloads/straggler_job.h"
#include "workloads/web_application.h"

namespace ecov {
namespace {

using namespace ecov::core;
using namespace ecov::policy;
using namespace ecov::wl;

/**
 * §5.1 scenario (Figure 4): batch jobs under carbon-reduction
 * policies, averaged over random arrivals via the shared bench
 * runner (the paper runs each configuration ten times).
 */
bench::BatchAggregate
runAggregate(bench::BatchPolicyKind kind, double scale, double pct,
             const BatchJobConfig &job)
{
    bench::BatchRunConfig run;
    run.kind = kind;
    run.scale = scale;
    run.threshold_pct = pct;
    run.trace_seed = 11;
    return bench::aggregateBatchRuns(job, run, 5, 7);
}

TEST(Fig4Scenario, PolicyOrderingsHold)
{
    // ML-like job long enough (8 h at base scale) that no single
    // clean window can absorb it: 4 base workers, sync-limited.
    BatchJobConfig cfg = mlTrainingConfig("ml", 4.0 * 8.0 * 3600.0);

    auto agnostic =
        runAggregate(bench::BatchPolicyKind::Agnostic, 1.0, 30.0, cfg);
    auto suspend = runAggregate(bench::BatchPolicyKind::SuspendResume,
                                1.0, 30.0, cfg);
    auto ws2 = runAggregate(bench::BatchPolicyKind::WaitAndScale, 2.0,
                            30.0, cfg);

    // Figure 4 orderings (means over arrivals): agnostic is fastest
    // and dirtiest.
    EXPECT_LT(agnostic.mean_runtime_h, suspend.mean_runtime_h);
    EXPECT_LT(agnostic.mean_runtime_h, ws2.mean_runtime_h);
    EXPECT_GT(agnostic.mean_carbon_g, suspend.mean_carbon_g);
    EXPECT_GT(agnostic.mean_carbon_g, ws2.mean_carbon_g);
    // W&S(2x) recovers most of suspend-resume's runtime penalty.
    EXPECT_LT(ws2.mean_runtime_h, suspend.mean_runtime_h);
}

TEST(Fig4Scenario, BlastScalesFurtherThanMl)
{
    BatchJobConfig ml = mlTrainingConfig("ml", 4.0 * 6.0 * 3600.0);
    BatchJobConfig blast = blastConfig("blast", 8.0 * 6.0 * 3600.0);

    auto ml2 = runAggregate(bench::BatchPolicyKind::WaitAndScale, 2.0,
                            30.0, ml);
    auto ml3 = runAggregate(bench::BatchPolicyKind::WaitAndScale, 3.0,
                            30.0, ml);
    auto bl2 = runAggregate(bench::BatchPolicyKind::WaitAndScale, 2.0,
                            33.0, blast);
    auto bl3 = runAggregate(bench::BatchPolicyKind::WaitAndScale, 3.0,
                            33.0, blast);

    // BLAST (near-linear to 3x) gains more from 2->3x than ML does.
    double ml_gain = (ml2.mean_runtime_h - ml3.mean_runtime_h) /
                     ml2.mean_runtime_h;
    double bl_gain = (bl2.mean_runtime_h - bl3.mean_runtime_h) /
                     bl2.mean_runtime_h;
    EXPECT_GT(bl_gain, ml_gain);
}

/**
 * §5.2 scenario (Figure 6): web app under static rate vs dynamic
 * budget, with a late high-carbon/high-load overlap.
 */
struct WebResult
{
    int slo_violations;
    double carbon_g;
};

WebResult
runWebScenario(bool dynamic_budget)
{
    carbon::TraceCarbonSignal signal = carbon::makeRegionTrace(
        carbon::californiaProfile(), 2, 21);
    energy::GridConnection grid(&signal);
    cop::Cluster cluster(32, power::ServerPowerConfig{4, 1.35, 5.0, 0.0});
    energy::PhysicalEnergySystem phys(&grid, nullptr, std::nullopt);
    Ecovisor eco(&cluster, &phys);
    const api::AppHandle web = eco.tryAddApp("web", AppShareConfig{}).value();

    auto trace = makeRequestTrace(webApp1Workload(), 31);
    WebAppConfig wc;
    wc.app = "web";
    wc.slo_p95_ms = 60.0;
    wc.max_workers = 32;
    WebApplication app(&cluster, &trace, wc);

    const double rate = 6.0e-4; // g/s (generous at typical intensity)
    const TimeS horizon = 2 * 24 * 3600;

    StaticCarbonRatePolicy st(&eco, &app, rate);
    DynamicCarbonBudgetPolicy dy(&eco, &app, rate, horizon);

    sim::Simulation simul(60);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            if (dynamic_budget)
                dy.onTick(t, dt);
            else
                st.onTick(t, dt);
        },
        sim::TickPhase::Policy);
    simul.addListener([&](TimeS t, TimeS dt) { app.onTick(t, dt); },
                      sim::TickPhase::Workload);
    eco.attach(simul);

    app.start(4);
    simul.runUntil(horizon);
    return WebResult{app.sloViolations(), eco.ves(web)->totalCarbonG()};
}

TEST(Fig6Scenario, DynamicBudgetingBeatsStaticRate)
{
    auto st = runWebScenario(false);
    auto dy = runWebScenario(true);
    // The dynamic policy holds the SLO (almost) everywhere...
    EXPECT_LT(dy.slo_violations, std::max(1, st.slo_violations / 4));
    // ...and emits less carbon overall (paper: ~23 % less).
    EXPECT_LT(dy.carbon_g, st.carbon_g);
}

/**
 * §5.3 scenario (Figure 8): Spark on solar + virtual battery, static
 * vs dynamic policy. Returns completion time.
 */
TimeS
runSparkScenario(bool dynamic)
{
    carbon::TraceCarbonSignal signal({{0, 200.0}});
    energy::GridConnection grid(&signal);
    energy::SolarTraceConfig sc;
    sc.peak_w = 60.0;
    sc.cloudiness = 0.2;
    sc.days = 6;
    auto solar = energy::makeSolarTrace(sc, 17);
    cop::Cluster cluster(32, power::ServerPowerConfig{4, 1.35, 5.0, 0.0});
    energy::PhysicalEnergySystem phys(&grid, &solar,
                                      energy::BatteryConfig{});
    Ecovisor eco(&cluster, &phys);

    AppShareConfig share;
    share.solar_fraction = 1.0;
    energy::BatteryConfig b;
    b.capacity_wh = 200.0;
    b.max_charge_w = 50.0;
    b.max_discharge_w = 200.0;
    b.initial_soc = 0.5;
    share.battery = b;
    eco.tryAddApp("spark", share).value();

    SparkJobConfig jc;
    jc.app = "spark";
    jc.total_work = 10.0 * 12.0 * 3600.0; // 10 worker-half-days
    jc.checkpoint_interval_s = 900;
    jc.max_workers = 48;
    SparkJob job(&cluster, jc);

    BatteryPolicyConfig pc;
    pc.guaranteed_power_w = 5.0;
    pc.per_worker_w = 1.25;

    StaticBatteryPolicy st(&eco, "spark",
                           [&](int n) { job.setWorkers(n); }, pc);
    DynamicSparkBatteryPolicy dy(&eco, &job, pc);

    sim::Simulation simul(60);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            if (dynamic)
                dy.onTick(t, dt);
            else
                st.onTick(t, dt);
        },
        sim::TickPhase::Policy);
    simul.addListener([&](TimeS t, TimeS dt) { job.onTick(t, dt); },
                      sim::TickPhase::Workload);
    eco.attach(simul);

    job.start(0);
    while (!job.done() && simul.now() < 6LL * 24 * 3600)
        simul.step();
    return job.done() ? job.completionTime() : simul.now();
}

TEST(Fig8Scenario, DynamicSparkPolicyFinishesFaster)
{
    TimeS st = runSparkScenario(false);
    TimeS dy = runSparkScenario(true);
    EXPECT_LT(dy, st);
    // The paper reports ~39 % runtime reduction; accept a broad band.
    double reduction = 1.0 - static_cast<double>(dy) /
                             static_cast<double>(st);
    EXPECT_GT(reduction, 0.10);
}

TEST(Fig8Scenario, ZeroCarbonMaintained)
{
    // The Spark scenario never touches the grid: its policies size
    // workers within the solar + battery envelope.
    carbon::TraceCarbonSignal signal({{0, 200.0}});
    energy::GridConnection grid(&signal);
    energy::SolarTraceConfig sc;
    sc.peak_w = 60.0;
    sc.days = 2;
    auto solar = energy::makeSolarTrace(sc, 17);
    cop::Cluster cluster(32, power::ServerPowerConfig{4, 1.35, 5.0, 0.0});
    energy::PhysicalEnergySystem phys(&grid, &solar,
                                      energy::BatteryConfig{});
    Ecovisor eco(&cluster, &phys);
    AppShareConfig share;
    share.solar_fraction = 1.0;
    energy::BatteryConfig b;
    b.capacity_wh = 200.0;
    b.max_charge_w = 50.0;
    b.max_discharge_w = 200.0;
    b.initial_soc = 0.5;
    share.battery = b;
    const api::AppHandle spark = eco.tryAddApp("spark", share).value();

    SparkJobConfig jc;
    jc.app = "spark";
    jc.total_work = 1e9;
    jc.max_workers = 8; // 10 W max against a 60 W solar peak
    SparkJob job(&cluster, jc);
    BatteryPolicyConfig pc;
    pc.guaranteed_power_w = 4.0;
    pc.per_worker_w = 1.25;
    DynamicSparkBatteryPolicy dy(&eco, &job, pc);

    sim::Simulation simul(60);
    simul.addListener([&](TimeS t, TimeS dt) { dy.onTick(t, dt); },
                      sim::TickPhase::Policy);
    simul.addListener([&](TimeS t, TimeS dt) { job.onTick(t, dt); },
                      sim::TickPhase::Workload);
    eco.attach(simul);
    job.start(0);
    simul.runUntil(2 * 24 * 3600);

    // Grid draw should be negligible relative to total consumption.
    double grid_share = eco.ves(spark)->totalGridWh() /
                        std::max(1e-9, eco.ves(spark)->totalEnergyWh());
    EXPECT_LT(grid_share, 0.05);
}

/** §5.4 scenario (Figures 10-11) with the full stack. */
TEST(Fig10Scenario, DynamicCapsBeatStaticAtLowSolar)
{
    auto runWith = [](bool dynamic, double solar_w) {
        carbon::TraceCarbonSignal signal({{0, 200.0}});
        energy::GridConnection grid(&signal);
        energy::SolarArray solar({{0, solar_w}}, 24 * 3600);
        cop::Cluster cluster(24,
                             power::ServerPowerConfig{4, 1.35, 5.0, 0.0});
        energy::PhysicalEnergySystem phys(&grid, &solar, std::nullopt);
        Ecovisor eco(&cluster, &phys);
        AppShareConfig share;
        share.solar_fraction = 1.0;
        eco.tryAddApp("par", share).value();

        StragglerJobConfig cfg;
        cfg.app = "par";
        cfg.workers = 10;
        cfg.rounds = 4;
        cfg.round_work = 300.0;
        cfg.straggler_prob = 0.3;
        cfg.straggler_rate = 0.5;
        cfg.seed = 31;
        StragglerJob job(&cluster, cfg);
        StaticSolarCapPolicy st(&eco, &job);
        DynamicSolarCapPolicy dy(&eco, &job);

        sim::Simulation simul(60);
        simul.addListener(
            [&](TimeS t, TimeS dt) {
                if (dynamic)
                    dy.onTick(t, dt);
                else
                    st.onTick(t, dt);
            },
            sim::TickPhase::Policy);
        simul.addListener([&](TimeS t, TimeS dt) { job.onTick(t, dt); },
                          sim::TickPhase::Workload);
        eco.attach(simul);
        job.start(0);
        while (!job.done() && simul.now() < 10LL * 24 * 3600)
            simul.step();
        return job.completionTime();
    };

    // Power-constrained regime: dynamic rebalancing wins.
    EXPECT_LT(runWith(true, 8.0), runWith(false, 8.0));
}

} // namespace
} // namespace ecov
