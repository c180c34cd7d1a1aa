/**
 * @file
 * Carbon budgeting policy tests (§5.2): static rate limiting vs
 * dynamic budgeting under controlled carbon/load patterns.
 */

#include <gtest/gtest.h>

#include "carbon/carbon_signal.h"
#include "common/rig.h"
#include "core/ecovisor.h"
#include "policies/carbon_budget.h"
#include "util/logging.h"
#include "workloads/web_application.h"

namespace ecov::policy {
namespace {

/** 32-node grid-only rig (no solar, no bank) driven by `sig`. */
struct Rig : testutil::Rig
{
    explicit Rig(carbon::TraceCarbonSignal sig)
        : testutil::Rig([&] {
              testutil::RigOptions o;
              o.signal_points = sig.points();
              o.signal_period = sig.period();
              o.use_solar = false;
              o.nodes = 32;
              o.physical_battery = std::nullopt;
              return o;
          }())
    {
        core::AppShareConfig share;
        web = eco.tryAddApp("web", share).value();
    }

    api::AppHandle web;
};

wl::WebAppConfig
webConfig()
{
    wl::WebAppConfig cfg;
    cfg.app = "web";
    cfg.worker_capacity_rps = 40.0;
    cfg.slo_p95_ms = 60.0;
    cfg.max_workers = 32;
    return cfg;
}

TEST(PerWorkerPower, MatchesModel)
{
    Rig rig(carbon::TraceCarbonSignal({{0, 100.0}}));
    auto trace = wl::RequestTrace({{0, 50.0}}, 3600);
    wl::WebApplication app(&rig.cluster, &trace, webConfig());
    // Before start: derived from the node model (1.25 W per core).
    EXPECT_NEAR(perWorkerPowerW(rig.eco, app), 1.25, 1e-9);
    app.start(2);
    EXPECT_NEAR(perWorkerPowerW(rig.eco, app), 1.25, 1e-9);
}

TEST(StaticCarbonRatePolicy, WorkerCountTracksIntensityInversely)
{
    // Intensity doubles after an hour: allowed workers should halve.
    Rig rig(carbon::TraceCarbonSignal({{0, 100.0}, {3600, 200.0}}));
    auto trace = wl::RequestTrace({{0, 50.0}}, 24 * 3600);
    wl::WebApplication app(&rig.cluster, &trace, webConfig());
    app.start(1);
    // 2.5e-6 g/s at 100 g/kWh -> 0.09 W... use a rate affording ~16
    // workers at 100: 16 workers x 1.25 W = 20 W
    //   rate = 20 W * 100 g/kWh / 3.6e6 = 5.56e-4 g/s.
    StaticCarbonRatePolicy policy(&rig.eco, &app, 5.56e-4);

    policy.onTick(0, 60);
    int low_carbon_workers = app.workers();
    EXPECT_NEAR(low_carbon_workers, 16, 1);

    rig.eco.settleTick(3600 - 60, 60); // move clock into hour 2
    policy.onTick(3600, 60);
    int high_carbon_workers = app.workers();
    EXPECT_NEAR(high_carbon_workers, 8, 1);
    EXPECT_LT(high_carbon_workers, low_carbon_workers);
}

TEST(StaticCarbonRatePolicy, AchievedRateStaysNearLimit)
{
    Rig rig(carbon::TraceCarbonSignal({{0, 150.0}}));
    auto trace = wl::RequestTrace({{0, 100.0}}, 24 * 3600);
    wl::WebApplication app(&rig.cluster, &trace, webConfig());
    app.start(1);
    double rate = 4e-4;
    StaticCarbonRatePolicy policy(&rig.eco, &app, rate);
    TimeS t = 0;
    for (int i = 0; i < 120; ++i) {
        policy.onTick(t, 60);
        app.onTick(t, 60);
        rig.eco.settleTick(t, 60);
        t += 60;
    }
    // Steady state: the app's carbon rate is at or below the limit
    // (floor() on worker count plus partial utilization keep it
    // under), but the provisioned workers are actually used.
    const auto &s = rig.eco.ves(rig.web)->lastSettlement();
    EXPECT_LE(s.carbon_g / 60.0, rate * 1.05);
    EXPECT_GT(s.carbon_g / 60.0, rate * 0.3);
}

TEST(DynamicCarbonBudgetPolicy, ProvisionsForSloWhenCreditsExist)
{
    Rig rig(carbon::TraceCarbonSignal({{0, 100.0}}));
    auto trace = wl::RequestTrace({{0, 200.0}}, 24 * 3600);
    wl::WebApplication app(&rig.cluster, &trace, webConfig());
    app.start(1);
    DynamicCarbonBudgetPolicy policy(&rig.eco, &app, 1e-3, 48 * 3600);
    policy.onTick(0, 60);
    // SLO needs ~7 workers for 200 rps; policy adds one of headroom.
    EXPECT_GE(app.workers(), 7);
    app.onTick(0, 60);
    EXPECT_LE(app.lastP95Ms(), 60.0);
}

TEST(DynamicCarbonBudgetPolicy, UsesFewerWorkersAtLowLoad)
{
    Rig rig(carbon::TraceCarbonSignal({{0, 100.0}}));
    auto trace = wl::RequestTrace({{0, 20.0}}, 24 * 3600);
    wl::WebApplication app(&rig.cluster, &trace, webConfig());
    app.start(8);
    DynamicCarbonBudgetPolicy policy(&rig.eco, &app, 1e-3, 48 * 3600);
    policy.onTick(0, 60);
    // Light load: scales down to SLO-sufficient + 1.
    EXPECT_LE(app.workers(), 3);
}

TEST(DynamicCarbonBudgetPolicy, CreditsAccumulateWhenUnderRate)
{
    Rig rig(carbon::TraceCarbonSignal({{0, 100.0}}));
    auto trace = wl::RequestTrace({{0, 20.0}}, 24 * 3600);
    wl::WebApplication app(&rig.cluster, &trace, webConfig());
    app.start(1);
    DynamicCarbonBudgetPolicy policy(&rig.eco, &app, 1e-3, 48 * 3600);
    TimeS t = 0;
    for (int i = 0; i < 60; ++i) {
        policy.onTick(t, 60);
        app.onTick(t, 60);
        rig.eco.settleTick(t, 60);
        t += 60;
    }
    // Tiny load, generous rate: credits strictly positive and growing.
    EXPECT_GT(policy.creditsG(t), 0.0);
    EXPECT_LT(policy.spentG(), policy.budgetG());
}

TEST(DynamicCarbonBudgetPolicy, ClampsWhenCreditsExhausted)
{
    // High carbon from the start and a tight rate: no credits accrue,
    // so the policy must clamp to rate-limited provisioning.
    Rig rig(carbon::TraceCarbonSignal({{0, 400.0}}));
    auto trace = wl::RequestTrace({{0, 400.0}}, 24 * 3600);
    wl::WebApplication app(&rig.cluster, &trace, webConfig());
    app.start(16);
    double rate = 2e-4; // affords ~1.4 W -> ~1 worker at 400 g/kWh
    DynamicCarbonBudgetPolicy policy(&rig.eco, &app, rate, 48 * 3600);
    TimeS t = 0;
    for (int i = 0; i < 240; ++i) {
        policy.onTick(t, 60);
        app.onTick(t, 60);
        rig.eco.settleTick(t, 60);
        t += 60;
    }
    // Long-run average rate converges to (or below) the target.
    double avg_rate = policy.spentG() / static_cast<double>(t);
    EXPECT_LE(avg_rate, rate * 1.25);
}

TEST(CarbonBudgetPolicies, InvalidConstructionFatal)
{
    Rig rig(carbon::TraceCarbonSignal({{0, 100.0}}));
    auto trace = wl::RequestTrace({{0, 10.0}}, 3600);
    wl::WebApplication app(&rig.cluster, &trace, webConfig());
    EXPECT_THROW(StaticCarbonRatePolicy(nullptr, &app, 1.0), FatalError);
    EXPECT_THROW(StaticCarbonRatePolicy(&rig.eco, nullptr, 1.0),
                 FatalError);
    EXPECT_THROW(StaticCarbonRatePolicy(&rig.eco, &app, 0.0), FatalError);
    EXPECT_THROW(DynamicCarbonBudgetPolicy(&rig.eco, &app, 1.0, 0),
                 FatalError);
}

} // namespace
} // namespace ecov::policy
