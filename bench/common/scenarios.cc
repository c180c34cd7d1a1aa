#include "common/scenarios.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "carbon/region_traces.h"
#include "core/ecolib.h"
#include "core/ecovisor.h"
#include "policies/battery_policies.h"
#include "policies/carbon_budget.h"
#include "policies/carbon_reduction.h"
#include "policies/solar_cap.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workloads/spark_job.h"
#include "workloads/straggler_job.h"
#include "workloads/web_application.h"

namespace ecov::bench {

namespace {

using core::AppShareConfig;
using core::Ecovisor;

/** Copy a telemetry series out of a (soon to be destroyed) store. */
Series
copySeries(const ts::TimeSeries &ts)
{
    Series out;
    out.reserve(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
        const auto s = ts.sample(i);
        out.emplace_back(s.time_s, s.value);
    }
    return out;
}

power::ServerPowerConfig
microserver()
{
    return power::ServerPowerConfig{4, 1.35, 5.0, 0.0};
}

} // namespace

// ---------------------------------------------------------------------
// Figures 4 and 5.
// ---------------------------------------------------------------------

BatchRunResult
runBatchScenario(const wl::BatchJobConfig &job_config,
                 const BatchRunConfig &run, const ScenarioTuning &tuning)
{
    auto signal = carbon::makeCaisoLikeTrace(8, run.trace_seed);
    energy::GridConnection grid(&signal);
    cop::Cluster cluster(32, microserver());
    energy::PhysicalEnergySystem phys(&grid, nullptr, std::nullopt);
    Ecovisor eco(&cluster, &phys);
    const api::AppHandle app_h =
        eco.tryAddApp(job_config.app, AppShareConfig{}).value();

    wl::BatchJob job(&cluster, job_config);

    // Threshold over a 48 h window starting at the arrival, as in the
    // paper's experimental setup.
    double threshold = signal.intensityPercentile(
        run.threshold_pct, run.arrival_s % signal.period(),
        run.arrival_s % signal.period() + 48 * 3600);

    std::unique_ptr<policy::BatchPolicy> pol;
    switch (run.kind) {
      case BatchPolicyKind::Agnostic:
        pol = std::make_unique<policy::CarbonAgnosticPolicy>(&eco, &job);
        break;
      case BatchPolicyKind::SuspendResume:
        pol = std::make_unique<policy::SuspendResumePolicy>(&eco, &job,
                                                            threshold);
        break;
      case BatchPolicyKind::WaitAndScale:
        pol = std::make_unique<policy::WaitAndScalePolicy>(
            &eco, &job, threshold, run.scale);
        break;
    }

    sim::Simulation simul(tuning.tick_s, run.arrival_s);
    simul.addListener([&](TimeS t, TimeS dt) { pol->onTick(t, dt); },
                      sim::TickPhase::Policy);
    simul.addListener([&](TimeS t, TimeS dt) { job.onTick(t, dt); },
                      sim::TickPhase::Workload);
    eco.attach(simul);

    job.start(run.arrival_s);
    const TimeS deadline = run.arrival_s + run.horizon_s;
    while (!job.done() && simul.now() < deadline)
        simul.step();

    BatchRunResult result;
    result.completed = job.done();
    result.runtime_s = job.done() ? job.runtime()
                                  : simul.now() - run.arrival_s;
    result.carbon_g = eco.ves(app_h)->totalCarbonG();
    return result;
}

BatchAggregate
aggregateBatchRuns(const wl::BatchJobConfig &job, BatchRunConfig run,
                   int runs, std::uint64_t arrival_seed,
                   const ScenarioTuning &tuning)
{
    Rng rng(arrival_seed);
    RunningStats runtime_h, carbon_g;
    for (int i = 0; i < runs; ++i) {
        run.arrival_s = rng.uniformInt(0, 4 * 24 * 3600);
        auto r = runBatchScenario(job, run, tuning);
        runtime_h.add(static_cast<double>(r.runtime_s) / 3600.0);
        carbon_g.add(r.carbon_g);
    }
    return BatchAggregate{runtime_h.mean(), runtime_h.stddev(),
                          carbon_g.mean(), carbon_g.stddev()};
}

MultiTenantBatchResult
runMultiTenantBatch(std::uint64_t seed, const ScenarioTuning &tuning)
{
    // Short horizon: half the trace and horizon, quarter-size jobs —
    // both jobs still pause and resume at least once.
    const int days = tuning.short_horizon ? 2 : 4;
    const double work_scale = tuning.short_horizon ? 0.25 : 1.0;

    auto signal = carbon::makeCaisoLikeTrace(days, seed);
    energy::GridConnection grid(&signal);
    cop::Cluster cluster(48, microserver());
    energy::PhysicalEnergySystem phys(&grid, nullptr, std::nullopt);
    Ecovisor eco(&cluster, &phys);
    eco.tryAddApp("ml", AppShareConfig{}).value();
    eco.tryAddApp("blast", AppShareConfig{}).value();

    auto ml_cfg =
        wl::mlTrainingConfig("ml", 4.0 * 5.0 * 3600.0 * work_scale);
    auto blast_cfg =
        wl::blastConfig("blast", 8.0 * 3.0 * 3600.0 * work_scale);
    wl::BatchJob ml(&cluster, ml_cfg);
    wl::BatchJob blast(&cluster, blast_cfg);

    double ml_thr = signal.intensityPercentile(30.0, 0, 48 * 3600);
    double blast_thr = signal.intensityPercentile(33.0, 0, 48 * 3600);
    policy::WaitAndScalePolicy ml_pol(&eco, &ml, ml_thr, 2.0);
    policy::WaitAndScalePolicy blast_pol(&eco, &blast, blast_thr, 3.0);

    sim::Simulation simul(tuning.tick_s);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            if (!ml.done())
                ml_pol.onTick(t, dt);
            if (!blast.done())
                blast_pol.onTick(t, dt);
        },
        sim::TickPhase::Policy);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            ml.onTick(t, dt);
            blast.onTick(t, dt);
        },
        sim::TickPhase::Workload);
    eco.attach(simul);

    ml.start(0);
    blast.start(0);
    while ((!ml.done() || !blast.done()) &&
           simul.now() < static_cast<TimeS>(days) * 24 * 3600)
        simul.step();

    MultiTenantBatchResult out;
    out.carbon_signal = copySeries(eco.db().series("grid_carbon"));
    out.ml_containers = copySeries(eco.db().series("app_containers", "ml"));
    out.blast_containers =
        copySeries(eco.db().series("app_containers", "blast"));
    out.cluster_power_w = copySeries(eco.db().series("cluster_power_w"));
    out.ml_threshold = ml_thr;
    out.blast_threshold = blast_thr;
    return out;
}

// ---------------------------------------------------------------------
// Figures 6 and 7.
// ---------------------------------------------------------------------

WebBudgetResult
runWebBudgetScenario(bool dynamic_budget, std::uint64_t seed,
                     const ScenarioTuning &tuning)
{
    // Short horizon: one diurnal cycle instead of two.
    const int days = tuning.short_horizon ? 1 : 2;

    auto signal =
        carbon::makeRegionTrace(carbon::californiaProfile(), days, seed);
    energy::GridConnection grid(&signal);
    cop::Cluster cluster(32, microserver());
    energy::PhysicalEnergySystem phys(&grid, nullptr, std::nullopt);
    Ecovisor eco(&cluster, &phys);
    const api::AppHandle web1_h =
        eco.tryAddApp("web1", AppShareConfig{}).value();
    const api::AppHandle web2_h =
        eco.tryAddApp("web2", AppShareConfig{}).value();

    auto trace1 = wl::makeRequestTrace(wl::webApp1Workload(), seed + 1);
    auto trace2 = wl::makeRequestTrace(wl::webApp2Workload(), seed + 2);

    wl::WebAppConfig wc1;
    wc1.app = "web1";
    wc1.slo_p95_ms = 60.0;
    wc1.max_workers = 32;
    wl::WebAppConfig wc2 = wc1;
    wc2.app = "web2";
    wc2.slo_p95_ms = 70.0;

    wl::WebApplication app1(&cluster, &trace1, wc1);
    wl::WebApplication app2(&cluster, &trace2, wc2);

    // The paper uses 20 mgCO2/s on its testbed; our microserver-scale
    // cluster draws ~40 W at saturation, so the binding equivalent is
    // ~0.8 mg/s per application: generous at typical intensity (the
    // static policy over-provisions when carbon is cheap) but binding
    // during the evening carbon ramp.
    const double rate = 0.8e-3;
    const TimeS horizon = static_cast<TimeS>(days) * 24 * 3600;

    policy::StaticCarbonRatePolicy st1(&eco, &app1, rate);
    policy::StaticCarbonRatePolicy st2(&eco, &app2, rate);
    policy::DynamicCarbonBudgetPolicy dy1(&eco, &app1, rate, horizon);
    policy::DynamicCarbonBudgetPolicy dy2(&eco, &app2, rate, horizon);

    Series rate1, rate2, load1, load2;

    sim::Simulation simul(tuning.tick_s);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            if (dynamic_budget) {
                dy1.onTick(t, dt);
                dy2.onTick(t, dt);
            } else {
                st1.onTick(t, dt);
                st2.onTick(t, dt);
            }
        },
        sim::TickPhase::Policy);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            app1.onTick(t, dt);
            app2.onTick(t, dt);
            load1.emplace_back(t, app1.offeredLoad(t));
            load2.emplace_back(t, app2.offeredLoad(t));
        },
        sim::TickPhase::Workload);
    eco.attach(simul);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            const auto &s1 = eco.ves(web1_h)->lastSettlement();
            const auto &s2 = eco.ves(web2_h)->lastSettlement();
            rate1.emplace_back(t, s1.carbon_g / static_cast<double>(dt));
            rate2.emplace_back(t, s2.carbon_g / static_cast<double>(dt));
        },
        sim::TickPhase::Telemetry);

    app1.start(4);
    app2.start(4);
    simul.runUntil(horizon);

    WebBudgetResult out;
    out.carbon_signal = copySeries(eco.db().series("grid_carbon"));
    out.target_rate_g_s = rate;

    auto fill = [&](wl::WebApplication &app, Series rate_series,
                    Series load_series, const std::string &name,
                    api::AppHandle h) {
        WebAppMeasurements m;
        for (const auto &p : app.latencyLog())
            m.latency_p95_ms.emplace_back(p.first, p.second);
        m.workers = copySeries(eco.db().series("app_containers", name));
        m.carbon_rate_g_s = std::move(rate_series);
        m.workload_rps = std::move(load_series);
        m.slo_violations = app.sloViolations();
        m.carbon_g = eco.ves(h)->totalCarbonG();
        return m;
    };
    out.app1 =
        fill(app1, std::move(rate1), std::move(load1), "web1", web1_h);
    out.app2 =
        fill(app2, std::move(rate2), std::move(load2), "web2", web2_h);
    return out;
}

// ---------------------------------------------------------------------
// Figures 8 and 9.
// ---------------------------------------------------------------------

BatteryScenarioResult
runBatteryScenario(bool dynamic, std::uint64_t seed,
                   const ScenarioTuning &tuning)
{
    // Short horizon: two solar days instead of three, and a Spark job
    // scaled so it still finishes within the window under the static
    // policy (keeping the runtime-reduction metric meaningful).
    const int days = tuning.short_horizon ? 2 : 3;
    const double work_scale = tuning.short_horizon ? 0.5 : 1.0;

    carbon::TraceCarbonSignal signal({{0, 250.0}});
    energy::GridConnection grid(&signal);

    energy::SolarTraceConfig sc;
    sc.peak_w = 80.0; // cluster-level solar (split between the apps)
    sc.cloudiness = 0.25;
    sc.days = days;
    auto solar = energy::makeSolarTrace(sc, seed);

    cop::Cluster cluster(32, microserver());
    energy::BatteryConfig phys_batt;
    phys_batt.capacity_wh = 400.0;
    phys_batt.max_charge_w = 100.0;
    phys_batt.max_discharge_w = 400.0;
    energy::PhysicalEnergySystem phys(&grid, &solar, phys_batt);
    Ecovisor eco(&cluster, &phys);

    // Equal split of solar and battery (Figure 8a).
    auto share = [](double frac) {
        AppShareConfig s;
        s.solar_fraction = frac;
        energy::BatteryConfig b;
        b.capacity_wh = 200.0;
        b.max_charge_w = 50.0;
        b.max_discharge_w = 200.0;
        b.initial_soc = 0.60;
        s.battery = b;
        return s;
    };
    const api::AppHandle spark_h =
        eco.tryAddApp("spark", share(0.5)).value();
    const api::AppHandle web_h = eco.tryAddApp("web", share(0.5)).value();

    wl::SparkJobConfig jc;
    jc.app = "spark";
    jc.total_work = 12.0 * 10.0 * 3600.0 * work_scale;
    jc.checkpoint_interval_s = 900;
    jc.max_workers = 48;
    wl::SparkJob spark(&cluster, jc);

    // Monitoring workload: strictly day-time (the app logs solar
    // generation, so it is dormant at night — §5.3.1). Build the
    // trace from a solar-shaped bell plus noise.
    std::vector<wl::RequestTrace::Point> wl_pts;
    {
        Rng wl_rng(seed + 7);
        const TimeS day = 24 * 3600;
        for (TimeS t = 0; t < days * day; t += 60) {
            double hour = static_cast<double>(t % day) / 3600.0;
            double rate = 0.2; // dormant baseline
            if (hour > 6.5 && hour < 17.5) {
                double x = (hour - 6.5) / 11.0;
                rate = 230.0 * std::sin(x * 3.14159265) +
                       wl_rng.gaussian(0.0, 12.0);
                rate = std::max(0.2, rate);
            }
            wl_pts.push_back({t, rate});
        }
    }
    wl::RequestTrace trace(std::move(wl_pts),
                           static_cast<TimeS>(days) * 24 * 3600);
    wl::WebAppConfig wc;
    wc.app = "web";
    wc.worker_capacity_rps = 40.0;
    wc.slo_p95_ms = 100.0;
    wc.max_workers = 24;
    wl::WebApplication web(&cluster, &trace, wc);

    policy::BatteryPolicyConfig pc;
    pc.guaranteed_power_w = 5.0;
    pc.per_worker_w = 1.25;

    policy::StaticBatteryPolicy spark_static(
        &eco, "spark", [&](int n) { spark.setWorkers(n); }, pc);
    policy::StaticBatteryPolicy web_static(
        &eco, "web", [&](int n) { web.setWorkers(std::max(1, n)); }, pc);
    policy::DynamicSparkBatteryPolicy spark_dynamic(&eco, &spark, pc);
    policy::DynamicWebBatteryPolicy web_dynamic(&eco, &web, pc);

    Series spark_workers, web_workers, spark_batt_w, web_batt_w;

    sim::Simulation simul(tuning.tick_s);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            if (dynamic) {
                if (!spark.done())
                    spark_dynamic.onTick(t, dt);
                web_dynamic.onTick(t, dt);
            } else {
                if (!spark.done())
                    spark_static.onTick(t, dt);
                web_static.onTick(t, dt);
            }
        },
        sim::TickPhase::Policy);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            spark.onTick(t, dt);
            web.onTick(t, dt);
        },
        sim::TickPhase::Workload);
    eco.attach(simul);
    simul.addListener(
        [&](TimeS t, TimeS) {
            spark_workers.emplace_back(t, spark.workers());
            web_workers.emplace_back(t, web.workers());
            const auto &ss = eco.ves(spark_h)->lastSettlement();
            const auto &ws = eco.ves(web_h)->lastSettlement();
            spark_batt_w.emplace_back(
                t, ss.batt_charge_solar_w + ss.batt_charge_grid_w -
                       ss.batt_discharge_w);
            web_batt_w.emplace_back(
                t, ws.batt_charge_solar_w + ws.batt_charge_grid_w -
                       ws.batt_discharge_w);
        },
        sim::TickPhase::Telemetry);

    spark.start(0);
    web.start(1);
    simul.runUntil(static_cast<TimeS>(days) * 24 * 3600);

    BatteryScenarioResult out;
    out.solar_w = copySeries(eco.db().series("solar_w"));
    for (TimeS t = 0; t < static_cast<TimeS>(days) * 24 * 3600; t += 300)
        out.web_workload.emplace_back(t, trace.rateAt(t));
    out.spark_workers = std::move(spark_workers);
    out.web_workers = std::move(web_workers);
    for (const auto &p : web.latencyLog())
        out.web_latency_ms.emplace_back(p.first, p.second);
    out.spark_soc = copySeries(eco.db().series("app_batt_soc", "spark"));
    out.web_soc = copySeries(eco.db().series("app_batt_soc", "web"));
    out.spark_batt_w = std::move(spark_batt_w);
    out.web_batt_w = std::move(web_batt_w);
    out.spark_completed = spark.done();
    out.spark_runtime_s =
        spark.done() ? spark.completionTime() : simul.now();
    out.web_slo_violations = web.sloViolations();
    out.total_grid_wh = eco.ves(spark_h)->totalGridWh() +
                        eco.ves(web_h)->totalGridWh();
    return out;
}

// ---------------------------------------------------------------------
// Figures 10 and 11.
// ---------------------------------------------------------------------

SolarCapResult
runSolarCapScenario(SolarPolicyKind kind, double solar_fraction_pct,
                    std::uint64_t seed, bool inject_stragglers,
                    const ScenarioTuning &tuning)
{
    // The trace doubles as the completion deadline; the job normally
    // finishes within a day or two, so the short trace stays generous.
    const int days = tuning.short_horizon ? 10 : 30;

    carbon::TraceCarbonSignal signal({{0, 250.0}});
    energy::GridConnection grid(&signal);

    energy::SolarTraceConfig sc;
    // Nominal (100 %) peak is ~1.8x the job's full-power draw
    // (10 workers x 1.25 W), mirroring Figure 10(a)'s trace, whose
    // peak comfortably exceeds the 10 nodes' maximum power.
    sc.peak_w = 22.5;
    sc.cloudiness = 0.15;
    sc.days = days;
    auto solar = energy::makeSolarTrace(sc, seed);
    solar.setScale(solar_fraction_pct / 100.0);

    cop::Cluster cluster(24, microserver());
    energy::PhysicalEnergySystem phys(&grid, &solar, std::nullopt);
    Ecovisor eco(&cluster, &phys);
    AppShareConfig share;
    share.solar_fraction = 1.0;
    const api::AppHandle par_h = eco.tryAddApp("par", share).value();

    // Sized so the job fits within one day's daylight at every sweep
    // point, as the paper's single-day experiment does — otherwise
    // overnight idling would dominate both runtime and energy.
    wl::StragglerJobConfig jc;
    jc.app = "par";
    jc.workers = 10;
    // The straggler-mitigation variant runs a longer job so that it
    // is still in flight when midday excess solar appears.
    jc.rounds = inject_stragglers ? 4 : 3;
    if (tuning.short_horizon)
        jc.rounds -= 1;
    jc.round_work = inject_stragglers ? 900.0 : 700.0;
    jc.straggler_prob = inject_stragglers ? 0.3 : 0.25;
    jc.straggler_rate = inject_stragglers ? 0.5 : 0.6;
    jc.seed = seed + 3;
    wl::StragglerJob job(&cluster, jc);

    policy::StaticSolarCapPolicy st(&eco, &job);
    policy::DynamicSolarCapPolicy dy(&eco, &job);
    policy::StragglerMitigationPolicy mi(&eco, &job);

    Series mean_caps;

    sim::Simulation simul(tuning.tick_s, 6 * 3600); // start at sunrise
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            switch (kind) {
              case SolarPolicyKind::StaticCaps:
                st.onTick(t, dt);
                break;
              case SolarPolicyKind::DynamicCaps:
                dy.onTick(t, dt);
                break;
              case SolarPolicyKind::StragglerMitigation:
                mi.onTick(t, dt);
                break;
            }
        },
        sim::TickPhase::Policy);
    simul.addListener([&](TimeS t, TimeS dt) { job.onTick(t, dt); },
                      sim::TickPhase::Workload);
    eco.attach(simul);
    const cop::AppIndex par_cop = eco.copAppIndex(par_h);
    simul.addListener(
        [&](TimeS t, TimeS) {
            const int count = cluster.appContainerCount(par_cop);
            if (count == 0)
                return;
            double sum = 0.0;
            cluster.forEachAppContainer(
                par_cop, [&](cop::ContainerId id, cop::ContainerRef ref) {
                    const double cap =
                        eco.getContainerPowercap(api::ContainerHandle(ref))
                            .value();
                    sum += std::isfinite(cap)
                               ? cap
                               : cluster.maxContainerPowerW(id);
                });
            mean_caps.emplace_back(t,
                                   sum / static_cast<double>(count));
        },
        sim::TickPhase::Telemetry);

    job.start(6 * 3600);
    const TimeS deadline = static_cast<TimeS>(days) * 24 * 3600;
    while (!job.done() && simul.now() < deadline)
        simul.step();

    SolarCapResult out;
    out.completed = job.done();
    out.runtime_s = job.done() ? job.completionTime() - job.startTime()
                               : simul.now() - job.startTime();
    out.energy_wh = eco.ves(par_h)->totalEnergyWh();
    out.useful_work = static_cast<double>(jc.rounds) *
                      static_cast<double>(jc.workers) * jc.round_work;
    out.solar_w = copySeries(eco.db().series("solar_w"));
    out.container_caps_w = std::move(mean_caps);
    out.replicas = job.replicasIssued();
    return out;
}

} // namespace ecov::bench
