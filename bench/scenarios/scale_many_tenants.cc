/**
 * @file
 * Scale scenario: many independent tenants with churning containers.
 *
 * N apps (N in {16, 64, 256}), each owning a small pool of containers
 * that churns deterministically (oldest destroyed, replacement
 * created) under a seeded RNG, run for a fixed horizon. This is the
 * structure the COP hot path must sustain: per-tick settlement walks
 * every app's containers, so an O(apps x containers) substrate melts
 * down exactly here while the slab's per-app index walks stay
 * O(containers). Domain metrics (carbon, container counts, churn
 * totals) are pure functions of (seed, horizon, tick) and participate
 * in the baseline diff; ticks/sec per tenant count is the perf metric
 * the COP overhaul is measured by.
 *
 * Two registered scenarios share the world:
 *
 *  - `scale_many_tenants`: telemetry recording disabled, so the timed
 *    loop is settlement itself (the original COP-overhaul canary).
 *  - `scale_many_tenants_telemetry`: recording ON — the telemetry
 *    pipeline's canary, timing the interned SeriesId path that makes
 *    always-on telemetry affordable at 256 tenants. Sample/series
 *    totals are deterministic domain metrics.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "carbon/carbon_signal.h"
#include "common/registry.h"
#include "core/ecovisor.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/table.h"

namespace ecov::bench {
namespace {

/** One tenant-count configuration of the shared-cluster world. */
struct World
{
    carbon::TraceCarbonSignal signal;
    energy::GridConnection grid;
    energy::SolarArray solar;
    cop::Cluster cluster;
    energy::PhysicalEnergySystem phys;
    core::Ecovisor eco;
    std::vector<std::string> names;
    std::vector<api::AppHandle> apps;
    std::vector<std::vector<cop::ContainerId>> pools;

    World(int tenants, const core::EcovisorOptions &eco_opts)
        : signal({{0, 100.0}, {3600, 300.0}, {7200, 50.0}}, 10800),
          grid(&signal),
          solar({{0, 0.0}, {6 * 3600, 200.0}, {18 * 3600, 0.0}},
                24 * 3600),
          cluster(tenants, power::ServerPowerConfig{8, 1.35, 5.0, 0.0}),
          phys(&grid, &solar, energy::BatteryConfig{}),
          eco(&cluster, &phys, eco_opts)
    {
        const double n = static_cast<double>(tenants);
        names.reserve(static_cast<std::size_t>(tenants));
        pools.resize(static_cast<std::size_t>(tenants));
        for (int a = 0; a < tenants; ++a) {
            char buf[16];
            std::snprintf(buf, sizeof buf, "t%04d", a);
            names.emplace_back(buf);
            core::AppShareConfig share;
            share.solar_fraction = 0.9 / n;
            energy::BatteryConfig b;
            b.capacity_wh = 1440.0 / n;
            b.max_charge_w = 360.0 / n;
            b.max_discharge_w = 1440.0 / n;
            b.initial_soc = 0.5;
            share.battery = b;
            apps.push_back(eco.tryAddApp(names.back(), share).value());
            for (int c = 0; c < 3; ++c) {
                auto id = cluster.createContainer(names.back(), 1.0);
                if (id)
                    pools[static_cast<std::size_t>(a)].push_back(*id);
            }
        }
    }
};

/** One timed run of the churn workload; returns wall seconds. */
double
driveWorld(World &w, const ScenarioOptions &opt, std::int64_t ticks,
           int tenants, std::int64_t *churn_events)
{
    Rng churn(opt.seed + static_cast<std::uint64_t>(tenants));

    sim::Simulation simul(opt.tick_s);
    *churn_events = 0;
    // Workload phase: churn a small fraction of pools, then set
    // every container's demand from cheap deterministic
    // arithmetic keyed by (tenant, pool position, tick) — stable
    // across COP-internal representation changes.
    std::int64_t tick_no = 0;
    simul.addListener(
        [&](TimeS, TimeS) {
            for (std::size_t a = 0; a < w.pools.size(); ++a) {
                auto &pool = w.pools[a];
                if (!pool.empty() && churn.bernoulli(0.05)) {
                    w.cluster.destroyContainer(pool.front());
                    pool.erase(pool.begin());
                    auto id = w.cluster.createContainer(
                        w.names[a], 1.0);
                    if (id)
                        pool.push_back(*id);
                    ++*churn_events;
                }
                for (std::size_t c = 0; c < pool.size(); ++c) {
                    double phase = static_cast<double>(
                        (tick_no * 31 +
                         static_cast<std::int64_t>(a) * 13 +
                         static_cast<std::int64_t>(c) * 7) %
                        97);
                    w.cluster.setDemand(pool[c],
                                        0.2 + 0.6 * phase / 97.0);
                }
            }
            ++tick_no;
        },
        sim::TickPhase::Workload);
    w.eco.attach(simul);

    const auto wall0 = std::chrono::steady_clock::now();
    simul.runTicks(ticks);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - wall0)
        .count();
}

/** Deterministic world summary shared by both scenarios. */
void
recordWorldMetrics(World &w, const std::string &sfx,
                   std::int64_t churn_events, ScenarioOutcome *out,
                   double *carbon_out, int *containers_out)
{
    double carbon_g = 0.0;
    int containers = 0;
    for (const api::AppHandle app : w.apps) {
        carbon_g += w.eco.ves(app)->totalCarbonG();
        containers +=
            w.cluster.appContainerCount(w.eco.copAppIndex(app));
    }
    out->metric("carbon_g" + sfx, carbon_g);
    out->metric("live_containers" + sfx, containers);
    out->metric("churn_events" + sfx,
                static_cast<double>(churn_events));
    *carbon_out = carbon_g;
    *containers_out = containers;
}

ScenarioOutcome
run(const ScenarioOptions &opt)
{
    const std::int64_t ticks =
        opt.horizon == Horizon::Short ? 240 : 2880;

    ScenarioOutcome out;
    out.metric("horizon_ticks", static_cast<double>(ticks));

    TextTable t({"tenants", "containers", "churn_events", "carbon_g",
                 "ticks_per_sec"});
    for (int tenants : {16, 64, 256}) {
        World w(tenants,
                core::EcovisorOptions{core::ExcessSolarPolicy::Curtail,
                                      /*record_telemetry=*/false});
        std::int64_t churn_events = 0;
        const double wall_s =
            driveWorld(w, opt, ticks, tenants, &churn_events);

        const std::string sfx = "_" + std::to_string(tenants);
        double carbon_g = 0.0;
        int containers = 0;
        recordWorldMetrics(w, sfx, churn_events, &out, &carbon_g,
                           &containers);
        const double tps =
            wall_s > 0.0 ? static_cast<double>(ticks) / wall_s : 0.0;
        out.perfMetric("ticks_per_sec" + sfx, tps);
        t.addRow({std::to_string(tenants), std::to_string(containers),
                  std::to_string(churn_events),
                  TextTable::fmt(carbon_g, 2), TextTable::fmt(tps, 0)});
    }

    if (opt.print_figures) {
        std::printf("=== Scale: many tenants, churning containers "
                    "===\n\n");
        t.print();
        std::printf("\nThroughput must grow ~linearly with tenant "
                    "count under the slab substrate; an O(apps x "
                    "containers) walk collapses at 256 tenants.\n");
    }
    return out;
}

ScenarioOutcome
runTelemetry(const ScenarioOptions &opt)
{
    const std::int64_t ticks =
        opt.horizon == Horizon::Short ? 240 : 2880;

    ScenarioOutcome out;
    out.metric("horizon_ticks", static_cast<double>(ticks));

    TextTable t({"tenants", "carbon_g", "series", "samples",
                 "ticks_per_sec"});
    for (int tenants : {16, 64, 256}) {
        // Pre-sized from the known horizon.
        core::EcovisorOptions eco_opts;
        eco_opts.record_telemetry = true;
        eco_opts.expected_ticks = ticks;
        World w(tenants, eco_opts);
        std::int64_t churn_events = 0;
        const double wall_s =
            driveWorld(w, opt, ticks, tenants, &churn_events);

        const std::string sfx = "_" + std::to_string(tenants);
        double carbon_g = 0.0;
        int containers = 0;
        recordWorldMetrics(w, sfx, churn_events, &out, &carbon_g,
                           &containers);

        // The store's shape is a pure function of (seed, horizon):
        // deterministic domain metrics the baseline diff gates.
        std::size_t samples = 0;
        const auto keys = w.eco.db().keys();
        for (const auto &k : keys)
            samples +=
                w.eco.db().series(k.measurement, k.tag).size();
        out.metric("telemetry_series" + sfx,
                   static_cast<double>(w.eco.db().seriesCount()));
        out.metric("telemetry_samples" + sfx,
                   static_cast<double>(samples));

        const double tps =
            wall_s > 0.0 ? static_cast<double>(ticks) / wall_s : 0.0;
        out.perfMetric("ticks_per_sec" + sfx, tps);
        t.addRow({std::to_string(tenants), TextTable::fmt(carbon_g, 2),
                  std::to_string(w.eco.db().seriesCount()),
                  std::to_string(samples), TextTable::fmt(tps, 0)});
    }

    if (opt.print_figures) {
        std::printf("=== Scale: many tenants with telemetry ON "
                    "===\n\n");
        t.print();
        std::printf("\nAlways-on telemetry is affordable only when "
                    "recording is index-addressed: per-tick cost "
                    "must grow ~linearly with tenant (and therefore "
                    "series) count.\n");
    }
    return out;
}

const ScenarioRegistrar reg({
    "scale_many_tenants",
    "Scale: N in {16,64,256} tenants with churning container pools; "
    "settlement throughput vs tenant count",
    /*default_seed=*/7,
    {},
    run,
});

const ScenarioRegistrar reg_telemetry({
    "scale_many_tenants_telemetry",
    "Scale: N in {16,64,256} tenants with telemetry recording ON; "
    "recording throughput vs tenant count",
    /*default_seed=*/7,
    {},
    runTelemetry,
});

} // namespace
} // namespace ecov::bench
