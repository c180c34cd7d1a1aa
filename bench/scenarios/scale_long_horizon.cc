/**
 * @file
 * Scale scenario: month-scale horizons with telemetry ON — the
 * unbounded-telemetry memory cliff and its retention fix.
 *
 * Before bounded retention, every settled tick appended ~10 samples
 * per app forever: a long-horizon run's memory grew linearly with
 * ticks and the telemetry store eventually dominated (and on real
 * month-long horizons, exhausted) the process. This scenario is the
 * regression canary for the fix:
 *
 *  1. *Equivalence sweep*: a retention-bounded run and an unbounded
 *     shadow run over the same seeded workload, with every interval
 *     query whose window start lies inside the bounded run's exact
 *     (ring + cold block) coverage compared bit for bit. The
 *     mismatch counters are domain metrics gated at 0 by the
 *     baseline diff.
 *  2. *Bounded memory*: telemetry-ON runs at half and full horizon
 *     (>= 1M ticks at the full horizon) under a one-day retention
 *     window. Telemetry heap — measured exactly via
 *     TsDatabase::memoryBytes() — must be flat between the two
 *     (growth ratio ~1, O(window), not O(horizon)); peak process RSS
 *     is reported for the CI budget gate. Retained sample/block/
 *     bucket counts are deterministic domain metrics.
 *
 * No unbounded run at the long horizons, deliberately: it would
 * dominate peak RSS for the whole process and turn the budget gate
 * into a measurement of the bug instead of the fix. And no container
 * churn, also deliberately: retention bounds each series relative to
 * its *own* newest sample, so every destroyed container leaves a
 * (bounded) remnant store behind and memory would grow with the
 * churn count — a series-count axis that scale_many_tenants already
 * owns. A fixed container set makes memory flatness attributable to
 * retention alone.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/resource.h>
#endif

#include "carbon/carbon_signal.h"
#include "common/registry.h"
#include "core/ecovisor.h"
#include "sim/simulation.h"
#include "telemetry/ts_database.h"
#include "util/table.h"

namespace ecov::bench {
namespace {

/** One day: the retention window the bounded runs keep raw. */
constexpr TimeS kWindowS = 1440 * 60;

/** A small fixed tenant set; the scale axis here is ticks, not apps. */
constexpr int kTenants = 4;

struct World
{
    carbon::TraceCarbonSignal signal;
    energy::GridConnection grid;
    energy::SolarArray solar;
    cop::Cluster cluster;
    energy::PhysicalEnergySystem phys;
    core::Ecovisor eco;
    std::vector<api::AppHandle> apps;
    std::vector<std::vector<cop::ContainerId>> pools;

    explicit World(const core::EcovisorOptions &eco_opts)
        : signal({{0, 100.0}, {3600, 300.0}, {7200, 50.0}}, 10800),
          grid(&signal),
          solar({{0, 0.0}, {6 * 3600, 200.0}, {18 * 3600, 0.0}},
                24 * 3600),
          cluster(kTenants,
                  power::ServerPowerConfig{8, 1.35, 5.0, 0.0}),
          phys(&grid, &solar, energy::BatteryConfig{}),
          eco(&cluster, &phys, eco_opts)
    {
        apps.reserve(kTenants);
        pools.resize(kTenants);
        for (int a = 0; a < kTenants; ++a) {
            char name[16];
            std::snprintf(name, sizeof name, "t%04d", a);
            // Deliberately lean shares: at 4 tenants a generous
            // solar+battery split covers the whole ~1-2 W per-app
            // load and the carbon metric degenerates to a constant
            // 0. Lean shares leave the battery short of a full night,
            // so the grid is drawn daily and carbon stays a live
            // regression signal.
            core::AppShareConfig share;
            share.solar_fraction = 0.05 / kTenants;
            energy::BatteryConfig b;
            b.capacity_wh = 48.0 / kTenants;
            b.max_charge_w = 12.0 / kTenants;
            b.max_discharge_w = 48.0 / kTenants;
            b.initial_soc = 0.5;
            share.battery = b;
            apps.push_back(eco.tryAddApp(name, share).value());
            for (int c = 0; c < 3; ++c) {
                auto id = cluster.createContainer(name, 1.0);
                if (id)
                    pools[static_cast<std::size_t>(a)].push_back(*id);
            }
        }
    }
};

/** Month-scale workload over the fixed container set. */
double
driveWorld(World &w, const ScenarioOptions &opt, std::int64_t ticks)
{
    sim::Simulation simul(opt.tick_s);
    std::int64_t tick_no = 0;
    simul.addListener(
        [&](TimeS, TimeS) {
            for (std::size_t a = 0; a < w.pools.size(); ++a) {
                auto &pool = w.pools[a];
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

/** Peak process RSS in MB (Linux getrusage; 0 elsewhere). */
double
peakRssMb()
{
#if defined(__linux__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0)
        return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
    return 0.0;
}

/** Retained-store shape of one bounded database (deterministic). */
struct StoreShape
{
    std::size_t raw = 0, cold_blocks = 0, cold_samples = 0;
    std::size_t minute_buckets = 0, hour_buckets = 0;
    std::uint64_t total_appends = 0;
};

StoreShape
shapeOf(const ts::TsDatabase &db)
{
    StoreShape s;
    for (const auto &k : db.keys()) {
        const ts::TimeSeries &ser = db.series(k.measurement, k.tag);
        s.raw += ser.size();
        s.cold_blocks += ser.coldBlockCount();
        s.cold_samples += ser.coldSampleCount();
        s.minute_buckets += ser.minuteBucketCount();
        s.hour_buckets += ser.hourBucketCount();
        s.total_appends += ser.totalAppends();
    }
    return s;
}

double
totalCarbon(World &w)
{
    double carbon_g = 0.0;
    for (const api::AppHandle app : w.apps)
        carbon_g += w.eco.ves(app)->totalCarbonG();
    return carbon_g;
}

ScenarioOutcome
run(const ScenarioOptions &opt)
{
    // Full horizon: >= 1M ticks (~2 years of minute ticks) — the
    // regime where unbounded telemetry melted down.
    const std::int64_t full_ticks =
        opt.horizon == Horizon::Short ? 40000 : 1100000;
    const std::int64_t half_ticks = full_ticks / 2;
    const std::int64_t pair_ticks =
        opt.horizon == Horizon::Short ? 2000 : 5000;

    core::EcovisorOptions bounded_opts;
    bounded_opts.retention_window_s = kWindowS;

    ScenarioOutcome out;
    out.metric("horizon_ticks", static_cast<double>(full_ticks));

    // ------------------------------------------------------------------
    // 1. Equivalence sweep: bounded vs unbounded shadow, bit for bit
    //    wherever the bounded store still has exact coverage.
    // ------------------------------------------------------------------
    std::int64_t window_mismatches = 0;
    std::int64_t queries = 0;
    {
        World bounded(bounded_opts);
        World shadow(core::EcovisorOptions{});
        driveWorld(bounded, opt, pair_ticks);
        driveWorld(shadow, opt, pair_ticks);

        const TimeS horizon_s = pair_ticks * opt.tick_s;
        for (const auto &k : shadow.eco.db().keys()) {
            const ts::TimeSeries &bs =
                bounded.eco.db().series(k.measurement, k.tag);
            const ts::TimeSeries &us =
                shadow.eco.db().series(k.measurement, k.tag);
            const TimeS from =
                bs.hasRetired() ? bs.exactSince() : 0;
            for (int q = 0; q < 32; ++q) {
                const TimeS t1 =
                    from + ((horizon_s - from) * q) / 32;
                for (TimeS span : {TimeS{600}, TimeS{21600}}) {
                    ++queries;
                    if (bs.integrateWh(t1, t1 + span) !=
                            us.integrateWh(t1, t1 + span) ||
                        bs.sumRange(t1, t1 + span) !=
                            us.sumRange(t1, t1 + span) ||
                        bs.maxRange(t1, t1 + span) !=
                            us.maxRange(t1, t1 + span))
                        ++window_mismatches;
                }
            }
        }
    }
    out.metric("window_queries", static_cast<double>(queries));
    out.metric("window_query_mismatches",
               static_cast<double>(window_mismatches));

    // ------------------------------------------------------------------
    // 2. Bounded memory at half and full horizon. Separate scopes so
    //    each world's store is dead before the next is measured.
    // ------------------------------------------------------------------
    double heap_half = 0.0, heap_full = 0.0;
    double carbon_half = 0.0, carbon_full = 0.0;
    double wall_full = 0.0;
    StoreShape shape_half, shape_full;
    {
        World w(bounded_opts);
        driveWorld(w, opt, half_ticks);
        heap_half = static_cast<double>(w.eco.db().memoryBytes());
        carbon_half = totalCarbon(w);
        shape_half = shapeOf(w.eco.db());
    }
    {
        World w(bounded_opts);
        wall_full = driveWorld(w, opt, full_ticks);
        heap_full = static_cast<double>(w.eco.db().memoryBytes());
        carbon_full = totalCarbon(w);
        shape_full = shapeOf(w.eco.db());
    }

    out.metric("carbon_g_half", carbon_half);
    out.metric("carbon_g_full", carbon_full);
    out.metric("raw_samples_full",
               static_cast<double>(shape_full.raw));
    out.metric("cold_blocks_full",
               static_cast<double>(shape_full.cold_blocks));
    out.metric("cold_samples_full",
               static_cast<double>(shape_full.cold_samples));
    out.metric("minute_buckets_full",
               static_cast<double>(shape_full.minute_buckets));
    out.metric("hour_buckets_full",
               static_cast<double>(shape_full.hour_buckets));
    out.metric("total_appends_full",
               static_cast<double>(shape_full.total_appends));

    // Heap sizes track container growth policy (toolchain-dependent),
    // so they are perf metrics; flatness is the claim under test.
    const double growth =
        heap_half > 0.0 ? heap_full / heap_half : 0.0;
    out.perfMetric("telemetry_heap_bytes_half", heap_half);
    out.perfMetric("telemetry_heap_bytes_full", heap_full);
    out.perfMetric("telemetry_heap_growth_ratio", growth);
    out.perfMetric("peak_rss_mb", peakRssMb());
    out.perfMetric("ticks_per_sec_full",
                   wall_full > 0.0
                       ? static_cast<double>(full_ticks) / wall_full
                       : 0.0);

    if (opt.print_figures) {
        std::printf("=== Scale: long horizon, telemetry ON, bounded "
                    "retention ===\n\n");
        TextTable t({"quantity", "half", "full"});
        t.addRow({"ticks", std::to_string(half_ticks),
                  std::to_string(full_ticks)});
        t.addRow({"appended samples",
                  std::to_string(shape_half.total_appends),
                  std::to_string(shape_full.total_appends)});
        t.addRow({"retained raw", std::to_string(shape_half.raw),
                  std::to_string(shape_full.raw)});
        t.addRow({"cold blocks",
                  std::to_string(shape_half.cold_blocks),
                  std::to_string(shape_full.cold_blocks)});
        t.addRow({"telemetry heap (KiB)",
                  TextTable::fmt(heap_half / 1024.0, 1),
                  TextTable::fmt(heap_full / 1024.0, 1)});
        t.print();
        std::printf("\nquery equivalence: %lld/%lld windows "
                    "bit-identical to the unbounded shadow\n",
                    static_cast<long long>(queries -
                                           window_mismatches),
                    static_cast<long long>(queries));
        std::printf("heap growth ratio (full/half horizon): %.3f — "
                    "must stay ~1: the store is O(retention window), "
                    "not O(horizon). Peak RSS: %.1f MB.\n",
                    growth, peakRssMb());
    }
    return out;
}

const ScenarioRegistrar reg({
    "scale_long_horizon",
    "Scale: >= 1M-tick horizon with telemetry ON under a 1-day "
    "retention window; flat memory + bit-identical windowed queries",
    /*default_seed=*/7,
    {},
    run,
});

} // namespace
} // namespace ecov::bench
