/**
 * @file
 * Microbenchmark scenario: the cost of the telemetry substrate — one
 * sample append to an interned SeriesId (app- and container-tagged),
 * interval queries with and without the monotone cursor hint,
 * allocation traffic on the append path, and the bounded-retention
 * append (rollup folding + amortized sealing) next to the heap held
 * by a bounded vs unbounded series. The companion of
 * `micro_cop_overhead`: that one times the cluster layer, this one
 * times the store every settled tick records into. All timing results
 * are host-dependent perf metrics (warn-only in `ecobench diff`).
 */

#include <chrono>
#include <cstdio>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/registry.h"
#include "telemetry/ts_database.h"
#include "util/table.h"

namespace ecov::bench {
namespace {

/** Time `iters` calls of `fn`; returns mean ns/op. */
template <typename Fn>
double
nsPerOp(int iters, Fn &&fn)
{
    volatile double sink = 0.0;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        sink = sink + fn(i);
    const auto end = std::chrono::steady_clock::now();
    (void)sink;
    return std::chrono::duration<double, std::nano>(end - start)
               .count() /
           static_cast<double>(iters);
}

/**
 * Net heap bytes held after running `fn` (glibc mallinfo2 delta; 0
 * elsewhere). Demonstrates the "allocation-free append" claim: after
 * reserve(), a burst of SeriesId appends must report zero growth.
 */
template <typename Fn>
double
allocBytes(Fn &&fn)
{
#if defined(__GLIBC__)
    const auto before = mallinfo2().uordblks;
    fn();
    const auto after = mallinfo2().uordblks;
    return after > before ? static_cast<double>(after - before) : 0.0;
#else
    fn();
    return 0.0;
#endif
}

ScenarioOutcome
run(const ScenarioOptions &opt)
{
    const int iters = opt.horizon == Horizon::Short ? 50000 : 500000;

    ScenarioOutcome out;
    out.metric("iterations", iters);

    TextTable t({"operation", "value"});
    auto record = [&](const std::string &key, double ns) {
        out.perfMetric(key + "_ns", ns);
        t.addRow({key, TextTable::fmt(ns, 1) + " ns/op"});
    };

    // ------------------------------------------------------------------
    // Append path. One append per tick per series with advancing
    // timestamps — exactly the recordTelemetry access pattern — into
    // a store holding 64 tenants' worth of series.
    // ------------------------------------------------------------------
    {
        ts::TsDatabase db;
        for (int a = 0; a < 64; ++a) {
            const std::string app = "app" + std::to_string(a);
            for (const char *m :
                 {"app_power_w", "app_grid_w", "app_carbon_g"})
                db.append(db.intern(m, app), 0, 1.0);
        }
        TimeS now = 60;
        const ts::SeriesId id = db.findSeries("app_grid_w", "app37");
        record("append_seriesid", nsPerOp(iters, [&](int) {
                   db.append(id, now++, 55.5);
                   return 0.0;
               }));

        // A container-tagged series: the ecovisor formats the
        // container id into the tag once, at the container's first
        // sight, and appends by id from then on.
        const long long cid = 1234567; // container-id-shaped tag
        const ts::SeriesId cpid =
            db.intern("container_power_w", std::to_string(cid));
        db.append(cpid, 0, 1.0);
        record("append_seriesid_container", nsPerOp(iters, [&](int) {
                   db.append(cpid, now, 20.0);
                   return 0.0;
               }));

        // Allocation traffic for one burst of appends: after
        // reserve(), the SeriesId path must hold zero net heap growth.
        const int burst = 4096;
        ts::TsDatabase adb;
        const ts::SeriesId rid =
            adb.intern("app_power_w", "allocation_probe_tenant_0001");
        adb.reserve(rid, static_cast<std::size_t>(burst) + 1);
        adb.append(rid, 0, 1.0);
        double append_bytes = allocBytes([&] {
            for (int i = 1; i <= burst; ++i)
                adb.append(rid, i, 1.0);
        });
        out.perfMetric("append_seriesid_alloc_bytes", append_bytes);
        t.addRow({"append_seriesid_alloc",
                  TextTable::fmt(append_bytes, 0) + " bytes/" +
                      std::to_string(burst) + " appends"});
    }

    // ------------------------------------------------------------------
    // Query paths: a long gauge series swept by monotone interval
    // queries (the policy-loop pattern) with and without the cursor
    // hint. Results are bit-identical; only the search cost differs.
    // ------------------------------------------------------------------
    {
        ts::TsDatabase db;
        const ts::SeriesId id = db.intern("app_power_w", "app0");
        const int n = opt.horizon == Horizon::Short ? 100000 : 1000000;
        db.reserve(id, static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i)
            db.append(id, static_cast<TimeS>(i) * 60,
                      0.5 + static_cast<double>(i % 17));
        const ts::TimeSeries &s = db.series(id);
        const TimeS span = static_cast<TimeS>(n) * 60;

        volatile double guard = 0.0;
        double plain = 0.0, hinted = 0.0;
        {
            const auto start = std::chrono::steady_clock::now();
            for (int i = 0; i < iters; ++i) {
                const TimeS t1 =
                    (static_cast<TimeS>(i) * 60) % (span - 600);
                guard = guard + s.integrateWh(t1, t1 + 600);
            }
            plain = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count() /
                    static_cast<double>(iters);
        }
        {
            ts::Cursor cursor;
            const auto start = std::chrono::steady_clock::now();
            for (int i = 0; i < iters; ++i) {
                const TimeS t1 =
                    (static_cast<TimeS>(i) * 60) % (span - 600);
                if (t1 == 0)
                    cursor = ts::Cursor{}; // window wrapped: restart
                guard = guard + s.integrateWh(t1, t1 + 600, &cursor);
            }
            hinted = std::chrono::duration<double, std::nano>(
                         std::chrono::steady_clock::now() - start)
                         .count() /
                     static_cast<double>(iters);
        }
        (void)guard;
        record("integrate_600s_window", plain);
        record("integrate_600s_window_cursor", hinted);
    }

    // ------------------------------------------------------------------
    // Retention: the bounded append pays for rollup folding plus the
    // amortized seal, and in exchange the series holds O(window)
    // bytes instead of O(horizon). Both are perf metrics (the heap
    // ones are exact byte counts from memoryBytes(), but they track
    // container growth policy, which is toolchain-dependent).
    // ------------------------------------------------------------------
    {
        const int n = opt.horizon == Horizon::Short ? 100000 : 1000000;

        ts::TsDatabase unbounded;
        const ts::SeriesId uid = unbounded.intern("app_power_w", "u");
        for (int i = 0; i < n; ++i)
            unbounded.append(uid, static_cast<TimeS>(i) * 60,
                             0.5 + static_cast<double>(i % 17));

        ts::TsDatabase bounded;
        ts::RetentionConfig retention;
        retention.window_s = 1440 * 60; // one day of minute ticks
        bounded.setDefaultRetention(retention);
        const ts::SeriesId bid = bounded.intern("app_power_w", "b");
        TimeS bnow = 0;
        record("append_seriesid_bounded", nsPerOp(n, [&](int) {
                   bounded.append(bid, bnow, 0.5);
                   bnow += 60;
                   return 0.0;
               }));

        const double ub = static_cast<double>(unbounded.memoryBytes());
        const double bb = static_cast<double>(bounded.memoryBytes());
        out.perfMetric("series_heap_bytes_unbounded", ub);
        out.perfMetric("series_heap_bytes_bounded", bb);
        t.addRow({"series_heap_unbounded",
                  TextTable::fmt(ub / 1024.0, 1) + " KiB/" +
                      std::to_string(n) + " samples"});
        t.addRow({"series_heap_bounded",
                  TextTable::fmt(bb / 1024.0, 1) + " KiB/" +
                      std::to_string(n) + " samples"});
    }

    if (opt.print_figures) {
        std::printf("=== Microbenchmark: telemetry substrate overhead "
                    "===\n\n");
        t.print();
        std::printf("\nSanity check: the SeriesId append must hold "
                    "zero allocation after reserve, and the cursored "
                    "monotone sweep must beat the re-searching "
                    "one.\n");
    }
    return out;
}

const ScenarioRegistrar reg({
    "micro_telemetry_overhead",
    "Microbenchmark: ns/op for SeriesId telemetry appends and "
    "cursor-hinted interval queries (perf-only)",
    /*default_seed=*/1,
    {},
    run,
});

} // namespace
} // namespace ecov::bench
