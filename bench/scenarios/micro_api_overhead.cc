/**
 * @file
 * Microbenchmark scenario: the cost of the ecovisor's narrow API
 * (Table 1 getters/setters) and of per-tick settlement at various
 * cluster sizes. Not a paper figure — a sanity check that the control
 * plane is cheap relative to the one-minute tick. The handle-addressed
 * scalar getters and the batched EnergySnapshot are timed side by side
 * (`getters_handle` vs `getters_snapshot`). All timing results are
 * host-dependent and therefore reported as perf metrics (compared
 * warn-only by `ecobench diff`).
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "carbon/carbon_signal.h"
#include "common/registry.h"
#include "core/ecovisor.h"
#include "util/table.h"

namespace ecov::bench {
namespace {

/** The canonical rig the old google-benchmark binary used. */
struct Rig
{
    carbon::TraceCarbonSignal signal{{{0, 200.0}}};
    energy::GridConnection grid{&signal};
    energy::SolarArray solar{{{0, 100.0}}, 24 * 3600};
    cop::Cluster cluster;
    energy::PhysicalEnergySystem phys;
    core::Ecovisor eco;
    std::vector<api::ContainerHandle> containers;

    explicit Rig(int nodes, int apps, int containers_per_app,
                 bool record_telemetry = false)
        : cluster(nodes, power::ServerPowerConfig{4, 1.35, 5.0, 0.0}),
          phys(&grid, &solar, energy::BatteryConfig{}),
          eco(&cluster, &phys,
              core::EcovisorOptions{core::ExcessSolarPolicy::Curtail,
                                    record_telemetry})
    {
        for (int a = 0; a < apps; ++a) {
            core::AppShareConfig share;
            share.solar_fraction = 1.0 / apps;
            energy::BatteryConfig b;
            b.capacity_wh = 1440.0 / apps;
            b.max_charge_w = 360.0 / apps;
            b.max_discharge_w = 1440.0 / apps;
            b.initial_soc = 0.5;
            share.battery = b;
            std::string name = "app" + std::to_string(a);
            eco.tryAddApp(name, share).value();
            for (int c = 0; c < containers_per_app; ++c) {
                auto id = cluster.createContainer(name, 1.0);
                if (id) {
                    cluster.setDemand(*id, 0.7);
                    containers.push_back(api::handleOf(cluster, *id));
                }
            }
        }
    }
};

/** Time `iters` calls of `fn`; returns mean ns/op. */
template <typename Fn>
double
nsPerOp(int iters, Fn &&fn)
{
    // A sink defeats dead-code elimination for getter loops.
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

ScenarioOutcome
run(const ScenarioOptions &opt)
{
    const int iters = opt.horizon == Horizon::Short ? 20000 : 200000;
    const int settle_iters =
        opt.horizon == Horizon::Short ? 2000 : 20000;

    ScenarioOutcome out;
    out.metric("getter_iterations", iters);
    out.metric("settle_iterations", settle_iters);

    TextTable t({"operation", "ns_per_op"});
    auto record = [&](const char *key, double ns) {
        out.perfMetric(std::string(key) + "_ns", ns);
        t.addRow({key, TextTable::fmt(ns, 1)});
    };

    {
        Rig rig(8, 2, 4);
        const api::AppHandle app0 = rig.eco.findApp("app0").value();
        record("get_grid_carbon", nsPerOp(iters, [&](int) {
                   return rig.eco.getGridCarbon();
               }));

        record("get_solar_power_handle", nsPerOp(iters, [&](int) {
                   return rig.eco.getSolarPower(app0).value();
               }));

        // The full Table 1 getter set for one app: five scalar calls
        // vs one batched EnergySnapshot.
        record("getters_handle", nsPerOp(iters, [&](int) {
                   return rig.eco.getSolarPower(app0).value() +
                          rig.eco.getGridPower(app0).value() +
                          rig.eco.getGridCarbon() +
                          rig.eco.getBatteryDischargeRate(app0)
                              .value() +
                          rig.eco.getBatteryChargeLevel(app0).value();
               }));
        record("getters_snapshot", nsPerOp(iters, [&](int) {
                   const api::EnergySnapshot s =
                       rig.eco.getEnergySnapshot(app0).value();
                   return s.solar_w + s.grid_w +
                          s.grid_carbon_g_per_kwh +
                          s.battery_discharge_w +
                          s.battery_charge_level_wh;
               }));

        const api::ContainerHandle c0 = rig.containers.front();
        record("get_container_power", nsPerOp(iters, [&](int) {
                   return rig.eco.getContainerPower(c0).value();
               }));
        record("set_container_powercap", nsPerOp(iters, [&](int i) {
                   rig.eco.setContainerPowercap(c0, 0.5 + 0.1 * (i % 8))
                       .orFatal();
                   return 0.0;
               }));
        record("set_battery_charge_rate_handle",
               nsPerOp(iters, [&](int i) {
                   rig.eco
                       .setBatteryChargeRate(
                           app0, static_cast<double>(i % 11) * 10.0)
                       .orFatal();
                   return 0.0;
               }));
    }

    struct SettleShape
    {
        int apps;
        int per_app;
        const char *key;
    };
    for (const auto &shape :
         {SettleShape{1, 4, "settle_tick_1x4"},
          SettleShape{4, 8, "settle_tick_4x8"},
          SettleShape{8, 16, "settle_tick_8x16"}}) {
        Rig rig(64, shape.apps, shape.per_app);
        TimeS t_now = 0;
        record(shape.key, nsPerOp(settle_iters, [&](int) {
                   rig.eco.settleTick(t_now, 60);
                   t_now += 60;
                   return 0.0;
               }));
    }

    // The same settle shapes with telemetry recording ON: the delta
    // over the rows above is the full per-tick recording cost on the
    // interned SeriesId path (11 series + 2 per container here).
    for (const auto &shape :
         {SettleShape{4, 8, "settle_tick_4x8_telemetry"},
          SettleShape{8, 16, "settle_tick_8x16_telemetry"}}) {
        Rig rig(64, shape.apps, shape.per_app,
                /*record_telemetry=*/true);
        TimeS t_now = 0;
        record(shape.key, nsPerOp(settle_iters, [&](int) {
                   rig.eco.settleTick(t_now, 60);
                   t_now += 60;
                   return 0.0;
               }));
    }

    if (opt.print_figures) {
        std::printf("=== Microbenchmark: ecovisor API overhead ===\n\n");
        t.print();
        std::printf("\nSanity check: every operation must be orders "
                    "of magnitude cheaper than the 60 s tick.\n");
    }
    return out;
}

const ScenarioRegistrar reg({
    "micro_api_overhead",
    "Microbenchmark: ns/op for the Table 1 getters/setters and "
    "per-tick settlement (perf-only)",
    /*default_seed=*/1,
    {},
    run,
});

} // namespace
} // namespace ecov::bench
