/**
 * @file
 * Example: a zero-carbon edge microgrid (solar + battery, no grid
 * dependence for compute).
 *
 * Two tenants — a checkpointing Spark job and a day-time monitoring
 * web service — share a solar array and a physical battery through
 * their virtual energy systems, each running its own battery policy
 * (the Section 5.3 case study). Demonstrates per-app shares, virtual
 * battery control, and the multiplexing invariant (aggregate virtual
 * state mirrors the physical bank).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "carbon/carbon_signal.h"
#include "util/rng.h"
#include "core/ecovisor.h"
#include "energy/solar_array.h"
#include "policies/battery_policies.h"
#include "sim/simulation.h"
#include "workloads/spark_job.h"
#include "workloads/web_application.h"

using namespace ecov;

int
main()
{
    std::printf("Zero-carbon edge microgrid: Spark + monitoring "
                "service on shared solar/battery\n");
    std::printf("------------------------------------------------"
                "----------------------------\n\n");

    carbon::TraceCarbonSignal signal({{0, 250.0}});
    energy::GridConnection grid(&signal);

    energy::SolarTraceConfig sc;
    sc.peak_w = 80.0;
    sc.cloudiness = 0.25;
    sc.days = 3;
    auto solar = energy::makeSolarTrace(sc, 23);

    cop::Cluster cluster(32, power::ServerPowerConfig{});
    energy::BatteryConfig bank;
    bank.capacity_wh = 400.0;
    bank.max_charge_w = 100.0;
    bank.max_discharge_w = 400.0;
    energy::PhysicalEnergySystem phys(&grid, &solar, bank);
    core::Ecovisor eco(&cluster, &phys);

    // Split the microgrid 50/50 between the tenants.
    auto half_share = [] {
        core::AppShareConfig s;
        s.solar_fraction = 0.5;
        energy::BatteryConfig b;
        b.capacity_wh = 200.0;
        b.max_charge_w = 50.0;
        b.max_discharge_w = 200.0;
        b.initial_soc = 0.6;
        s.battery = b;
        return s;
    };
    const api::AppHandle spark_h =
        eco.tryAddApp("spark", half_share()).value();
    const api::AppHandle monitor_h =
        eco.tryAddApp("monitor", half_share()).value();

    wl::SparkJobConfig jc;
    jc.app = "spark";
    jc.total_work = 10.0 * 10.0 * 3600.0;
    jc.checkpoint_interval_s = 900;
    jc.max_workers = 48;
    wl::SparkJob spark(&cluster, jc);

    // The monitoring workload exists only while the sun shines (it
    // logs solar generation), so build a day-only trace.
    std::vector<wl::RequestTrace::Point> pts;
    {
        Rng rng(23);
        for (TimeS t = 0; t < 3 * 24 * 3600; t += 60) {
            double hour = static_cast<double>(t % (24 * 3600)) / 3600.0;
            double rate = 0.2;
            if (hour > 6.5 && hour < 17.5) {
                double x = (hour - 6.5) / 11.0;
                rate = std::max(0.2, 190.0 * std::sin(x * 3.14159265) +
                                         rng.gaussian(0.0, 10.0));
            }
            pts.push_back({t, rate});
        }
    }
    wl::RequestTrace trace(std::move(pts), 3 * 24 * 3600);
    wl::WebAppConfig wc;
    wc.app = "monitor";
    wc.slo_p95_ms = 100.0;
    wc.max_workers = 24;
    wl::WebApplication monitor(&cluster, &trace, wc);

    policy::BatteryPolicyConfig pc;
    pc.guaranteed_power_w = 5.0;
    pc.per_worker_w = 1.25;
    policy::DynamicSparkBatteryPolicy spark_policy(&eco, &spark, pc);
    policy::DynamicWebBatteryPolicy web_policy(&eco, &monitor, pc);

    sim::Simulation simul(60);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            if (!spark.done())
                spark_policy.onTick(t, dt);
            web_policy.onTick(t, dt);
        },
        sim::TickPhase::Policy);
    simul.addListener(
        [&](TimeS t, TimeS dt) {
            spark.onTick(t, dt);
            monitor.onTick(t, dt);
        },
        sim::TickPhase::Workload);
    eco.attach(simul);
    // Hourly console report.
    simul.addListener(
        [&](TimeS t, TimeS) {
            if (t % (6 * 3600) != 0)
                return;
            std::printf("t=%3lldh solar=%5.1fW spark{w=%2d soc=%3.0f%%} "
                        "monitor{w=%2d soc=%3.0f%% p95=%5.1fms}\n",
                        static_cast<long long>(t / 3600),
                        eco.getSolarPower(spark_h).value() +
                            eco.getSolarPower(monitor_h).value(),
                        spark.workers(),
                        eco.ves(spark_h)->battery().soc() * 100.0,
                        monitor.workers(),
                        eco.ves(monitor_h)->battery().soc() * 100.0,
                        monitor.lastP95Ms());
        },
        sim::TickPhase::Telemetry);

    spark.start(0);
    monitor.start(1);
    simul.runUntil(3 * 24 * 3600);

    std::printf("\nAfter 3 days:\n");
    std::printf("  spark: %s (%.0f%% done), lost-to-kills %.0f "
                "worker-s\n",
                spark.done() ? "finished" : "running",
                spark.progress() * 100.0, spark.lostWork());
    std::printf("  monitor: %d SLO violations\n",
                monitor.sloViolations());
    double grid_wh = eco.ves(spark_h)->totalGridWh() +
                     eco.ves(monitor_h)->totalGridWh();
    std::printf("  grid energy used: %.2f Wh (zero-carbon check)\n",
                grid_wh);
    std::printf("  physical battery mirrors virtual aggregate: "
                "%.1f Wh == %.1f Wh\n",
                phys.battery().energyWh(), eco.aggregateBatteryWh());
    return 0;
}
