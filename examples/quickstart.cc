/**
 * @file
 * Quickstart: the smallest complete ecovisor program, written against
 * the v2 handle surface.
 *
 * Builds a 4-node cluster with a grid connection, a solar array and a
 * battery; registers one application with a share of each (receiving
 * an api::AppHandle — the name is resolved exactly once); runs one
 * simulated day with a tick() callback that reads the whole Table 1
 * getter set through a single batched EnergySnapshot and reacts to
 * carbon intensity. Every v2 call returns api::Status / api::Result
 * instead of aborting on misuse.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "carbon/region_traces.h"
#include "core/ecovisor.h"
#include "energy/solar_array.h"
#include "sim/simulation.h"

using namespace ecov;

int
main()
{
    // --- physical energy system -------------------------------------
    // Carbon signal: a synthetic California-like day (5 min samples).
    auto signal = carbon::makeRegionTrace(carbon::californiaProfile(),
                                          /*days=*/1, /*seed=*/7);
    energy::GridConnection grid(&signal);

    // Solar: 400 W peak, light clouds.
    energy::SolarTraceConfig solar_cfg;
    solar_cfg.peak_w = 400.0;
    solar_cfg.cloudiness = 0.2;
    auto solar = energy::makeSolarTrace(solar_cfg, 7);

    // Battery: the paper's 1440 Wh bank (0.25C charge, 1C discharge,
    // 30 % SOC floor).
    energy::BatteryConfig battery;

    // --- computing system --------------------------------------------
    // Four quad-core microservers (1.35 W idle, 5 W at 100 % CPU).
    cop::Cluster cluster(4, power::ServerPowerConfig{});
    energy::PhysicalEnergySystem phys(&grid, &solar, battery);

    // --- the ecovisor --------------------------------------------------
    core::Ecovisor eco(&cluster, &phys);

    // One application owning the whole energy system. tryAddApp
    // validates the share and returns the app's handle; a rejected
    // share would come back as a structured error, not a crash.
    core::AppShareConfig share;
    share.solar_fraction = 1.0;
    share.battery = battery;
    auto registered = eco.tryAddApp("myapp", share);
    if (!registered.ok()) {
        std::fprintf(stderr, "tryAddApp failed: %s\n",
                     registered.status().message().c_str());
        return 1;
    }
    const api::AppHandle myapp = registered.value();

    // Two containers for the app.
    auto c1 = cluster.createContainer("myapp", 2.0);
    auto c2 = cluster.createContainer("myapp", 2.0);
    cluster.setDemand(*c1, 0.9);
    cluster.setDemand(*c2, 0.6);
    const api::ContainerHandle cap_target = api::handleOf(cluster, *c2);

    // The application's tick() upcall: carbon-aware power capping.
    // One EnergySnapshot per tick replaces four scalar getter calls.
    eco.registerTickCallback(myapp, [&](TimeS t, TimeS) {
           const api::EnergySnapshot s =
               eco.getEnergySnapshot(myapp).value();
           // When the grid is dirty and solar is low, cap container 2
           // to 1 W; otherwise let it run free.
           if (s.grid_carbon_g_per_kwh > 250.0 && s.solar_w < 50.0)
               eco.setContainerPowercap(cap_target, 1.0).orFatal();
           else
               eco.setContainerPowercap(cap_target, core::kUnlimitedW)
                   .orFatal();
           // Opportunistic carbon arbitrage: charge the battery from
           // the grid while it is clean.
           eco.setBatteryChargeRate(
                  myapp, s.grid_carbon_g_per_kwh < 150.0 ? 100.0 : 0.0)
               .orFatal();
           if (t % 900 == 0) {
               std::printf("t=%5lldmin carbon=%6.1f g/kWh solar=%6.1f W "
                           "battery=%7.1f Wh grid=%5.2f W\n",
                           static_cast<long long>(t / 60),
                           s.grid_carbon_g_per_kwh, s.solar_w,
                           s.battery_charge_level_wh, s.grid_w);
           }
       })
        .orFatal();

    // --- run one simulated day ------------------------------------------
    sim::Simulation simul(/*tick_interval_s=*/60);
    eco.attach(simul);
    simul.runUntil(24 * 3600);

    const auto &ves = *eco.ves(myapp);
    std::printf("\nAfter 24 h: energy=%.1f Wh (grid %.1f Wh, solar "
                "%.1f Wh), carbon=%.2f gCO2\n",
                ves.totalEnergyWh(), ves.totalGridWh(),
                ves.totalSolarWh(), ves.totalCarbonG());
    return 0;
}
