/**
 * @file
 * Ecovisor edge cases and failure injection: empty systems, container
 * churn under power caps, the watt-cap and emergency slot columns'
 * lifecycle, grid-share shedding, heterogeneous (GPU) nodes, and
 * zero-demand accounting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "carbon/carbon_signal.h"
#include "common/rig.h"
#include "core/ecovisor.h"
#include "util/logging.h"

namespace ecov::core {
namespace {

/** Canonical rig with flat traces: 200 g/kWh grid, 100 W solar. */
struct Rig : testutil::Rig
{
    Rig()
        : testutil::Rig([] {
              testutil::RigOptions o;
              o.signal_points = {{0, 200.0}};
              o.signal_period = 0;
              o.solar_points = {{0, 100.0}};
              return o;
          }())
    {}
};

TEST(EcovisorEdge, SettleWithNoAppsIsHarmless)
{
    Rig rig;
    // No apps registered: settlement still runs; unowned solar is
    // curtailed in full.
    rig.eco.settleTick(0, 3600);
    EXPECT_NEAR(rig.eco.curtailedWh(), 100.0, 1e-9);
    EXPECT_DOUBLE_EQ(rig.grid.totalEnergyWh(), 0.0);
}

TEST(EcovisorEdge, AppWithNoContainersDrawsNothing)
{
    Rig rig;
    AppShareConfig share;
    const auto idle = rig.eco.tryAddApp("idle", share).value();
    rig.eco.settleTick(0, 3600);
    EXPECT_DOUBLE_EQ(rig.eco.getGridPower(idle).value(), 0.0);
    EXPECT_DOUBLE_EQ(rig.eco.ves(idle)->totalCarbonG(), 0.0);
}

TEST(EcovisorEdge, PowercapSurvivesContainerChurn)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", AppShareConfig{}).ok());
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    const api::ContainerHandle c = api::handleOf(rig.cluster, *id);
    ASSERT_TRUE(rig.eco.setContainerPowercap(c, 0.8).ok());
    // Destroy the container behind the ecovisor's back (resource
    // revocation): the cap dies with its slot at once, settlement
    // does not crash, and the stale handle reads as unknown.
    rig.cluster.destroyContainer(*id);
    EXPECT_TRUE(rig.eco.captureState().powercaps.empty());
    rig.eco.settleTick(0, 60);
    EXPECT_EQ(rig.eco.getContainerPowercap(c).code(),
              api::ErrorCode::UnknownContainer);
    EXPECT_TRUE(rig.eco.captureState().powercaps.empty());

    // The next create recycles the slot. It must not inherit the
    // dead container's cap, before or after a settle.
    auto next = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(next);
    const api::ContainerHandle n = api::handleOf(rig.cluster, *next);
    ASSERT_EQ(n.ref().slot, c.ref().slot);
    rig.cluster.setDemand(*next, 1.0);
    EXPECT_TRUE(std::isinf(rig.eco.getContainerPowercap(n).value()));
    rig.eco.settleTick(60, 60);
    EXPECT_TRUE(std::isinf(rig.eco.getContainerPowercap(n).value()));
    EXPECT_EQ(rig.cluster.container(*next).util_cap, 1.0);
    EXPECT_TRUE(rig.eco.captureState().powercaps.empty());
}

TEST(EcovisorEdge, CapturedPowercapsAscendByIdWhateverTheSetOrder)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", AppShareConfig{}).ok());
    std::vector<cop::ContainerId> ids;
    for (int i = 0; i < 4; ++i)
        ids.push_back(rig.cluster.createContainer("a", 1.0).value());
    // Caps land out of id order, through both surfaces; one is
    // lifted again before the capture.
    ASSERT_TRUE(rig.eco.setContainerPowercap(rig.handle(ids[3]), 3.0).ok());
    api::CapBatch batch;
    batch.add(rig.handle(ids[2]), 2.0);
    batch.add(rig.handle(ids[0]), 0.5);
    batch.add(rig.handle(ids[1]), 1.0);
    ASSERT_TRUE(rig.eco.applyCapBatch(batch).ok());
    rig.eco.settleTick(0, 60);
    ASSERT_TRUE(
        rig.eco.setContainerPowercap(rig.handle(ids[1]), kUnlimitedW).ok());

    const std::vector<std::pair<cop::ContainerId, double>> want = {
        {ids[0], 0.5}, {ids[2], 2.0}, {ids[3], 3.0}};
    EXPECT_EQ(rig.eco.captureState().powercaps, want);
}

TEST(EcovisorEdge, PowercapIsRederivedAtSettleAfterSetCores)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", AppShareConfig{}).ok());
    const cop::ContainerId id = rig.cluster.createContainer("a", 1.0).value();
    ASSERT_TRUE(rig.eco.setContainerPowercap(rig.handle(id), 0.9).ok());
    const double one_core = rig.cluster.utilizationCapForPower(id, 0.9);
    EXPECT_EQ(rig.cluster.container(id).util_cap, one_core);

    // A resize keeps the old utilization cap until the next settle,
    // which re-derives it for the new allocation.
    ASSERT_TRUE(rig.cluster.setCores(id, 2.0));
    EXPECT_EQ(rig.cluster.container(id).util_cap, one_core);
    rig.eco.settleTick(0, 60);
    const double two_cores = rig.cluster.utilizationCapForPower(id, 0.9);
    EXPECT_NE(two_cores, one_core);
    EXPECT_EQ(rig.cluster.container(id).util_cap, two_cores);

    // So is a direct utilization-cap override.
    rig.cluster.setUtilizationCap(id, 1.0);
    rig.eco.settleTick(60, 60);
    EXPECT_EQ(rig.cluster.container(id).util_cap, two_cores);
    EXPECT_DOUBLE_EQ(rig.eco.getContainerPowercap(rig.handle(id)).value(),
                     0.9);
}

TEST(EcovisorEdge, EmergencyCapGivesBackTheTenantCapWhenHealthy)
{
    Rig rig;
    // No solar share and no battery: an outage caps both containers
    // to their idle floor.
    ASSERT_TRUE(rig.eco.tryAddApp("a", AppShareConfig{}).ok());
    const cop::ContainerId capped =
        rig.cluster.createContainer("a", 1.0).value();
    const cop::ContainerId uncapped =
        rig.cluster.createContainer("a", 1.0).value();
    rig.cluster.setDemand(capped, 1.0);
    rig.cluster.setDemand(uncapped, 1.0);
    ASSERT_TRUE(rig.eco.setContainerPowercap(rig.handle(capped), 0.9).ok());
    const double tenant = rig.cluster.container(capped).util_cap;
    ASSERT_GT(tenant, 0.0);

    EnergyFaults outage;
    outage.grid_out = true;
    rig.eco.setEnergyFaults(outage);
    rig.eco.settleTick(0, 60);
    EXPECT_EQ(rig.cluster.container(capped).util_cap, 0.0);
    EXPECT_EQ(rig.cluster.container(uncapped).util_cap, 0.0);
    EXPECT_EQ(rig.eco.captureState().emergency_capped.size(), 2u);

    // First healthy tick: the tenant cap comes back, the uncapped
    // container is lifted to 1, and the watt cap itself never moved.
    rig.eco.setEnergyFaults(EnergyFaults{});
    rig.eco.settleTick(60, 60);
    EXPECT_EQ(rig.cluster.container(capped).util_cap, tenant);
    EXPECT_EQ(rig.cluster.container(uncapped).util_cap, 1.0);
    EXPECT_DOUBLE_EQ(
        rig.eco.getContainerPowercap(rig.handle(capped)).value(), 0.9);
    EXPECT_TRUE(rig.eco.captureState().emergency_capped.empty());
}

TEST(EcovisorEdge, EmergencyCapDiesWithItsSlot)
{
    Rig rig;
    // No solar share and no battery: an outage caps to the idle floor.
    ASSERT_TRUE(rig.eco.tryAddApp("a", AppShareConfig{}).ok());
    const cop::ContainerId doomed =
        rig.cluster.createContainer("a", 1.0).value();
    rig.cluster.setDemand(doomed, 1.0);
    EnergyFaults outage;
    outage.grid_out = true;
    rig.eco.setEnergyFaults(outage);
    rig.eco.settleTick(0, 60);
    const cop::ContainerRef old_ref = rig.cluster.refOf(doomed);
    ASSERT_TRUE(rig.cluster.emergencyCapped(old_ref));
    EXPECT_EQ(rig.eco.captureState().emergency_capped,
              std::vector<cop::ContainerId>{doomed});

    // Destroyed mid-outage: the emergency cap goes with the slot, and
    // the slot's next occupant, uncapped, gets an override.
    rig.cluster.destroyContainer(doomed);
    EXPECT_TRUE(rig.eco.captureState().emergency_capped.empty());
    const cop::ContainerId next =
        rig.cluster.createContainer("a", 1.0).value();
    const cop::ContainerRef next_ref = rig.cluster.refOf(next);
    ASSERT_EQ(next_ref.slot, old_ref.slot);
    EXPECT_FALSE(rig.cluster.emergencyCapped(next_ref));
    rig.cluster.setUtilizationCap(next, 0.25);

    // The healthy tick lifts emergency caps only: the override stays.
    rig.eco.setEnergyFaults(EnergyFaults{});
    rig.eco.settleTick(60, 60);
    EXPECT_EQ(rig.cluster.container(next).util_cap, 0.25);
    EXPECT_FALSE(rig.cluster.emergencyCapped(next_ref));
    EXPECT_TRUE(rig.eco.captureState().emergency_capped.empty());
}

TEST(EcovisorEdge, ZeroPowercapStopsContainer)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", AppShareConfig{}).ok());
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    const api::ContainerHandle c = api::handleOf(rig.cluster, *id);
    rig.cluster.setDemand(*id, 1.0);
    ASSERT_TRUE(rig.eco.setContainerPowercap(c, 0.0).ok());
    // A zero cap is below even the idle share: utilization drops to
    // zero, so the attributed power is just the idle share.
    EXPECT_NEAR(rig.eco.getContainerPower(c).value(), 1.35 / 4.0, 1e-9);
}

TEST(EcovisorEdge, GridShareShedsLoad)
{
    Rig rig;
    AppShareConfig share;
    share.grid_max_w = 2.0; // tiny feeder share
    const auto capped = rig.eco.tryAddApp("capped", share).value();
    auto id = rig.cluster.createContainer("capped", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0); // wants 5 W
    rig.eco.settleTick(0, 3600);
    // Demand beyond the share is shed: grid draw clamps at 2 W.
    EXPECT_NEAR(rig.eco.getGridPower(capped).value(), 2.0, 1e-9);
    EXPECT_NEAR(rig.grid.totalEnergyWh(), 2.0, 1e-9);
}

TEST(EcovisorEdge, GpuNodesAttributeExtraPower)
{
    // Heterogeneous cluster: one CPU node, one Jetson-style GPU node.
    carbon::TraceCarbonSignal signal({{0, 100.0}});
    energy::GridConnection grid(&signal);
    std::vector<power::ServerPowerConfig> nodes{
        {4, 1.35, 5.0, 0.0}, {4, 1.35, 5.0, 5.0}};
    cop::Cluster cluster(nodes);
    energy::PhysicalEnergySystem phys(&grid, nullptr, std::nullopt);
    Ecovisor eco(&cluster, &phys);
    const auto gpu = eco.tryAddApp("gpu", AppShareConfig{}).value();

    // Two containers spread over the two nodes (fewest-instances).
    auto c1 = cluster.createContainer("gpu", 4.0);
    auto c2 = cluster.createContainer("gpu", 4.0);
    ASSERT_TRUE(c1 && c2);
    cluster.setDemand(*c1, 1.0);
    cluster.setDemand(*c2, 1.0);
    // The GPU container (whichever landed on node 1) at full GPU
    // utilization draws 10 W total.
    cop::ContainerId gpu_c =
        cluster.container(*c1).node == 1 ? *c1 : *c2;
    cluster.setGpuUtil(gpu_c, 1.0);
    EXPECT_NEAR(eco.getContainerPower(api::handleOf(cluster, gpu_c)).value(),
                10.0, 1e-9);
    eco.settleTick(0, 3600);
    // App power = 5 (CPU node) + 10 (GPU node).
    EXPECT_NEAR(eco.ves(gpu)->lastSettlement().demand_w, 15.0, 1e-9);
}

TEST(EcovisorEdge, BatteryShareExactlyAtPhysicalLimitAccepted)
{
    Rig rig;
    AppShareConfig share;
    energy::BatteryConfig b; // defaults = the full physical bank
    share.battery = b;
    EXPECT_TRUE(rig.eco.tryAddApp("whole-bank", share).ok());
}

TEST(EcovisorEdge, SolarOnlyAppNeverTouchesGrid)
{
    Rig rig;
    AppShareConfig share;
    share.solar_fraction = 1.0;
    share.grid_max_w = 0.001; // effectively no grid
    const auto app = rig.eco.tryAddApp("solar-only", share).value();
    auto id = rig.cluster.createContainer("solar-only", 4.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0); // 5 W vs 100 W of solar
    rig.eco.settleTick(0, 3600);
    EXPECT_NEAR(rig.eco.ves(app)->totalCarbonG(), 0.0, 1e-6);
    EXPECT_NEAR(rig.eco.ves(app)->lastSettlement().solar_used_w, 5.0,
                1e-9);
}

TEST(EcovisorEdge, TelemetryCanBeDisabled)
{
    carbon::TraceCarbonSignal signal({{0, 100.0}});
    energy::GridConnection grid(&signal);
    cop::Cluster cluster(1, power::ServerPowerConfig{});
    energy::PhysicalEnergySystem phys(&grid, nullptr, std::nullopt);
    EcovisorOptions opts;
    opts.record_telemetry = false;
    Ecovisor eco(&cluster, &phys, opts);
    ASSERT_TRUE(eco.tryAddApp("a", AppShareConfig{}).ok());
    for (TimeS t = 0; t < 600; t += 60)
        eco.settleTick(t, 60);
    EXPECT_EQ(eco.db().seriesCount(), 0u);
}

TEST(EcovisorEdge, NonPositiveTickIsFatal)
{
    Rig rig;
    EXPECT_THROW(rig.eco.settleTick(0, 0), FatalError);
    EXPECT_THROW(rig.eco.settleTick(0, -60), FatalError);
}

} // namespace
} // namespace ecov::core
