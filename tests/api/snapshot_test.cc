/**
 * @file
 * Batched calls: EnergySnapshot must equal the scalar Table 1
 * getters field-for-field over a seeded randomized simulation, and
 * CapBatch must commit atomically at tick settlement with the same
 * post-settlement effect as immediate per-container caps.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "api/snapshot.h"
#include "common/rig.h"
#include "core/ecovisor.h"
#include "util/rng.h"

namespace ecov::core {
namespace {

using testutil::Rig;
using testutil::appShare;

/** Snapshot == scalar getters, every tick of a seeded random run. */
class SnapshotEquivalence : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SnapshotEquivalence, MatchesScalarGettersOnSeededSim)
{
    Rig rig;
    auto a = rig.eco.tryAddApp("a", appShare(0.4, 500.0, 0.6)).value();
    auto b = rig.eco.tryAddApp("b", appShare(0.6, 900.0, 0.4)).value();

    Rng rng(GetParam());
    std::vector<cop::ContainerId> ids;
    for (int i = 0; i < 6; ++i) {
        auto id =
            rig.cluster.createContainer(i % 2 ? "a" : "b", 1.0);
        ASSERT_TRUE(id);
        ids.push_back(*id);
    }

    TimeS t = 0;
    for (int tick = 0; tick < 300; ++tick) {
        for (auto id : ids)
            rig.cluster.setDemand(id, rng.uniform(0.0, 1.0));
        if (rng.bernoulli(0.2)) {
            rig.eco.setBatteryChargeRate(a, rng.uniform(0.0, 100.0))
                .orFatal();
            rig.eco.setBatteryMaxDischarge(b, rng.uniform(0.0, 400.0))
                .orFatal();
        }
        rig.eco.settleTick(t, 60);
        t += 60;

        for (const api::AppHandle h : {a, b}) {
            const api::EnergySnapshot s =
                rig.eco.getEnergySnapshot(h).value();
            EXPECT_DOUBLE_EQ(s.solar_w, rig.eco.getSolarPower(h).value());
            EXPECT_DOUBLE_EQ(s.grid_w, rig.eco.getGridPower(h).value());
            EXPECT_DOUBLE_EQ(s.grid_carbon_g_per_kwh,
                             rig.eco.getGridCarbon());
            EXPECT_DOUBLE_EQ(s.battery_discharge_w,
                             rig.eco.getBatteryDischargeRate(h).value());
            EXPECT_DOUBLE_EQ(s.battery_charge_level_wh,
                             rig.eco.getBatteryChargeLevel(h).value());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotEquivalence,
                         ::testing::Values(3, 11, 1234));

TEST(EnergySnapshot, BatteryLessAppReadsZeroBatteryFields)
{
    Rig rig;
    AppShareConfig share; // no solar, no battery
    auto h = rig.eco.tryAddApp("plain", share).value();
    rig.eco.settleTick(0, 60);
    const api::EnergySnapshot s = rig.eco.getEnergySnapshot(h).value();
    EXPECT_DOUBLE_EQ(s.solar_w, 0.0);
    EXPECT_DOUBLE_EQ(s.battery_discharge_w, 0.0);
    EXPECT_DOUBLE_EQ(s.battery_charge_level_wh, 0.0);
}

TEST(CapBatch, CommitsAtSettlementNotBefore)
{
    Rig rig;
    rig.eco.tryAddApp("a", appShare(0.0, 100.0)).value();
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);

    const api::ContainerHandle c = rig.handle(*id);
    api::CapBatch batch;
    batch.add(c, 0.8);
    ASSERT_TRUE(rig.eco.applyCapBatch(batch).ok());
    EXPECT_EQ(rig.eco.pendingCapCount(), 1u);

    // Staged, not applied: the live cap is still unlimited.
    EXPECT_TRUE(std::isinf(rig.eco.getContainerPowercap(c).value()));
    EXPECT_NEAR(rig.eco.getContainerPower(c).value(), 1.25, 1e-9);

    rig.eco.settleTick(0, 60);
    EXPECT_EQ(rig.eco.pendingCapCount(), 0u);
    EXPECT_DOUBLE_EQ(rig.eco.getContainerPowercap(c).value(), 0.8);
    EXPECT_NEAR(rig.eco.getContainerPower(c).value(), 0.8, 1e-9);
}

TEST(CapBatch, PostSettlementEffectMatchesImmediateCaps)
{
    // Two identical rigs; one applies caps immediately through the
    // scalar setter, the other stages one batch. After settlement the
    // observable state must agree.
    auto build = [](Rig &rig, std::vector<api::ContainerHandle> &cs) {
        rig.eco.tryAddApp("a", appShare(0.0, 100.0)).value();
        for (int i = 0; i < 4; ++i) {
            auto id = rig.cluster.createContainer("a", 1.0);
            ASSERT_TRUE(id);
            rig.cluster.setDemand(*id, 1.0);
            cs.push_back(rig.handle(*id));
        }
    };
    Rig scalar_rig, batch_rig;
    std::vector<api::ContainerHandle> scalar_cs, batch_cs;
    build(scalar_rig, scalar_cs);
    build(batch_rig, batch_cs);

    const double caps[] = {0.3, 0.6, 0.9, 1.2};
    api::CapBatch batch;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(
            scalar_rig.eco.setContainerPowercap(scalar_cs[i], caps[i])
                .ok());
        batch.add(batch_cs[i], caps[i]);
    }
    ASSERT_TRUE(batch_rig.eco.applyCapBatch(batch).ok());

    scalar_rig.eco.settleTick(0, 3600);
    batch_rig.eco.settleTick(0, 3600);

    for (int i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(
            scalar_rig.eco.getContainerPowercap(scalar_cs[i]).value(),
            batch_rig.eco.getContainerPowercap(batch_cs[i]).value());
        EXPECT_DOUBLE_EQ(
            scalar_rig.eco.getContainerPower(scalar_cs[i]).value(),
            batch_rig.eco.getContainerPower(batch_cs[i]).value());
    }
    const api::AppHandle app(0);
    EXPECT_DOUBLE_EQ(scalar_rig.eco.getGridPower(app).value(),
                     batch_rig.eco.getGridPower(app).value());
}

TEST(CapBatch, LaterEntriesWinAndUnlimitedRemoves)
{
    Rig rig;
    rig.eco.tryAddApp("a", appShare(0.0, 100.0)).value();
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 1.0);

    const api::ContainerHandle c = rig.handle(*id);
    api::CapBatch batch;
    batch.add(c, 0.4);
    batch.add(c, 0.9); // later entry wins
    ASSERT_TRUE(rig.eco.applyCapBatch(batch).ok());
    rig.eco.settleTick(0, 60);
    EXPECT_DOUBLE_EQ(rig.eco.getContainerPowercap(c).value(), 0.9);

    api::CapBatch uncap;
    uncap.add(c, kUnlimitedW);
    ASSERT_TRUE(rig.eco.applyCapBatch(uncap).ok());
    rig.eco.settleTick(60, 60);
    EXPECT_TRUE(std::isinf(rig.eco.getContainerPowercap(c).value()));
    EXPECT_NEAR(rig.eco.getContainerPower(c).value(), 1.25, 1e-9);
}

TEST(CapBatch, RevokedContainerSkippedAtCommit)
{
    Rig rig;
    rig.eco.tryAddApp("a", appShare(0.0, 100.0)).value();
    auto keep = rig.cluster.createContainer("a", 1.0);
    auto gone = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(keep && gone);

    const api::ContainerHandle keep_h = rig.handle(*keep);
    const api::ContainerHandle gone_h = rig.handle(*gone);
    api::CapBatch batch;
    batch.add(keep_h, 0.5);
    batch.add(gone_h, 0.5);
    ASSERT_TRUE(rig.eco.applyCapBatch(batch).ok());

    // Revocation between staging and settlement must not crash or
    // resurrect the cap.
    rig.cluster.destroyContainer(*gone);
    rig.eco.settleTick(0, 60);
    EXPECT_EQ(rig.eco.pendingCapCount(), 0u);
    EXPECT_DOUBLE_EQ(rig.eco.getContainerPowercap(keep_h).value(), 0.5);
    EXPECT_EQ(rig.eco.getContainerPowercap(gone_h).code(),
              api::ErrorCode::UnknownContainer);
    const EcovisorImage img = rig.eco.captureState();
    ASSERT_EQ(img.powercaps.size(), 1u);
    EXPECT_EQ(img.powercaps[0].first, *keep);
}

} // namespace
} // namespace ecov::core
