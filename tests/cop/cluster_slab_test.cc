/**
 * @file
 * Slab substrate tests: slot reuse + generation invalidation under
 * create/destroy churn, interned app-name stability across
 * registration order, per-app list iteration order, and the cached
 * power aggregate's invalidation rules (see docs/PERF.md).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cop/cluster.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ecov::cop {
namespace {

power::ServerPowerConfig
microserver()
{
    return power::ServerPowerConfig{4, 1.35, 5.0, 0.0};
}

TEST(ClusterSlab, RecyclesSlotsAndStalesOldRefs)
{
    Cluster c(1, microserver());
    auto id1 = c.createContainer("a", 1.0);
    ASSERT_TRUE(id1);
    ContainerRef ref1 = c.refOf(*id1);
    ASSERT_TRUE(ref1.valid());
    EXPECT_TRUE(c.live(ref1));
    EXPECT_EQ(c.idOf(ref1), *id1);

    c.destroyContainer(*id1);
    // The ref goes stale, never fatal, never dangling.
    EXPECT_FALSE(c.live(ref1));
    EXPECT_EQ(c.idOf(ref1), kInvalidContainer);
    EXPECT_FALSE(c.refOf(*id1).valid());

    // The next create recycles the slot under a new generation: the
    // old ref must not alias the new incarnation.
    auto id2 = c.createContainer("a", 1.0);
    ASSERT_TRUE(id2);
    ContainerRef ref2 = c.refOf(*id2);
    EXPECT_EQ(ref2.slot, ref1.slot);
    EXPECT_NE(ref2.generation, ref1.generation);
    EXPECT_FALSE(c.live(ref1));
    EXPECT_EQ(c.idOf(ref2), *id2);

    // Ids are never reused even though slots are.
    EXPECT_NE(*id1, *id2);
}

TEST(ClusterSlab, ChurnAgreesWithShadowModel)
{
    // Randomized create/destroy/set churn checked against a naive
    // shadow model; after every step the slab's per-app views must
    // agree with the shadow's id-sorted ones, and every ref taken
    // from a destroyed incarnation must stay stale.
    Cluster c(4, microserver());
    Rng rng(1234);
    struct Shadow
    {
        std::string app;
        double cores, demand;
    };
    std::map<ContainerId, Shadow> shadow; // id-sorted like the seed map
    std::vector<ContainerRef> dead_refs;
    const char *apps[] = {"alpha", "beta", "gamma"};

    for (int step = 0; step < 2000; ++step) {
        double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.45 || shadow.empty()) {
            const char *app = apps[rng.uniformInt(0, 2)];
            double cores = 0.5 + 0.5 * rng.uniform(0.0, 1.0);
            auto id = c.createContainer(app, cores);
            if (id) {
                shadow[*id] = Shadow{app, cores, 0.0};
                double d = rng.uniform(0.0, 1.0);
                c.setDemand(*id, d);
                shadow[*id].demand = d;
            }
        } else if (roll < 0.8) {
            auto it = shadow.begin();
            std::advance(it, rng.uniformInt(
                                 0, static_cast<std::int64_t>(
                                        shadow.size()) - 1));
            dead_refs.push_back(c.refOf(it->first));
            c.destroyContainer(it->first);
            shadow.erase(it);
        } else {
            auto it = shadow.begin();
            std::advance(it, rng.uniformInt(
                                 0, static_cast<std::int64_t>(
                                        shadow.size()) - 1));
            double d = rng.uniform(0.0, 1.0);
            c.setDemand(it->first, d);
            it->second.demand = d;
        }
    }

    EXPECT_EQ(c.containerCount(), static_cast<int>(shadow.size()));
    for (const auto &ref : dead_refs)
        EXPECT_FALSE(c.live(ref));

    for (const char *app : apps) {
        std::vector<ContainerId> expected;
        double expected_power = 0.0;
        for (const auto &kv : shadow) {
            if (kv.second.app == app)
                expected.push_back(kv.first);
        }
        // Seed-equivalent power sum: id order.
        for (ContainerId id : expected)
            expected_power += c.containerPowerW(id);

        const AppIndex idx = c.findAppIndex(app);
        ASSERT_NE(idx, kInvalidApp);
        EXPECT_EQ(c.appContainers(idx), expected);
        EXPECT_EQ(c.appContainerCount(idx),
                  static_cast<int>(expected.size()));
        // forEach walks in creation == increasing-id order.
        std::vector<ContainerId> walked;
        c.forEachAppContainer(idx, [&](ContainerId id, ContainerRef ref) {
            walked.push_back(id);
            // The ref handed out is the id's own, live one.
            EXPECT_EQ(ref, c.refOf(id));
        });
        EXPECT_EQ(walked, expected);
        // Cached aggregate equals the id-ordered sum bit-for-bit,
        // twice (second call takes the clean-cache path).
        EXPECT_DOUBLE_EQ(c.appPowerW(idx), expected_power);
        EXPECT_DOUBLE_EQ(c.appPowerW(idx), expected_power);
    }
}

TEST(ClusterSlab, InternedIndicesAreStableAcrossChurnAndOrder)
{
    Cluster c(4, microserver());
    // Interning order fixes indices; container creation order and
    // churn never renumber them.
    AppIndex b = c.internApp("bravo");
    AppIndex a = c.internApp("alpha");
    EXPECT_EQ(b, 0);
    EXPECT_EQ(a, 1);
    EXPECT_EQ(c.internApp("bravo"), b);
    EXPECT_EQ(c.findAppIndex("alpha"), a);
    EXPECT_EQ(c.findAppIndex("unknown"), kInvalidApp);
    EXPECT_EQ(c.appName(b), "bravo");

    auto id1 = c.createContainer("alpha", 1.0);
    auto id2 = c.createContainer("bravo", 1.0);
    ASSERT_TRUE(id1 && id2);
    EXPECT_EQ(c.container(*id1).app, a);
    EXPECT_EQ(c.container(*id2).app, b);
    c.destroyContainer(*id1);
    c.destroyContainer(*id2);
    EXPECT_EQ(c.findAppIndex("alpha"), a);
    EXPECT_EQ(c.findAppIndex("bravo"), b);
    // An app first seen at createContainer interns like any other.
    auto id3 = c.createContainer("charlie", 1.0);
    ASSERT_TRUE(id3);
    EXPECT_EQ(c.findAppIndex("charlie"), 2);
    EXPECT_THROW(c.appName(99), FatalError);
}

TEST(ClusterSlab, PowerAggregateInvalidation)
{
    Cluster c(2, microserver());
    auto id1 = c.createContainer("a", 1.0);
    auto id2 = c.createContainer("a", 1.0);
    ASSERT_TRUE(id1 && id2);
    const AppIndex a = c.findAppIndex("a");

    c.setDemand(*id1, 1.0);
    c.setDemand(*id2, 1.0);
    EXPECT_NEAR(c.appPowerW(a), 2.5, 1e-12);

    // Every mutation route must invalidate the cache.
    c.setDemand(*id2, 0.0);
    EXPECT_NEAR(c.appPowerW(a), 1.25 + 0.3375, 1e-12);
    c.setUtilizationCap(*id1, 0.0);
    EXPECT_NEAR(c.appPowerW(a), 2.0 * 0.3375, 1e-12);
    c.setUtilizationCap(*id1, 1.0);
    ASSERT_TRUE(c.setCores(*id1, 2.0));
    EXPECT_NEAR(c.appPowerW(a), 2.0 * 0.9125 + 3.0 * 0.3375, 1e-12);
    c.destroyContainer(*id2);
    EXPECT_NEAR(c.appPowerW(a), 2.0 * 0.9125 + 2.0 * 0.3375, 1e-12);
    auto id3 = c.createContainer("a", 1.0);
    ASSERT_TRUE(id3);
    EXPECT_NEAR(c.appPowerW(a), 2.0 * 0.9125 + 3.0 * 0.3375, 1e-12);

    // Unknown apps.
    EXPECT_DOUBLE_EQ(c.appPowerW(c.findAppIndex("nope")), 0.0);
    EXPECT_DOUBLE_EQ(c.appPowerW(kInvalidApp), 0.0);
}

TEST(ClusterSlab, ContainerLookupFollowsLiveness)
{
    Cluster c(1, microserver());
    EXPECT_FALSE(c.exists(42));
    EXPECT_THROW(c.container(42), FatalError);

    auto id = c.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    ASSERT_TRUE(c.exists(*id));
    EXPECT_EQ(c.container(*id).id, *id);

    c.destroyContainer(*id);
    EXPECT_FALSE(c.exists(*id));
    // The fatal accessor keeps its behaviour.
    EXPECT_THROW(c.container(*id), FatalError);
}

} // namespace
} // namespace ecov::cop
