/**
 * @file
 * COP (cluster) tests: placement, scaling, cgroup-style caps,
 * power attribution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "cop/cluster.h"
#include "util/logging.h"

/** Heap allocations made through operator new in this binary. */
static std::atomic<std::int64_t> g_news{0};

void *
operator new(std::size_t n)
{
    ++g_news;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace ecov::cop {
namespace {

power::ServerPowerConfig
microserver()
{
    return power::ServerPowerConfig{4, 1.35, 5.0, 0.0};
}

TEST(Cluster, Construction)
{
    Cluster c(4, microserver());
    EXPECT_EQ(c.nodeCount(), 4);
    EXPECT_DOUBLE_EQ(c.totalCores(), 16.0);
    EXPECT_DOUBLE_EQ(c.freeCores(), 16.0);
    EXPECT_EQ(c.containerCount(), 0);
}

TEST(Cluster, HeterogeneousNodes)
{
    std::vector<power::ServerPowerConfig> nodes{
        microserver(), power::ServerPowerConfig{8, 2.0, 10.0, 5.0}};
    Cluster c(nodes);
    EXPECT_EQ(c.nodeCount(), 2);
    EXPECT_DOUBLE_EQ(c.totalCores(), 12.0);
}

TEST(Cluster, FewestInstancesPlacement)
{
    Cluster c(3, microserver());
    // Six 1-core containers spread evenly: two per node.
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(c.createContainer("app", 1.0).has_value());
    for (int n = 0; n < 3; ++n)
        EXPECT_EQ(c.node(n).instances, 2);
}

TEST(Cluster, PlacementSkipsFullNodes)
{
    Cluster c(2, microserver());
    // Fill node capacity with big containers.
    auto a = c.createContainer("app", 4.0);
    auto b = c.createContainer("app", 4.0);
    ASSERT_TRUE(a && b);
    // No room left anywhere.
    EXPECT_FALSE(c.createContainer("app", 1.0).has_value());
}

TEST(Cluster, DestroyReleasesCapacity)
{
    Cluster c(1, microserver());
    auto id = c.createContainer("app", 4.0);
    ASSERT_TRUE(id);
    EXPECT_DOUBLE_EQ(c.freeCores(), 0.0);
    c.destroyContainer(*id);
    EXPECT_DOUBLE_EQ(c.freeCores(), 4.0);
    EXPECT_FALSE(c.exists(*id));
    EXPECT_THROW(c.destroyContainer(*id), FatalError);
}

TEST(Cluster, VerticalScaling)
{
    Cluster c(1, microserver());
    auto id = c.createContainer("app", 1.0);
    ASSERT_TRUE(id);
    EXPECT_TRUE(c.setCores(*id, 3.0));
    EXPECT_DOUBLE_EQ(c.container(*id).cores, 3.0);
    EXPECT_DOUBLE_EQ(c.freeCores(), 1.0);
    // Beyond node capacity fails without state change.
    EXPECT_FALSE(c.setCores(*id, 5.0));
    EXPECT_DOUBLE_EQ(c.container(*id).cores, 3.0);
    // Scaling down releases cores.
    EXPECT_TRUE(c.setCores(*id, 1.0));
    EXPECT_DOUBLE_EQ(c.freeCores(), 3.0);
}

TEST(Cluster, EffectiveUtilIsMinOfDemandAndCap)
{
    Cluster c(1, microserver());
    auto id = c.createContainer("app", 1.0);
    ASSERT_TRUE(id);
    c.setDemand(*id, 0.8);
    c.setUtilizationCap(*id, 0.5);
    EXPECT_DOUBLE_EQ(c.container(*id).effectiveUtil(), 0.5);
    c.setUtilizationCap(*id, 1.0);
    EXPECT_DOUBLE_EQ(c.container(*id).effectiveUtil(), 0.8);
}

TEST(Cluster, DemandAndCapClamped)
{
    Cluster c(1, microserver());
    auto id = c.createContainer("app", 1.0);
    ASSERT_TRUE(id);
    c.setDemand(*id, 7.0);
    EXPECT_DOUBLE_EQ(c.container(*id).demand, 1.0);
    c.setUtilizationCap(*id, -2.0);
    EXPECT_DOUBLE_EQ(c.container(*id).util_cap, 0.0);
}

TEST(Cluster, ContainerPowerMatchesModel)
{
    Cluster c(1, microserver());
    auto id = c.createContainer("app", 1.0);
    ASSERT_TRUE(id);
    c.setDemand(*id, 1.0);
    // 1 core flat out: idle share 0.3375 + dynamic 0.9125 = 1.25 W.
    EXPECT_NEAR(c.containerPowerW(*id), 1.25, 1e-9);
    EXPECT_NEAR(c.maxContainerPowerW(*id), 1.25, 1e-9);
}

TEST(Cluster, PowerCapMapping)
{
    Cluster c(1, microserver());
    auto id = c.createContainer("app", 1.0);
    ASSERT_TRUE(id);
    c.setDemand(*id, 1.0);
    double util = c.utilizationCapForPower(*id, 0.8);
    c.setUtilizationCap(*id, util);
    EXPECT_NEAR(c.containerPowerW(*id), 0.8, 1e-9);
}

TEST(Cluster, AppAggregation)
{
    Cluster c(2, microserver());
    auto a1 = c.createContainer("a", 1.0);
    auto a2 = c.createContainer("a", 1.0);
    auto b1 = c.createContainer("b", 1.0);
    ASSERT_TRUE(a1 && a2 && b1);
    c.setDemand(*a1, 1.0);
    c.setDemand(*a2, 1.0);
    c.setDemand(*b1, 1.0);
    const AppIndex a = c.findAppIndex("a");
    const AppIndex b = c.findAppIndex("b");
    EXPECT_EQ(c.appContainers(a).size(), 2u);
    EXPECT_EQ(c.appContainers(b).size(), 1u);
    EXPECT_NEAR(c.appPowerW(a), 2.5, 1e-9);
    EXPECT_NEAR(c.appPowerW(b), 1.25, 1e-9);
}

TEST(Cluster, TotalPowerIncludesIdleBaseline)
{
    Cluster c(4, microserver());
    // Empty cluster still draws idle power on every node.
    EXPECT_NEAR(c.totalPowerW(), 4 * 1.35, 1e-9);
    auto id = c.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    c.setDemand(*id, 1.0);
    EXPECT_NEAR(c.totalPowerW(), 4 * 1.35 + 0.9125, 1e-9);
}

/**
 * The ecovisor records totalPowerW() every tick: after the first call
 * on a thread it must not allocate, and it must still sum each node's
 * own core and GPU terms.
 */
TEST(Cluster, TotalPowerAllocatesNothingAfterTheFirstCall)
{
    std::vector<power::ServerPowerConfig> nodes{
        microserver(), power::ServerPowerConfig{8, 2.0, 10.0, 5.0},
        microserver()};
    Cluster c(nodes);
    auto a = c.createContainer("a", 1.0);
    auto b = c.createContainer("b", 2.0);
    auto g = c.createContainer("g", 1.0);
    ASSERT_TRUE(a && b && g);
    c.setDemand(*a, 0.5);
    c.setDemand(*b, 1.0);
    c.setGpuUtil(*g, 0.75);
    double expect = 0.0;
    std::vector<double> core(nodes.size(), 0.0), gpu(nodes.size(), 0.0);
    for (ContainerId id : {*a, *b, *g}) {
        const Container k = c.container(id);
        core[static_cast<std::size_t>(k.node)] +=
            std::min(k.demand, k.util_cap) * k.cores;
        gpu[static_cast<std::size_t>(k.node)] =
            std::max(gpu[static_cast<std::size_t>(k.node)], k.gpu_util);
    }
    for (std::size_t i = 0; i < nodes.size(); ++i)
        expect += c.node(static_cast<int>(i))
                      .model.nodePowerW(core[i], gpu[i]);

    EXPECT_EQ(c.totalPowerW(), expect);
    const std::int64_t before = g_news.load();
    EXPECT_EQ(c.totalPowerW(), expect);
    EXPECT_EQ(g_news.load(), before);
}

TEST(Cluster, UnknownIdIsFatal)
{
    Cluster c(1, microserver());
    EXPECT_THROW(c.container(42), FatalError);
    EXPECT_THROW(c.setDemand(42, 1.0), FatalError);
    EXPECT_THROW(c.setUtilizationCap(42, 1.0), FatalError);
    EXPECT_THROW(c.containerPowerW(42), FatalError);
}

TEST(Cluster, InvalidArgumentsFatal)
{
    EXPECT_THROW(Cluster(0, microserver()), FatalError);
    Cluster c(1, microserver());
    EXPECT_THROW(c.createContainer("a", 0.0), FatalError);
    EXPECT_THROW(c.node(5), FatalError);
}

/**
 * Property: for any mix of containers, the sum of per-container
 * attributed power plus unallocated idle equals total cluster power.
 */
class PowerAccounting : public ::testing::TestWithParam<int>
{
};

TEST_P(PowerAccounting, AttributionIsComplete)
{
    int n_containers = GetParam();
    Cluster c(4, microserver());
    std::vector<ContainerId> ids;
    for (int i = 0; i < n_containers; ++i) {
        auto id = c.createContainer("app" + std::to_string(i % 3), 1.0);
        if (!id)
            break;
        c.setDemand(*id, 0.1 * static_cast<double>(i % 11));
        ids.push_back(*id);
    }
    double attributed = 0.0;
    double cores_allocated = 0.0;
    for (auto id : ids) {
        attributed += c.containerPowerW(id);
        cores_allocated += c.container(id).cores;
    }
    double unallocated_idle =
        (c.totalCores() - cores_allocated) * (1.35 / 4.0);
    EXPECT_NEAR(attributed + unallocated_idle, c.totalPowerW(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PowerAccounting,
                         ::testing::Values(0, 1, 3, 8, 16));

} // namespace
} // namespace ecov::cop
