/**
 * @file
 * Placement differential suite. Cluster::createContainer finds its
 * node by descending a tournament tree; it must pick exactly the node
 * the LXD default scheduler's linear scan picks (fewest instances
 * among nodes with room, lowest index on ties) and refuse exactly
 * when the scan finds no node. Seeded create/destroy/setCores churn
 * on heterogeneous clusters, with mixed core counts, full nodes and
 * requests no node can take, checks every create against a local
 * copy of the scan, before and after a restoreState.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cop/cluster.h"
#include "util/rng.h"

namespace ecov::cop {
namespace {

/** The scheduler as a scan of every node: the reference. */
int
scanPick(const Cluster &c, double cores)
{
    int best = -1;
    for (int i = 0; i < c.nodeCount(); ++i) {
        if (c.node(i).freeCores() + 1e-9 < cores)
            continue;
        if (best < 0 || c.node(i).instances < c.node(best).instances)
            best = i;
    }
    return best;
}

power::ServerPowerConfig
nodeWith(int cores, double gpu_peak_w = 0.0)
{
    power::ServerPowerConfig cfg;
    cfg.cores = cores;
    cfg.gpu_peak_w = gpu_peak_w;
    return cfg;
}

std::vector<power::ServerPowerConfig>
mixedNodes(Rng &rng, int n)
{
    static constexpr int kCores[] = {1, 2, 4, 6, 8, 16};
    std::vector<power::ServerPowerConfig> out;
    for (int i = 0; i < n; ++i)
        out.push_back(nodeWith(kCores[rng.uniformInt(0, 5)],
                               rng.bernoulli(0.25) ? 5.0 : 0.0));
    return out;
}

/** Create through the tree and check the node against the scan. */
void
createAndCheck(Cluster &c, std::vector<ContainerId> &live, double cores)
{
    const int want = scanPick(c, cores);
    const auto id = c.createContainer("app", cores);
    if (want < 0) {
        EXPECT_FALSE(id) << "cores " << cores;
        return;
    }
    ASSERT_TRUE(id) << "cores " << cores << ": the scan picks " << want;
    EXPECT_EQ(c.container(*id).node, want) << "cores " << cores;
    live.push_back(*id);
}

std::size_t
pickIndex(Rng &rng, const std::vector<ContainerId> &live)
{
    return static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
}

/**
 * Seeded churn: creates of mostly fitting, some fractional and a few
 * oversized requests; destroys; and setCores resizes (which may be
 * refused), so free cores drift through sums that do not round
 * exactly and the scheduler's 1e-9 slack matters.
 */
void
churn(Cluster &c, Rng &rng, std::vector<ContainerId> &live, int steps)
{
    static constexpr double kCores[] = {0.25, 0.5, 1.0, 1.0, 1.5,
                                        2.0,  3.0, 4.0, 7.5, 17.0};
    for (int step = 0; step < steps; ++step) {
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.5 || live.empty()) {
            createAndCheck(c, live, kCores[rng.uniformInt(0, 9)]);
        } else if (roll < 0.8) {
            const std::size_t k = pickIndex(rng, live);
            c.destroyContainer(live[k]);
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
        } else {
            c.setCores(live[pickIndex(rng, live)], rng.uniform(0.1, 6.0));
        }
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(CopPlacement, TreeMatchesLinearScanUnderChurn)
{
    // Node counts include 1 and non-powers of two, so the tree has
    // both a single leaf and padding leaves.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const int nodes = static_cast<int>(rng.uniformInt(1, 40));
        Cluster c(mixedNodes(rng, nodes));
        std::vector<ContainerId> live;
        churn(c, rng, live, 3000);
        if (HasFatalFailure())
            return;
    }
}

TEST(CopPlacement, TreeMatchesLinearScanAfterRestore)
{
    Rng rng(99);
    const auto nodes = mixedNodes(rng, 13);
    Cluster a(nodes);
    std::vector<ContainerId> live;
    churn(a, rng, live, 800);
    ASSERT_FALSE(HasFatalFailure());

    // The target already holds a container of its own: restore must
    // rebuild the tree from the image, not from what it had.
    Cluster b(nodes);
    ASSERT_TRUE(b.createContainer("other", 1.0));
    b.restoreState(a.captureState());

    // Same stream on both: every pick still matches the scan, and
    // the two clusters stay in step.
    Rng ra(7), rb(7);
    std::vector<ContainerId> live_a = live, live_b = live;
    churn(a, ra, live_a, 800);
    churn(b, rb, live_b, 800);
    EXPECT_EQ(live_a, live_b);
    for (ContainerId id : live_a)
        EXPECT_EQ(a.container(id).node, b.container(id).node) << id;
}

TEST(CopPlacement, TiesGoToLowestIndexAndFullNodesAreSkipped)
{
    Cluster c({nodeWith(2), nodeWith(4), nodeWith(2)});
    std::vector<ContainerId> live;
    // Round-robin over equal instance counts, lowest index first.
    for (int want : {0, 1, 2, 0, 1, 2}) {
        createAndCheck(c, live, 1.0);
        ASSERT_EQ(c.container(live.back()).node, want);
    }
    // Nodes 0 and 2 are full; node 1 takes every fitting request.
    createAndCheck(c, live, 1.0);
    EXPECT_EQ(c.container(live.back()).node, 1);
    // Nothing has 1.5 cores left: refused, exactly as the scan does.
    createAndCheck(c, live, 1.5);
    EXPECT_EQ(c.containerCount(), 7);
    // Freeing a node's room makes it the least loaded again.
    c.destroyContainer(live[2]); // node 2
    createAndCheck(c, live, 1.0);
    EXPECT_EQ(c.container(live.back()).node, 2);
}

} // namespace
} // namespace ecov::cop
