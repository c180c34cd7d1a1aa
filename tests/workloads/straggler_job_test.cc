/**
 * @file
 * Straggler job tests: rounds, barriers, straggler injection,
 * replicas.
 */

#include <gtest/gtest.h>

#include "util/logging.h"
#include "workloads/straggler_job.h"

namespace ecov::wl {
namespace {

cop::Cluster
makeCluster(int nodes = 24)
{
    return cop::Cluster(nodes, power::ServerPowerConfig{4, 1.35, 5.0, 0.0});
}

StragglerJobConfig
config(int workers = 4, int rounds = 2, double round_work = 120.0)
{
    StragglerJobConfig cfg;
    cfg.app = "par";
    cfg.workers = workers;
    cfg.rounds = rounds;
    cfg.round_work = round_work;
    cfg.straggler_prob = 0.0;
    return cfg;
}

TEST(StragglerJob, StartCreatesWorkers)
{
    auto cluster = makeCluster();
    StragglerJob job(&cluster, config());
    job.start(0);
    EXPECT_EQ(job.containers().size(), 4u);
    EXPECT_EQ(job.round(), 0);
    EXPECT_FALSE(job.done());
}

TEST(StragglerJob, UniformWorkersFinishRoundsTogether)
{
    auto cluster = makeCluster();
    // 120 core-seconds per round at full speed: 2 ticks of 60 s.
    StragglerJob job(&cluster, config(4, 3, 120.0));
    job.start(0);
    TimeS t = 0;
    while (!job.done()) {
        job.onTick(t, 60);
        t += 60;
        ASSERT_LT(t, 100000);
    }
    // 3 rounds x 2 ticks = 6 ticks.
    EXPECT_EQ(job.completionTime(), 6 * 60);
}

TEST(StragglerJob, StragglerDelaysBarrier)
{
    auto cluster = makeCluster();
    StragglerJobConfig cfg = config(4, 1, 120.0);
    cfg.straggler_prob = 1.0; // every worker straggles
    cfg.straggler_rate = 0.5;
    StragglerJob slow(&cluster, cfg);
    StragglerJob fast(&cluster, config(4, 1, 120.0));
    slow.start(0);
    fast.start(0);
    TimeS t = 0;
    while (!slow.done() || !fast.done()) {
        slow.onTick(t, 60);
        fast.onTick(t, 60);
        t += 60;
        ASSERT_LT(t, 100000);
    }
    EXPECT_GT(slow.completionTime(), fast.completionTime());
}

TEST(StragglerJob, WaitingWorkersDropToIoDemand)
{
    auto cluster = makeCluster();
    StragglerJobConfig cfg = config(2, 1, 120.0);
    cfg.seed = 3;
    StragglerJob job(&cluster, cfg);
    job.start(0);
    // Slow one worker by capping it; the other finishes first and
    // waits at the barrier with I/O-level demand.
    auto ids = job.containers();
    cluster.setUtilizationCap(ids[0], 0.25);
    job.onTick(0, 60);
    job.onTick(60, 60); // worker 1 done (120 cs), worker 0 at 30 cs
    auto st = job.status();
    EXPECT_TRUE(st[0].computing);
    EXPECT_FALSE(st[1].computing);
    job.onTick(120, 60);
    EXPECT_NEAR(cluster.container(ids[1]).demand, cfg.io_demand, 1e-9);
}

TEST(StragglerJob, ReplicaFinishesRoundForStraggler)
{
    auto cluster = makeCluster();
    StragglerJobConfig cfg = config(2, 1, 120.0);
    StragglerJob job(&cluster, cfg);
    job.start(0);
    auto ids = job.containers();
    // Nearly stall worker 0.
    cluster.setUtilizationCap(ids[0], 0.01);
    job.onTick(0, 60);
    // Issue a replica for the stalled worker: it runs at full speed.
    EXPECT_TRUE(job.addReplica(0));
    EXPECT_EQ(job.replicasIssued(), 1);
    EXPECT_FALSE(job.addReplica(0)); // one replica max
    TimeS t = 60;
    while (!job.done()) {
        job.onTick(t, 60);
        t += 60;
        ASSERT_LT(t, 100000);
    }
    // The replica needed 2 ticks from t=60: finished well before the
    // ~200 ticks the stalled original would have taken.
    EXPECT_LE(job.completionTime(), 5 * 60);
}

TEST(StragglerJob, ReplicaContainersAreCleanedUp)
{
    auto cluster = makeCluster();
    StragglerJob job(&cluster, config(2, 1, 120.0));
    job.start(0);
    auto ids = job.containers();
    cluster.setUtilizationCap(ids[0], 0.01);
    job.onTick(0, 60);
    ASSERT_TRUE(job.addReplica(0));
    EXPECT_EQ(cluster.appContainers(cluster.findAppIndex("par")).size(), 3u);
    TimeS t = 60;
    while (!job.done()) {
        job.onTick(t, 60);
        t += 60;
        ASSERT_LT(t, 100000);
    }
    // Replicas destroyed at round end.
    for (const auto &st : job.status())
        EXPECT_FALSE(st.has_replica);
}

TEST(StragglerJob, AddReplicaOnFinishedWorkerIsNoop)
{
    auto cluster = makeCluster();
    StragglerJob job(&cluster, config(2, 2, 60.0));
    job.start(0);
    job.onTick(0, 60); // both finish round 0's work in one tick ->
                       // round advances, all reset to computing
    // Stall worker 1 and let worker 0 finish round 1.
    auto ids = job.containers();
    cluster.setUtilizationCap(ids[0], 1.0);
    cluster.setUtilizationCap(ids[1], 0.01);
    job.onTick(60, 60);
    auto st = job.status();
    ASSERT_FALSE(st[0].computing);
    EXPECT_FALSE(job.addReplica(0)); // finished: no replica
    EXPECT_TRUE(job.addReplica(1));
}

TEST(StragglerJob, DeterministicStragglerInjection)
{
    auto run = [](std::uint64_t seed) {
        auto cluster = makeCluster();
        StragglerJobConfig cfg = config(8, 4, 120.0);
        cfg.straggler_prob = 0.3;
        cfg.seed = seed;
        StragglerJob job(&cluster, cfg);
        job.start(0);
        TimeS t = 0;
        while (!job.done()) {
            job.onTick(t, 60);
            t += 60;
        }
        return job.completionTime();
    };
    EXPECT_EQ(run(5), run(5));
}

TEST(StragglerJob, InvalidUseFatal)
{
    auto cluster = makeCluster();
    EXPECT_THROW(StragglerJob(nullptr, config()), FatalError);
    StragglerJobConfig bad = config();
    bad.workers = 0;
    EXPECT_THROW(StragglerJob(&cluster, bad), FatalError);
    bad = config();
    bad.straggler_prob = 1.5;
    EXPECT_THROW(StragglerJob(&cluster, bad), FatalError);
    StragglerJob job(&cluster, config());
    job.start(0);
    EXPECT_THROW(job.start(0), FatalError);
    EXPECT_THROW(job.addReplica(99), FatalError);
}

/**
 * Property: higher straggler probability never shortens completion
 * (statistically, with fixed seeds).
 */
class StragglerSeverity : public ::testing::TestWithParam<double>
{
};

TEST_P(StragglerSeverity, RuntimeGrowsWithStragglerRate)
{
    auto runWith = [](double prob) {
        auto cluster = makeCluster();
        StragglerJobConfig cfg = config(8, 6, 240.0);
        cfg.straggler_prob = prob;
        cfg.straggler_rate = 0.4;
        cfg.seed = 77;
        StragglerJob job(&cluster, cfg);
        job.start(0);
        TimeS t = 0;
        while (!job.done()) {
            job.onTick(t, 60);
            t += 60;
        }
        return job.completionTime();
    };
    EXPECT_GE(runWith(GetParam()), runWith(0.0));
}

INSTANTIATE_TEST_SUITE_P(Probabilities, StragglerSeverity,
                         ::testing::Values(0.2, 0.5, 0.9));

} // namespace
} // namespace ecov::wl
