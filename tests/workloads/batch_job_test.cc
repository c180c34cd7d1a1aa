/**
 * @file
 * Batch job tests: scaling curves, suspend/resume, progress and
 * completion accounting.
 */

#include <gtest/gtest.h>

#include "util/logging.h"
#include "workloads/batch_job.h"

namespace ecov::wl {
namespace {

cop::Cluster
makeCluster(int nodes = 16)
{
    return cop::Cluster(nodes, power::ServerPowerConfig{4, 1.35, 5.0, 0.0});
}

BatchJobConfig
linearJob(const std::string &app, double work, int base = 4)
{
    BatchJobConfig cfg;
    cfg.app = app;
    cfg.total_work = work;
    cfg.base_workers = base;
    cfg.speedup = [](double s) { return s; };
    return cfg;
}

TEST(SpeedupCurves, SyncOverheadShape)
{
    auto f = syncOverheadSpeedup(0.30);
    EXPECT_DOUBLE_EQ(f(1.0), 1.0);
    // 2x helps noticeably, 3x adds little more: the ML shape.
    EXPECT_GT(f(2.0), 1.4);
    EXPECT_LT(f(3.0) - f(2.0), f(2.0) - f(1.0));
    EXPECT_DOUBLE_EQ(f(0.0), 0.0);
}

TEST(SpeedupCurves, BottleneckSaturates)
{
    auto f = bottleneckSpeedup(0.95, 3.0);
    EXPECT_DOUBLE_EQ(f(1.0), 1.0);
    EXPECT_NEAR(f(2.0), 1.95, 1e-12);
    EXPECT_NEAR(f(3.0), 2.90, 1e-12);
    // Beyond saturation nothing improves (BLAST's queue server).
    EXPECT_DOUBLE_EQ(f(4.0), f(3.0));
}

TEST(SpeedupCurves, InvalidParamsFatal)
{
    EXPECT_THROW(syncOverheadSpeedup(-0.1), FatalError);
    EXPECT_THROW(bottleneckSpeedup(0.0, 3.0), FatalError);
    EXPECT_THROW(bottleneckSpeedup(0.5, 0.5), FatalError);
}

TEST(BatchJob, StartCreatesBaseWorkers)
{
    auto cluster = makeCluster();
    BatchJob job(&cluster, linearJob("ml", 1000.0));
    EXPECT_FALSE(job.running());
    job.start(0);
    EXPECT_TRUE(job.running());
    EXPECT_EQ(job.containers().size(), 4u);
    EXPECT_EQ(cluster.appContainers(cluster.findAppIndex("ml")).size(), 4u);
}

TEST(BatchJob, ProgressAndCompletion)
{
    auto cluster = makeCluster();
    // 4 base workers at linear speedup: rate 4 work/s -> 100 s total.
    BatchJob job(&cluster, linearJob("ml", 400.0));
    job.start(0);
    job.onTick(0, 50);
    EXPECT_NEAR(job.progress(), 0.5, 1e-9);
    EXPECT_FALSE(job.done());
    job.onTick(50, 50);
    EXPECT_TRUE(job.done());
    EXPECT_EQ(job.completionTime(), 100);
    EXPECT_EQ(job.runtime(), 100);
    // Containers released on completion.
    EXPECT_EQ(cluster.appContainers(cluster.findAppIndex("ml")).size(), 0u);
}

TEST(BatchJob, SuspendReleasesContainersAndHaltsProgress)
{
    auto cluster = makeCluster();
    BatchJob job(&cluster, linearJob("ml", 400.0));
    job.start(0);
    job.onTick(0, 10);
    double p = job.progress();
    job.suspend();
    EXPECT_EQ(cluster.appContainers(cluster.findAppIndex("ml")).size(), 0u);
    job.onTick(10, 1000);
    EXPECT_DOUBLE_EQ(job.progress(), p);
    job.resume();
    EXPECT_EQ(cluster.appContainers(cluster.findAppIndex("ml")).size(), 4u);
}

TEST(BatchJob, ScaleChangesWorkerCount)
{
    auto cluster = makeCluster();
    BatchJob job(&cluster, linearJob("ml", 4000.0));
    job.start(0);
    job.setScale(2.0);
    EXPECT_EQ(job.containers().size(), 8u);
    job.setScale(0.5);
    EXPECT_EQ(job.containers().size(), 2u);
    // While suspended, scale applies on resume.
    job.suspend();
    job.setScale(3.0);
    EXPECT_EQ(job.containers().size(), 0u);
    job.resume();
    EXPECT_EQ(job.containers().size(), 12u);
}

TEST(BatchJob, ScaledRunIsFasterForLinearJobs)
{
    auto cluster = makeCluster();
    BatchJob base(&cluster, linearJob("a", 4000.0));
    BatchJob scaled(&cluster, linearJob("b", 4000.0));
    base.start(0);
    scaled.start(0);
    scaled.setScale(2.0);
    TimeS t = 0;
    while (!base.done() || !scaled.done()) {
        base.onTick(t, 10);
        scaled.onTick(t, 10);
        t += 10;
        ASSERT_LT(t, 100000);
    }
    EXPECT_LT(scaled.completionTime(), base.completionTime());
    EXPECT_NEAR(static_cast<double>(base.runtime()) /
                    static_cast<double>(scaled.runtime()),
                2.0, 0.1);
}

TEST(BatchJob, UtilizationCapSlowsProgress)
{
    auto cluster = makeCluster();
    BatchJob job(&cluster, linearJob("ml", 400.0));
    job.start(0);
    for (cop::ContainerId id : job.containers())
        cluster.setUtilizationCap(id, 0.5);
    job.onTick(0, 50);
    // Half speed: 4 workers x 0.5 x 50 s = 100 of 400.
    EXPECT_NEAR(job.progress(), 0.25, 1e-9);
}

TEST(BatchJob, PaperConfigs)
{
    auto ml = mlTrainingConfig("ml");
    EXPECT_EQ(ml.base_workers, 4);
    EXPECT_GT(ml.speedup(2.0), 1.0);
    auto blast = blastConfig("blast");
    EXPECT_EQ(blast.base_workers, 8);
    EXPECT_DOUBLE_EQ(blast.speedup(4.0), blast.speedup(3.0));
}

TEST(BatchJob, InvalidUseFatal)
{
    auto cluster = makeCluster();
    EXPECT_THROW(BatchJob(nullptr, linearJob("x", 1.0)), FatalError);
    BatchJobConfig bad = linearJob("x", 1.0);
    bad.speedup = nullptr;
    EXPECT_THROW(BatchJob(&cluster, bad), FatalError);

    BatchJob job(&cluster, linearJob("x", 1.0));
    EXPECT_THROW(job.resume(), FatalError);
    job.start(0);
    EXPECT_THROW(job.start(0), FatalError);
    EXPECT_THROW(job.setScale(0.0), FatalError);
}

/** Property: runtime is non-increasing in scale for linear scaling. */
class ScaleMonotonicity : public ::testing::TestWithParam<double>
{
};

TEST_P(ScaleMonotonicity, FasterOrEqualWithMoreWorkers)
{
    double scale = GetParam();
    auto cluster = makeCluster(32);
    BatchJob base(&cluster, linearJob("a", 8000.0));
    BatchJob scaled(&cluster, linearJob("b", 8000.0));
    base.start(0);
    scaled.start(0);
    scaled.setScale(scale);
    TimeS t = 0;
    while (!base.done() || !scaled.done()) {
        base.onTick(t, 10);
        scaled.onTick(t, 10);
        t += 10;
        ASSERT_LT(t, 1000000);
    }
    EXPECT_LE(scaled.runtime(), base.runtime());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScaleMonotonicity,
                         ::testing::Values(1.0, 1.5, 2.0, 3.0, 4.0));

} // namespace
} // namespace ecov::wl
