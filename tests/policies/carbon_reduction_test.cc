/**
 * @file
 * Carbon-reduction policy tests (suspend/resume, Wait&Scale) against
 * a square-wave carbon signal where behaviour is exactly predictable.
 */

#include <gtest/gtest.h>

#include <memory>

#include "carbon/carbon_signal.h"
#include "common/rig.h"
#include "core/ecovisor.h"
#include "policies/carbon_reduction.h"
#include "util/logging.h"
#include "workloads/batch_job.h"

namespace ecov::policy {
namespace {

/** Carbon alternates low (100) / high (300) every hour. */
struct Rig : testutil::Rig
{
    Rig()
        : testutil::Rig([] {
              testutil::RigOptions o;
              o.signal_points = {{0, 100.0}, {3600, 300.0}};
              o.signal_period = 7200;
              o.use_solar = false;
              o.nodes = 16;
              o.physical_battery = std::nullopt;
              return o;
          }())
    {
        core::AppShareConfig share; // grid-only app
        app = eco.tryAddApp("job", share).value();
    }

    /** One full tick: policy, workload, settle. */
    void
    tick(wl::BatchJob &job, BatchPolicy &policy, TimeS t, TimeS dt = 60)
    {
        policy.onTick(t, dt);
        job.onTick(t, dt);
        eco.settleTick(t, dt);
    }

    api::AppHandle app;
};

wl::BatchJobConfig
linearJob(double work)
{
    wl::BatchJobConfig cfg;
    cfg.app = "job";
    cfg.total_work = work;
    cfg.base_workers = 4;
    cfg.speedup = [](double s) { return s; };
    return cfg;
}

TEST(CarbonAgnosticPolicy, RunsStraightThrough)
{
    Rig rig;
    wl::BatchJob job(&rig.cluster, linearJob(4.0 * 1800.0));
    job.start(0);
    CarbonAgnosticPolicy policy(&rig.eco, &job);
    TimeS t = 0;
    while (!job.done()) {
        rig.tick(job, policy, t);
        t += 60;
        ASSERT_LT(t, 100000);
    }
    // Linear at base scale: exactly 1800 s regardless of carbon.
    EXPECT_EQ(job.runtime(), 1800);
}

TEST(SuspendResumePolicy, PausesInHighCarbon)
{
    Rig rig;
    // Two hours of work at base scale.
    wl::BatchJob job(&rig.cluster, linearJob(4.0 * 7200.0));
    job.start(0);
    SuspendResumePolicy policy(&rig.eco, &job, 200.0);
    // First hour: low carbon, job runs.
    TimeS t = 0;
    for (; t < 3600; t += 60)
        rig.tick(job, policy, t);
    double p_low = job.progress();
    EXPECT_NEAR(p_low, 0.5, 0.02);
    // Second hour: high carbon, no progress.
    for (; t < 7200; t += 60)
        rig.tick(job, policy, t);
    EXPECT_NEAR(job.progress(), p_low, 1e-9);
    EXPECT_FALSE(job.running());
    // Third hour (wraps to low): resumes and finishes.
    for (; t < 10800 && !job.done(); t += 60)
        rig.tick(job, policy, t);
    EXPECT_TRUE(job.done());
}

TEST(SuspendResumePolicy, EmitsNoCarbonWhileSuspended)
{
    Rig rig;
    wl::BatchJob job(&rig.cluster, linearJob(1e9));
    job.start(0);
    SuspendResumePolicy policy(&rig.eco, &job, 200.0);
    TimeS t = 0;
    for (; t < 3600; t += 60)
        rig.tick(job, policy, t);
    double carbon_after_low = rig.eco.ves(rig.app)->totalCarbonG();
    for (; t < 7200; t += 60)
        rig.tick(job, policy, t);
    EXPECT_NEAR(rig.eco.ves(rig.app)->totalCarbonG(), carbon_after_low,
                1e-9);
}

TEST(WaitAndScalePolicy, ResumesAtScale)
{
    Rig rig;
    wl::BatchJob job(&rig.cluster, linearJob(1e9));
    job.start(0);
    WaitAndScalePolicy policy(&rig.eco, &job, 200.0, 2.0);
    rig.tick(job, policy, 0);
    EXPECT_EQ(job.containers().size(), 8u); // 2x the 4 base workers
    // Advance the settled clock into the high-carbon hour, then tick:
    // it suspends like WaitAWhile.
    rig.eco.settleTick(3600 - 60, 60);
    rig.tick(job, policy, 3600);
    EXPECT_FALSE(job.running());
}

TEST(WaitAndScalePolicy, FasterThanSuspendResumeForLinearJobs)
{
    auto runtimeWith = [](double scale) {
        Rig rig;
        wl::BatchJob job(&rig.cluster, linearJob(4.0 * 5400.0));
        job.start(0);
        std::unique_ptr<BatchPolicy> policy;
        if (scale <= 1.0) {
            policy = std::make_unique<SuspendResumePolicy>(&rig.eco,
                                                           &job, 200.0);
        } else {
            policy = std::make_unique<WaitAndScalePolicy>(
                &rig.eco, &job, 200.0, scale);
        }
        TimeS t = 0;
        while (!job.done()) {
            rig.tick(job, *policy, t);
            t += 60;
            EXPECT_LT(t, 10000000);
        }
        return job.runtime();
    };
    // Linear scaling: W&S(2x) roughly halves time-in-clean-periods.
    EXPECT_LT(runtimeWith(2.0), runtimeWith(1.0));
    EXPECT_LE(runtimeWith(3.0), runtimeWith(2.0));
}

TEST(WaitAndScalePolicy, SameCarbonThresholdMeansLowIntensityOnly)
{
    Rig rig;
    wl::BatchJob job(&rig.cluster, linearJob(4.0 * 5400.0));
    job.start(0);
    WaitAndScalePolicy policy(&rig.eco, &job, 200.0, 2.0);
    TimeS t = 0;
    while (!job.done()) {
        rig.tick(job, policy, t);
        // The job only ever runs when intensity is at or below the
        // threshold, so all emissions happen at 100 g/kWh.
        if (job.running()) {
            EXPECT_LE(rig.eco.getGridCarbon(), 200.0);
        }
        t += 60;
        ASSERT_LT(t, 10000000);
    }
}

TEST(Policies, InvalidConstructionFatal)
{
    Rig rig;
    wl::BatchJob job(&rig.cluster, linearJob(100.0));
    EXPECT_THROW(SuspendResumePolicy(nullptr, &job, 100.0), FatalError);
    EXPECT_THROW(SuspendResumePolicy(&rig.eco, nullptr, 100.0),
                 FatalError);
    EXPECT_THROW(SuspendResumePolicy(&rig.eco, &job, 0.0), FatalError);
    EXPECT_THROW(WaitAndScalePolicy(&rig.eco, &job, 100.0, 0.5),
                 FatalError);
}

} // namespace
} // namespace ecov::policy
