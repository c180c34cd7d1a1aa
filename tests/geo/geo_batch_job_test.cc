/**
 * @file
 * Geo-migratable batch job tests: migration mechanics, stall costs,
 * and the location-shifting policy.
 */

#include <gtest/gtest.h>

#include "carbon/carbon_signal.h"
#include "geo/geo_batch_job.h"
#include "util/logging.h"

namespace ecov::geo {
namespace {

/** Site with a programmable square-wave carbon signal. */
struct TestSite
{
    carbon::TraceCarbonSignal signal;
    energy::GridConnection grid;
    cop::Cluster cluster;
    energy::PhysicalEnergySystem phys;
    core::Ecovisor eco;

    explicit TestSite(std::vector<carbon::TraceCarbonSignal::Point> pts,
                      TimeS period = 0)
        : signal(std::move(pts), period), grid(&signal),
          cluster(8, power::ServerPowerConfig{4, 1.35, 5.0, 0.0}),
          phys(&grid, nullptr, std::nullopt), eco(&cluster, &phys)
    {
        job = eco.tryAddApp("job", core::AppShareConfig{}).value();
    }

    void
    settle(TimeS t, TimeS dt = 60)
    {
        eco.settleTick(t, dt);
    }

    /** Live containers of the site's "job" app. */
    std::size_t
    jobContainers() const
    {
        return static_cast<std::size_t>(
            cluster.appContainerCount(eco.copAppIndex(job)));
    }

    api::AppHandle job;
};

GeoBatchJobConfig
jobConfig(double work = 4.0 * 600.0, TimeS delay = 120)
{
    GeoBatchJobConfig cfg;
    cfg.total_work = work;
    cfg.workers = 4;
    cfg.migration_delay_s = delay;
    return cfg;
}

TEST(GeoBatchJob, RunsAtOneSite)
{
    TestSite a({{0, 100.0}});
    TestSite b({{0, 300.0}});
    GeoCoordinator coord(
        {{"a", &a.eco, "job"}, {"b", &b.eco, "job"}});
    GeoBatchJob job(&coord, jobConfig());
    job.start(0, 0);
    EXPECT_EQ(job.activeSite(), 0);
    EXPECT_EQ(a.jobContainers(), 4u);
    EXPECT_EQ(b.jobContainers(), 0u);
    // 4 workers x 600 s of work at rate 4/s -> 600 s.
    TimeS t = 0;
    while (!job.done()) {
        job.onTick(t, 60);
        t += 60;
        ASSERT_LT(t, 100000);
    }
    EXPECT_EQ(job.runtime(), 600);
    EXPECT_EQ(a.jobContainers(), 0u);
}

TEST(GeoBatchJob, MigrationMovesContainers)
{
    TestSite a({{0, 100.0}});
    TestSite b({{0, 300.0}});
    GeoCoordinator coord(
        {{"a", &a.eco, "job"}, {"b", &b.eco, "job"}});
    GeoBatchJob job(&coord, jobConfig(1e9));
    job.start(0, 0);
    job.migrate(1, 0);
    EXPECT_EQ(job.activeSite(), 1);
    EXPECT_EQ(job.migrations(), 1);
    EXPECT_EQ(a.jobContainers(), 0u);
    EXPECT_EQ(b.jobContainers(), 4u);
    // Migrating to the current site is a no-op.
    job.migrate(1, 0);
    EXPECT_EQ(job.migrations(), 1);
}

TEST(GeoBatchJob, MigrationStallsProgress)
{
    TestSite a({{0, 100.0}});
    TestSite b({{0, 300.0}});
    GeoCoordinator coord(
        {{"a", &a.eco, "job"}, {"b", &b.eco, "job"}});
    GeoBatchJob job(&coord, jobConfig(1e9, 120));
    job.start(0, 0);
    job.onTick(0, 60);
    double p = job.progress();
    EXPECT_GT(p, 0.0);
    job.migrate(1, 60);
    // Two ticks of stall (120 s delay): no progress.
    job.onTick(60, 60);
    job.onTick(120, 60);
    EXPECT_DOUBLE_EQ(job.progress(), p);
    // After the stall, progress resumes at the destination.
    job.onTick(180, 60);
    EXPECT_GT(job.progress(), p);
}

TEST(GeoShiftPolicy, MovesTowardCleanSite)
{
    // Site a: clean then dirty; site b: dirty then clean.
    TestSite a({{0, 100.0}, {3600, 400.0}}, 7200);
    TestSite b({{0, 400.0}, {3600, 100.0}}, 7200);
    GeoCoordinator coord(
        {{"a", &a.eco, "job"}, {"b", &b.eco, "job"}});
    GeoBatchJob job(&coord, jobConfig(1e9, 60));
    GeoShiftPolicy policy(&coord, &job, 25.0);

    job.start(0, 0);
    policy.onTick(0, 60);
    EXPECT_EQ(job.activeSite(), 0); // a is clean: stay

    // Cross into hour 2: a becomes dirty, b clean.
    a.settle(3600 - 60, 60);
    b.settle(3600 - 60, 60);
    policy.onTick(3600, 60);
    EXPECT_EQ(job.activeSite(), 1);
    EXPECT_EQ(job.migrations(), 1);
}

TEST(GeoShiftPolicy, HysteresisPreventsThrashing)
{
    TestSite a({{0, 100.0}});
    TestSite b({{0, 90.0}}); // only 10 g/kWh better
    GeoCoordinator coord(
        {{"a", &a.eco, "job"}, {"b", &b.eco, "job"}});
    GeoBatchJob job(&coord, jobConfig(1e9));
    GeoShiftPolicy policy(&coord, &job, 25.0);
    job.start(0, 0);
    policy.onTick(0, 60);
    EXPECT_EQ(job.activeSite(), 0); // below hysteresis: no move
}

TEST(GeoShiftPolicy, CarbonBenefitEndToEnd)
{
    // Anti-correlated square waves: a geo-shifting job should emit
    // close to the clean-side intensity; a pinned job averages both.
    auto runWith = [](bool shift) {
        TestSite a({{0, 100.0}, {3600, 400.0}}, 7200);
        TestSite b({{0, 400.0}, {3600, 100.0}}, 7200);
        GeoCoordinator coord(
            {{"a", &a.eco, "job"}, {"b", &b.eco, "job"}});
        GeoBatchJob job(&coord, jobConfig(4.0 * 6.0 * 3600.0, 300));
        GeoShiftPolicy policy(&coord, &job, 25.0);
        job.start(0, 0);
        TimeS t = 0;
        while (!job.done()) {
            if (shift)
                policy.onTick(t, 60);
            job.onTick(t, 60);
            a.settle(t);
            b.settle(t);
            t += 60;
            if (t > 40 * 3600)
                break;
        }
        return coord.totalCarbonG();
    };
    double pinned = runWith(false);
    double shifted = runWith(true);
    EXPECT_LT(shifted, pinned * 0.75);
}

TEST(GeoBatchJob, InvalidUseFatal)
{
    TestSite a({{0, 100.0}});
    GeoCoordinator coord({{"a", &a.eco, "job"}});
    EXPECT_THROW(GeoBatchJob(nullptr, jobConfig()), FatalError);
    GeoBatchJobConfig bad = jobConfig();
    bad.total_work = 0.0;
    EXPECT_THROW(GeoBatchJob(&coord, bad), FatalError);
    GeoBatchJob job(&coord, jobConfig());
    EXPECT_THROW(job.migrate(0, 0), FatalError); // before start
    job.start(0, 0);
    EXPECT_THROW(job.start(0, 0), FatalError);
    EXPECT_THROW(job.migrate(5, 0), FatalError);
}

} // namespace
} // namespace ecov::geo
