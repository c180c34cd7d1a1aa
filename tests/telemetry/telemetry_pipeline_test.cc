/**
 * @file
 * The interned telemetry pipeline end to end: the SeriesId fast path
 * must be bit-identical to a test-only string-keyed reference recorder
 * on a seeded churny simulation, sharded recording must be
 * bit-identical to sequential at any thread count (the docs/PERF.md
 * determinism contract extended to telemetry), and per-container
 * series caches must be generation-checked — a recycled slab slot can
 * never alias its predecessor's series.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/telemetry.h"
#include "common/rig.h"
#include "core/ecolib.h"
#include "core/ecovisor.h"
#include "telemetry/ts_database.h"
#include "util/rng.h"

namespace ecov::core {
namespace {

using testutil::Rig;
using testutil::appShare;

/** Exact equality of everything both databases expose. */
void
expectDbBitIdentical(const ts::TsDatabase &a, const ts::TsDatabase &b)
{
    const auto ka = a.keys();
    const auto kb = b.keys();
    ASSERT_EQ(ka.size(), kb.size());
    ASSERT_EQ(a.seriesCount(), b.seriesCount());
    for (std::size_t i = 0; i < ka.size(); ++i) {
        EXPECT_EQ(ka[i].measurement, kb[i].measurement);
        EXPECT_EQ(ka[i].tag, kb[i].tag);
        const ts::TimeSeries &sa =
            a.series(ka[i].measurement, ka[i].tag);
        const ts::TimeSeries &sb =
            b.series(ka[i].measurement, ka[i].tag);
        ASSERT_EQ(sa.size(), sb.size())
            << ka[i].measurement << "/" << ka[i].tag;
        for (std::size_t j = 0; j < sa.size(); ++j) {
            EXPECT_EQ(sa.samples()[j].time_s, sb.samples()[j].time_s)
                << ka[i].measurement << "/" << ka[i].tag << "[" << j
                << "]";
            EXPECT_EQ(sa.samples()[j].value, sb.samples()[j].value)
                << ka[i].measurement << "/" << ka[i].tag << "[" << j
                << "]";
        }
    }
}

/**
 * Executable reference for the recording contract: a string-keyed
 * recorder built on public state only. After each settled tick it
 * interns every series by name and appends the value the ecovisor
 * records for it — globals, then per-app and per-container series in
 * canonical (sorted-by-name) app order, containers in creation order.
 * No SeriesId caching, no slot caches, no sharding: the interned
 * pipeline must reproduce this store bit for bit.
 */
class StringKeyedRecorder
{
  public:
    explicit StringKeyedRecorder(Ecovisor *eco) : eco_(eco) {}

    /** Record the tick that settled at t_s. */
    void
    record(TimeS t_s)
    {
        energy::PhysicalEnergySystem &phys = eco_->physical();
        const cop::Cluster &cluster = eco_->cluster();
        write("grid_carbon", "", t_s, phys.gridCarbonAt(t_s));
        write("solar_w", "", t_s, phys.solarPowerAt(t_s));
        write("cluster_power_w", "", t_s, cluster.totalPowerW());

        for (const std::string &app : eco_->appNames()) {
            const api::AppHandle h = eco_->findApp(app).value();
            const VirtualEnergySystem &ves = *eco_->ves(h);
            const TickSettlement &s = ves.lastSettlement();
            write("app_power_w", app, t_s, s.demand_w);
            write("app_grid_w", app, t_s, s.grid_w);
            write("app_solar_used_w", app, t_s, s.solar_used_w);
            write("app_batt_discharge_w", app, t_s, s.batt_discharge_w);
            write("app_batt_charge_w", app, t_s,
                  s.batt_charge_solar_w + s.batt_charge_grid_w);
            write("app_carbon_g", app, t_s, s.carbon_g);
            if (ves.hasBattery())
                write("app_batt_soc", app, t_s, ves.battery().soc());
            const cop::AppIndex idx = eco_->copAppIndex(h);
            write("app_containers", app, t_s,
                  static_cast<double>(cluster.appContainerCount(idx)));
            // Carbon attributed by share of app demand.
            cluster.forEachAppContainer(idx, [&](cop::ContainerId id,
                                                 cop::ContainerRef) {
                const std::string tag = std::to_string(id);
                const double p_w = cluster.containerPowerW(id);
                write("container_power_w", tag, t_s, p_w);
                const double share =
                    s.demand_w > 1e-12 ? p_w / s.demand_w : 0.0;
                write("container_carbon_g", tag, t_s, s.carbon_g * share);
            });
        }
    }

    const ts::TsDatabase &db() const { return db_; }

  private:
    void
    write(const std::string &measurement, const std::string &tag,
          TimeS t_s, double value)
    {
        db_.append(db_.intern(measurement, tag), t_s, value);
    }

    Ecovisor *eco_;
    ts::TsDatabase db_;
};

/**
 * Drive one rig through a seeded churn+demand workload, recording
 * every settled tick into the string-keyed reference as well.
 */
struct Driver
{
    Rig rig;
    StringKeyedRecorder reference{&rig.eco};
    std::vector<std::string> names;
    std::vector<std::vector<cop::ContainerId>> pools;
    Rng rng{1234};

    explicit Driver(EcovisorOptions opts, int apps = 6)
        : rig(opts)
    {
        pools.resize(static_cast<std::size_t>(apps));
        for (int a = 0; a < apps; ++a) {
            names.push_back("app" + std::to_string(a));
            rig.eco
                .tryAddApp(names.back(),
                           appShare(0.8 / apps, 800.0 / apps))
                .value();
            auto id = rig.cluster.createContainer(names.back(), 1.0);
            if (id)
                pools[static_cast<std::size_t>(a)].push_back(*id);
        }
    }

    void
    run(int ticks)
    {
        for (int i = 0; i < ticks; ++i) {
            TimeS t = static_cast<TimeS>(i) * 60;
            for (std::size_t a = 0; a < pools.size(); ++a) {
                auto &pool = pools[a];
                // Seeded churn: every driver makes identical moves,
                // so container ids (the telemetry tags) line up.
                if (rng.bernoulli(0.15) && !pool.empty()) {
                    rig.cluster.destroyContainer(pool.front());
                    pool.erase(pool.begin());
                }
                if (rng.bernoulli(0.25)) {
                    auto id =
                        rig.cluster.createContainer(names[a], 1.0);
                    if (id)
                        pool.push_back(*id);
                }
                for (std::size_t c = 0; c < pool.size(); ++c)
                    rig.cluster.setDemand(
                        pool[c], 0.1 + 0.8 * rng.uniform(0.0, 1.0));
            }
            rig.eco.dispatchTickCallbacks(t, 60);
            rig.eco.settleTick(t, 60);
            reference.record(t);
        }
    }
};

TEST(TelemetryPipeline, SeriesIdPathEqualsStringKeyedReference)
{
    Driver d(EcovisorOptions{.threads = 1});
    d.run(150);
    expectDbBitIdentical(d.rig.eco.db(), d.reference.db());
}

TEST(TelemetryPipeline, ShardedRecordingIsBitIdentical)
{
    Driver seq(EcovisorOptions{.threads = 1});
    Driver par(EcovisorOptions{.threads = 4});
    ASSERT_EQ(par.rig.eco.settleThreads(), 4);
    seq.run(150);
    par.run(150);
    expectDbBitIdentical(seq.rig.eco.db(), par.rig.eco.db());
}

TEST(TelemetryPipeline, ShardedEqualsStringKeyedReference)
{
    // Both axes at once: 4-way sharded SeriesId recording vs the
    // sequential string-keyed reference.
    Driver par(EcovisorOptions{.threads = 4});
    ASSERT_EQ(par.rig.eco.settleThreads(), 4);
    par.run(150);
    expectDbBitIdentical(par.rig.eco.db(), par.reference.db());
}

TEST(TelemetryPipeline, RecycledSlotNeverAliasesOldSeries)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(0.5, 360.0)).ok());
    auto first = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(first);
    rig.cluster.setDemand(*first, 0.9);
    const api::ContainerHandle stale =
        api::handleOf(rig.cluster, *first);
    rig.eco.settleTick(0, 60);

    const ts::SeriesId old_power =
        rig.eco
            .containerSeriesId(stale, api::ContainerMetric::PowerW)
            .value();
    EXPECT_EQ(rig.eco.db().series(old_power).size(), 1u);

    // Destroy and recreate: the LIFO free-list recycles the slot, so
    // the new container occupies the same slot with a bumped
    // generation and a new (monotonic) id.
    rig.cluster.destroyContainer(*first);
    auto second = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(second);
    ASSERT_NE(*first, *second);
    rig.cluster.setDemand(*second, 0.9);
    rig.eco.settleTick(60, 60);

    // The stale handle reports UnknownContainer, never the recycled
    // slot's fresh series.
    auto through_stale =
        rig.eco.containerSeriesId(stale, api::ContainerMetric::PowerW);
    ASSERT_FALSE(through_stale.ok());
    EXPECT_EQ(through_stale.status().code(),
              api::ErrorCode::UnknownContainer);

    const ts::SeriesId new_power =
        rig.eco
            .containerSeriesId(api::handleOf(rig.cluster, *second),
                               api::ContainerMetric::PowerW)
            .value();
    EXPECT_NE(new_power, old_power);
    // The destroyed container's history is frozen; the successor's
    // series started fresh under its own tag.
    EXPECT_EQ(rig.eco.db().series(old_power).size(), 1u);
    EXPECT_EQ(rig.eco.db().series(new_power).size(), 1u);
    EXPECT_FALSE(rig.eco.db()
                     .series("container_power_w", std::to_string(*first))
                     .empty());
    EXPECT_FALSE(rig.eco.db()
                     .series("container_power_w", std::to_string(*second))
                     .empty());
}

TEST(TelemetryPipeline, AppSeriesIdMatchesStringLookup)
{
    Rig rig;
    const api::AppHandle h =
        rig.eco.tryAddApp("a", appShare(0.5, 360.0)).value();
    rig.eco.settleTick(0, 60);

    EXPECT_EQ(rig.eco.appSeriesId(h, api::AppMetric::PowerW).value(),
              rig.eco.db().findSeries("app_power_w", "a"));
    EXPECT_EQ(rig.eco.appSeriesId(h, api::AppMetric::CarbonG).value(),
              rig.eco.db().findSeries("app_carbon_g", "a"));
    EXPECT_EQ(
        rig.eco.appSeriesId(h, api::AppMetric::Containers).value(),
        rig.eco.db().findSeries("app_containers", "a"));

    auto bad = rig.eco.appSeriesId(api::AppHandle{},
                                   api::AppMetric::PowerW);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), api::ErrorCode::InvalidHandle);
}

TEST(TelemetryPipeline, ExpectedTicksPreSizesSeries)
{
    Rig rig(EcovisorOptions{.expected_ticks = 500});
    const api::AppHandle h =
        rig.eco.tryAddApp("a", appShare(0.5, 360.0)).value();
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    rig.eco.settleTick(0, 60);

    const ts::SeriesId power =
        rig.eco.appSeriesId(h, api::AppMetric::PowerW).value();
    EXPECT_GE(rig.eco.db().series(power).capacity(), 500u);
    EXPECT_GE(rig.eco.db().series("grid_carbon").capacity(), 500u);
    const ts::SeriesId cpower =
        rig.eco
            .containerSeriesId(api::handleOf(rig.cluster, *id),
                               api::ContainerMetric::PowerW)
            .value();
    EXPECT_GE(rig.eco.db().series(cpower).capacity(), 500u);
}

TEST(TelemetryPipeline, EcoLibCursorQueriesMatchPlainQueries)
{
    Rig rig;
    ASSERT_TRUE(rig.eco.tryAddApp("a", appShare(0.5, 360.0)).ok());
    auto id = rig.cluster.createContainer("a", 1.0);
    ASSERT_TRUE(id);
    rig.cluster.setDemand(*id, 0.8);
    EcoLib lib(&rig.eco, "a");
    rig.run(120);

    // Monotone windows (the policy-loop pattern) and a couple of
    // regressions (stale cursor) — the cursored EcoLib results must
    // equal uncursored direct queries on the same series.
    const auto &power = rig.eco.db().series("app_power_w", "a");
    const auto &carbon = rig.eco.db().series("app_carbon_g", "a");
    const auto &cpower =
        rig.eco.db().series("container_power_w", std::to_string(*id));
    for (TimeS t1 : {0L, 600L, 1800L, 3000L, 1200L, 6600L}) {
        const TimeS t2 = t1 + 600;
        EXPECT_EQ(lib.getAppEnergyWh(t1, t2),
                  power.integrateWh(t1, t2));
        EXPECT_EQ(lib.getAppCarbonG(t1, t2), carbon.sumRange(t1, t2));
        EXPECT_EQ(lib.getContainerEnergyWh(*id, t1, t2),
                  cpower.integrateWh(t1, t2));
    }
}

} // namespace
} // namespace ecov::core
