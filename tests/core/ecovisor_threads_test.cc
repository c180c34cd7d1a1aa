/**
 * @file
 * Sharded settlement determinism: settleTick with ECOV_THREADS > 1
 * must produce bit-identical results to the sequential path on the
 * same seeded simulation — per-app settlement is sharded, but every
 * cross-app reduction runs sequentially in canonical app order after
 * the join (the docs/PERF.md determinism contract).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rig.h"
#include "core/ecovisor.h"
#include "util/rng.h"

namespace ecov::core {
namespace {

using testutil::Rig;
using testutil::appShare;

/** Drive one rig through a seeded churn+demand workload. */
struct Driver
{
    Rig rig;
    std::vector<std::string> names;
    std::vector<api::AppHandle> apps;
    std::vector<std::vector<cop::ContainerId>> pools;
    Rng rng{42};

    explicit Driver(int threads, int app_count = 7)
        : rig(EcovisorOptions{ExcessSolarPolicy::Redistribute,
                              /*record_telemetry=*/true, threads})
    {
        pools.resize(static_cast<std::size_t>(app_count));
        for (int a = 0; a < app_count; ++a) {
            names.push_back("app" + std::to_string(a));
            apps.push_back(
                rig.eco
                    .tryAddApp(names.back(), appShare(0.8 / app_count,
                                                      800.0 / app_count))
                    .value());
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
                // Seeded churn: both drivers make identical moves.
                if (rng.bernoulli(0.1) && !pool.empty()) {
                    rig.cluster.destroyContainer(pool.front());
                    pool.erase(pool.begin());
                }
                if (rng.bernoulli(0.2)) {
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
        }
    }
};

TEST(EcovisorThreads, ShardedSettlementIsBitIdentical)
{
    Driver seq(1), par(4);
    ASSERT_EQ(seq.rig.eco.settleThreads(), 1);
    ASSERT_EQ(par.rig.eco.settleThreads(), 4);

    seq.run(200);
    par.run(200);

    // Bit-exact agreement: EXPECT_EQ on doubles, no tolerance.
    EXPECT_EQ(seq.rig.eco.curtailedWh(), par.rig.eco.curtailedWh());
    EXPECT_EQ(seq.rig.eco.aggregateBatteryWh(),
              par.rig.eco.aggregateBatteryWh());
    EXPECT_EQ(seq.rig.grid.totalEnergyWh(),
              par.rig.grid.totalEnergyWh());
    EXPECT_EQ(seq.rig.grid.totalCarbonG(), par.rig.grid.totalCarbonG());
    for (std::size_t i = 0; i < seq.names.size(); ++i) {
        const std::string &name = seq.names[i];
        const auto &a = *seq.rig.eco.ves(seq.apps[i]);
        const auto &b = *par.rig.eco.ves(par.apps[i]);
        EXPECT_EQ(a.totalCarbonG(), b.totalCarbonG()) << name;
        EXPECT_EQ(a.totalEnergyWh(), b.totalEnergyWh()) << name;
        EXPECT_EQ(a.totalGridWh(), b.totalGridWh()) << name;
        EXPECT_EQ(a.lastSettlement().grid_w,
                  b.lastSettlement().grid_w)
            << name;
        EXPECT_EQ(a.lastSettlement().batt_discharge_w,
                  b.lastSettlement().batt_discharge_w)
            << name;
        EXPECT_EQ(a.battery().energyWh(), b.battery().energyWh())
            << name;
    }
}

TEST(EcovisorThreads, MoreThreadsThanAppsIsSafe)
{
    Driver seq(1, 2), par(16, 2);
    seq.run(50);
    par.run(50);
    for (std::size_t i = 0; i < seq.names.size(); ++i) {
        EXPECT_EQ(seq.rig.eco.ves(seq.apps[i])->totalCarbonG(),
                  par.rig.eco.ves(par.apps[i])->totalCarbonG())
            << seq.names[i];
    }
}

TEST(EcovisorThreads, OptionOverridesEnvironment)
{
    // options.threads > 0 wins over whatever ECOV_THREADS says; the
    // ECOV_THREADS=4 CI leg relies on explicitly-sequential rigs
    // staying sequential.
    Rig rig(EcovisorOptions{ExcessSolarPolicy::Curtail, true, 3});
    EXPECT_EQ(rig.eco.settleThreads(), 3);
}

} // namespace
} // namespace ecov::core
