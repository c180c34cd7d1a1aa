/**
 * @file
 * SoA column suite (cop/columns.h, docs/PERF.md).
 *
 * The cluster keeps every per-container runtime field in slot-indexed
 * columns and nowhere else; these tests churn the slab through seeded
 * create/destroy/resize/set/shed sequences and assert, after every
 * single operation, that the columns (and the Container values
 * assembled from them) equal an independent shadow model — plus that
 * the coefficient columns reproduce the power model's exact products,
 * that watt caps and emergency caps and the utilization caps derived
 * from them follow the model, that recycled slots never leak a
 * previous incarnation's column state (its watt cap and emergency
 * flag included), and that sharded settlement over the columns stays
 * bit-identical to the sequential path (the determinism contract,
 * docs/ARCHITECTURE.md). All floating-point comparisons are
 * EXPECT_EQ: bit-exact, no tolerance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rig.h"
#include "cop/cluster.h"
#include "cop/columns.h"
#include "core/ecovisor.h"
#include "util/rng.h"

namespace ecov::cop {
namespace {

using testutil::Rig;
using testutil::appShare;

power::ServerPowerConfig
microserver()
{
    return power::ServerPowerConfig{4, 1.35, 5.0, 0.0};
}

power::ServerPowerConfig
jetson()
{
    return power::ServerPowerConfig{4, 1.35, 5.0, 5.0};
}

/** Shadow AoS model: the naive per-container truth. */
struct Shadow
{
    std::string app;
    double cores = 1.0;
    int node = -1; ///< where the scheduler put it (never moves)
    double util_cap = 1.0;
    double demand = 0.0;
    double gpu_util = 0.0;
    double power_cap_w = kNoPowerCap;
    bool emergency = false;

    /** The model's attributed power at the shadow's state. */
    double
    powerW(const Cluster &c) const
    {
        return c.node(node).model.containerPowerW(
            cores, std::min(demand, util_cap), gpu_util);
    }

    /** The model's utilization cap for a watt budget. */
    double
    capFor(const Cluster &c, double watts) const
    {
        return c.node(node).model.utilizationForCap(cores, watts);
    }
};

using ShadowMap = std::map<ContainerId, Shadow>; // id-sorted

/**
 * Full sweep: every live container's columns, and the Container value
 * assembled from them, must equal the shadow; every dead slot's
 * columns must be zeroed and unlinked; per-app iteration must visit
 * exactly the shadow's ids in increasing-id order; the cached app
 * aggregate must equal the model-computed sum in that same order, bit
 * for bit.
 */
void
expectCoherent(const Cluster &c, const ShadowMap &shadow)
{
    const HotColumns &cols = c.hotColumns();
    std::vector<bool> live(cols.size(), false);

    for (const auto &[id, sh] : shadow) {
        const ContainerRef ref = c.refOf(id);
        ASSERT_TRUE(ref.valid()) << "id " << id;
        ASSERT_TRUE(c.live(ref));
        const auto s = static_cast<std::size_t>(ref.slot);
        ASSERT_LT(s, cols.size());
        live[s] = true;

        // Columns == shadow, bit for bit.
        EXPECT_EQ(cols.demand[s], sh.demand) << "id " << id;
        EXPECT_EQ(cols.util_cap[s], sh.util_cap) << "id " << id;
        EXPECT_EQ(cols.cores[s], sh.cores) << "id " << id;
        EXPECT_EQ(cols.gpu_util[s], sh.gpu_util) << "id " << id;
        EXPECT_EQ(cols.node[s], sh.node) << "id " << id;
        EXPECT_EQ(cols.power_cap_w[s], sh.power_cap_w) << "id " << id;
        EXPECT_EQ(c.powerCap(ref), sh.power_cap_w) << "id " << id;
        EXPECT_EQ(cols.emergency[s] != 0, sh.emergency) << "id " << id;
        EXPECT_EQ(c.emergencyCapped(ref), sh.emergency) << "id " << id;

        // The value readers get is assembled from those columns.
        const Container v = c.container(id);
        EXPECT_EQ(v.id, id);
        EXPECT_EQ(v.app, c.findAppIndex(sh.app)) << "id " << id;
        EXPECT_EQ(v.node, sh.node) << "id " << id;
        EXPECT_EQ(v.cores, sh.cores) << "id " << id;
        EXPECT_EQ(v.util_cap, sh.util_cap) << "id " << id;
        EXPECT_EQ(v.demand, sh.demand) << "id " << id;
        EXPECT_EQ(v.gpu_util, sh.gpu_util) << "id " << id;

        // Coefficient columns hold the model's exact products.
        const auto &model = c.node(sh.node).model;
        const double cl = std::clamp(
            sh.cores, 0.0, static_cast<double>(model.cores()));
        EXPECT_EQ(cols.idle_w[s], model.idlePerCoreW() * cl)
            << "id " << id;
        EXPECT_EQ(cols.dyn_w[s], model.dynamicPerCoreW() * cl)
            << "id " << id;
        EXPECT_EQ(cols.gpu_peak_w[s], model.config().gpu_peak_w)
            << "id " << id;
    }

    // Dead slots: zeroed and unreachable (destroy cleared them, so a
    // recycle can never observe a previous incarnation).
    for (std::size_t s = 0; s < cols.size(); ++s) {
        if (live[s])
            continue;
        EXPECT_EQ(cols.node[s], -1) << "slot " << s;
        EXPECT_EQ(cols.app_next[s], -1) << "slot " << s;
        EXPECT_EQ(cols.all_next[s], -1) << "slot " << s;
        EXPECT_EQ(cols.demand[s], 0.0) << "slot " << s;
        EXPECT_EQ(cols.cores[s], 0.0) << "slot " << s;
        EXPECT_EQ(cols.gpu_util[s], 0.0) << "slot " << s;
        EXPECT_EQ(cols.idle_w[s], 0.0) << "slot " << s;
        EXPECT_EQ(cols.dyn_w[s], 0.0) << "slot " << s;
        EXPECT_EQ(cols.power_cap_w[s], kNoPowerCap) << "slot " << s;
        EXPECT_EQ(cols.emergency[s], 0) << "slot " << s;
    }

    // The captured cap list: the shadow's finite caps in id order.
    std::vector<std::pair<ContainerId, double>> caps;
    for (const auto &[id, sh] : shadow)
        if (!std::isinf(sh.power_cap_w))
            caps.emplace_back(id, sh.power_cap_w);
    EXPECT_EQ(c.powerCaps(), caps);

    // Per-app iteration order and the cached aggregate: walk order
    // must be the shadow's increasing-id order, and the column-walk
    // sum must equal the model-call sum in that order, bit-exact.
    std::map<std::string, std::vector<ContainerId>> by_app;
    for (const auto &[id, sh] : shadow)
        by_app[sh.app].push_back(id); // id-sorted per app
    for (const auto &[app, ids] : by_app) {
        const AppIndex idx = c.findAppIndex(app);
        ASSERT_NE(idx, kInvalidApp);
        EXPECT_EQ(c.appContainers(idx), ids) << app;
        double expected = 0.0;
        for (ContainerId id : ids)
            expected += shadow.at(id).powerW(c);
        EXPECT_EQ(c.appPowerW(idx), expected) << app;
    }
}

TEST(CopColumns, ChurnKeepsColumnsCoherentWithShadow)
{
    // Heterogeneous cluster (one Jetson node) so gpu_peak_w varies
    // across slots; seeded create/destroy/resize/set/shed churn with a
    // full sweep after every operation.
    Cluster c({microserver(), microserver(), jetson(), microserver()});
    Rng rng(20260808);
    ShadowMap shadow;
    const char *apps[] = {"alpha", "beta", "gamma", "delta"};

    for (int step = 0; step < 600; ++step) {
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.35 || shadow.empty()) {
            const char *app = apps[rng.uniformInt(0, 3)];
            const double cores = 0.5 + rng.uniform(0.0, 1.0);
            if (auto id = c.createContainer(app, cores))
                shadow.emplace(*id,
                               Shadow{app, cores, c.container(*id).node});
        } else if (roll < 0.42) {
            // Grid-outage shedding: every container of one app is cut
            // to a share of its power and flagged emergency-capped.
            const char *app = apps[rng.uniformInt(0, 3)];
            const double scale = rng.uniform(0.0, 1.0);
            c.shedApp(c.findAppIndex(app), scale);
            for (auto &[id, sh] : shadow)
                if (sh.app == app) {
                    sh.util_cap = sh.capFor(c, sh.powerW(c) * scale);
                    sh.emergency = true;
                }
        } else if (roll < 0.50) {
            auto it = shadow.begin();
            std::advance(it, rng.uniformInt(
                                 0, static_cast<std::int64_t>(
                                        shadow.size()) -
                                        1));
            c.destroyContainer(it->first);
            shadow.erase(it);
        } else {
            auto it = shadow.begin();
            std::advance(it, rng.uniformInt(
                                 0, static_cast<std::int64_t>(
                                        shadow.size()) -
                                        1));
            const double sub = rng.uniform(0.0, 1.0);
            if (sub < 0.25) {
                // Vertical resize exercises the coefficient refresh.
                const double cores = 0.25 + rng.uniform(0.0, 1.5);
                if (c.setCores(it->first, cores))
                    it->second.cores = cores;
            } else if (sub < 0.50) {
                const double d = rng.uniform(-0.2, 1.2);
                c.setDemand(it->first, d);
                it->second.demand = std::clamp(d, 0.0, 1.0);
            } else if (sub < 0.65) {
                const double cap = rng.uniform(-0.2, 1.2);
                c.setUtilizationCap(it->first, cap);
                it->second.util_cap = std::clamp(cap, 0.0, 1.0);
            } else if (sub < 0.75) {
                // A watt cap (one in four lifted again) derives the
                // utilization cap through the node's model at once.
                Shadow &sh = it->second;
                sh.power_cap_w =
                    rng.bernoulli(0.25) ? kNoPowerCap : rng.uniform(0.0, 4.0);
                c.setPowerCap(c.refOf(it->first), sh.power_cap_w);
                sh.util_cap = std::isinf(sh.power_cap_w)
                                  ? 1.0
                                  : sh.capFor(c, sh.power_cap_w);
            } else {
                const double g = rng.uniform(-0.2, 1.2);
                c.setGpuUtil(it->first, g);
                it->second.gpu_util = std::clamp(g, 0.0, 1.0);
            }
        }
        // Settlement's re-derivation, now and then: every capped
        // container's utilization cap follows its watt cap again,
        // undoing resizes and direct overrides since, and every
        // emergency cap is lifted (to 1 where there is no watt cap).
        if (step % 25 == 24) {
            c.applyPowerCaps();
            for (auto &[id, sh] : shadow) {
                if (!std::isinf(sh.power_cap_w))
                    sh.util_cap = sh.capFor(c, sh.power_cap_w);
                else if (sh.emergency)
                    sh.util_cap = 1.0;
                sh.emergency = false;
            }
        }
        expectCoherent(c, shadow);
        if (HasFatalFailure())
            return; // one broken step is enough diagnostics
    }
}

TEST(CopColumns, RecycledSlotNeverLeaksColumnState)
{
    Cluster c(1, jetson());
    auto id1 = c.createContainer("a", 2.0);
    ASSERT_TRUE(id1);
    c.setDemand(*id1, 0.9);
    c.setGpuUtil(*id1, 0.8);
    const ContainerRef ref1 = c.refOf(*id1);
    c.setPowerCap(ref1, 2.0);
    c.shedApp(c.findAppIndex("a"), 0.5);
    ASSERT_TRUE(c.emergencyCapped(ref1));
    const auto s = static_cast<std::size_t>(ref1.slot);

    c.destroyContainer(*id1);
    const HotColumns &cols = c.hotColumns();
    EXPECT_EQ(cols.demand[s], 0.0);
    EXPECT_EQ(cols.gpu_util[s], 0.0);
    EXPECT_EQ(cols.idle_w[s], 0.0);
    EXPECT_EQ(cols.node[s], -1);
    EXPECT_EQ(cols.power_cap_w[s], kNoPowerCap);
    EXPECT_EQ(cols.emergency[s], 0);

    // The recycle reuses the slot under a new generation; its columns
    // must reflect only the new incarnation, and the stale ref must
    // not read (or attribute power through) the new one.
    auto id2 = c.createContainer("b", 1.0);
    ASSERT_TRUE(id2);
    const ContainerRef ref2 = c.refOf(*id2);
    ASSERT_EQ(ref2.slot, ref1.slot);
    EXPECT_FALSE(c.live(ref1));
    EXPECT_EQ(cols.cores[s], 1.0);
    EXPECT_EQ(cols.demand[s], 0.0);
    EXPECT_EQ(cols.util_cap[s], 1.0);
    EXPECT_EQ(cols.gpu_util[s], 0.0);
    EXPECT_EQ(c.powerCap(ref2), kNoPowerCap);
    EXPECT_FALSE(c.emergencyCapped(ref2));
    // An override survives the settle walk: nothing marks the new
    // incarnation emergency-capped, so nothing lifts it.
    c.setUtilizationCap(*id2, 0.25);
    c.applyPowerCaps();
    EXPECT_EQ(cols.util_cap[s], 0.25);
    c.setUtilizationCap(*id2, 1.0);
    c.applyPowerCaps();
    EXPECT_EQ(cols.util_cap[s], 1.0);
    EXPECT_TRUE(c.powerCaps().empty());

    // Power queries agree between the column path and the model.
    c.setDemand(*id2, 0.5);
    const auto &model = c.node(0).model;
    EXPECT_EQ(c.containerPowerW(*id2),
              model.containerPowerW(1.0, 0.5, 0.0));
    EXPECT_EQ(c.containerPowerW(ref2),
              model.containerPowerW(1.0, 0.5, 0.0));
}

TEST(CopColumns, DerivedQueriesMatchModelBitExactly)
{
    // utilizationCapForPower / maxContainerPowerW / workCoreSeconds
    // read the coefficient columns; each must equal the direct
    // model-call result, bit for bit.
    Cluster c({microserver(), jetson()});
    Rng rng(7);
    std::vector<ContainerId> ids;
    for (int i = 0; i < 6; ++i) {
        auto id = c.createContainer(i % 2 ? "a" : "b",
                                    0.5 + rng.uniform(0.0, 1.5));
        ASSERT_TRUE(id);
        c.setDemand(*id, rng.uniform(0.0, 1.0));
        c.setUtilizationCap(*id, rng.uniform(0.0, 1.0));
        c.setGpuUtil(*id, rng.uniform(0.0, 1.0));
        ids.push_back(*id);
    }
    for (ContainerId id : ids) {
        const Container row = c.container(id);
        const auto &model = c.node(row.node).model;
        for (double cap_w : {0.0, 0.4, 1.1, 3.7, 50.0}) {
            EXPECT_EQ(c.utilizationCapForPower(id, cap_w),
                      model.utilizationForCap(row.cores, cap_w))
                << "id " << id << " cap " << cap_w;
        }
        EXPECT_EQ(c.maxContainerPowerW(id),
                  model.maxContainerPowerW(row.cores, row.gpu_util))
            << "id " << id;
        EXPECT_EQ(c.workCoreSeconds(id, 60.0),
                  row.effectiveUtil() * row.cores * 60.0)
            << "id " << id;
    }
}

/**
 * Sequential vs sharded settlement over the column layout: drive two
 * identical seeded simulations (churn + resize + demand) at
 * threads=1 and threads=4 and require bit-identical energy/carbon
 * accounting — the determinism contract must survive the layout
 * change. Labeled `threads` so the TSan CI leg races the column
 * reads under real sharding.
 */
struct Driver
{
    Rig rig;
    std::vector<std::string> names;
    std::vector<api::AppHandle> apps;
    std::vector<std::vector<ContainerId>> pools;
    Rng rng{424242};

    explicit Driver(int threads, int app_count = 6)
        : rig(core::EcovisorOptions{core::ExcessSolarPolicy::Redistribute,
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
                if (rng.bernoulli(0.08) && !pool.empty()) {
                    rig.cluster.destroyContainer(pool.front());
                    pool.erase(pool.begin());
                }
                if (rng.bernoulli(0.15)) {
                    auto id =
                        rig.cluster.createContainer(names[a], 1.0);
                    if (id)
                        pool.push_back(*id);
                }
                if (rng.bernoulli(0.1) && !pool.empty()) {
                    // Resize: the coefficient-column refresh must stay
                    // deterministic under sharded settlement too.
                    rig.cluster.setCores(
                        pool.back(), 0.5 + rng.uniform(0.0, 1.0));
                }
                for (std::size_t ci = 0; ci < pool.size(); ++ci)
                    rig.cluster.setDemand(
                        pool[ci], 0.1 + 0.8 * rng.uniform(0.0, 1.0));
            }
            rig.eco.dispatchTickCallbacks(t, 60);
            rig.eco.settleTick(t, 60);
        }
    }
};

TEST(CopColumns, ShardedSettlementOverColumnsIsBitIdentical)
{
    Driver seq(1), par(4);
    ASSERT_EQ(seq.rig.eco.settleThreads(), 1);
    ASSERT_EQ(par.rig.eco.settleThreads(), 4);

    seq.run(150);
    par.run(150);

    EXPECT_EQ(seq.rig.grid.totalEnergyWh(),
              par.rig.grid.totalEnergyWh());
    EXPECT_EQ(seq.rig.grid.totalCarbonG(),
              par.rig.grid.totalCarbonG());
    for (std::size_t i = 0; i < seq.names.size(); ++i) {
        const std::string &name = seq.names[i];
        const auto &a = *seq.rig.eco.ves(seq.apps[i]);
        const auto &b = *par.rig.eco.ves(par.apps[i]);
        EXPECT_EQ(a.totalCarbonG(), b.totalCarbonG()) << name;
        EXPECT_EQ(a.totalEnergyWh(), b.totalEnergyWh()) << name;
        EXPECT_EQ(a.totalGridWh(), b.totalGridWh()) << name;
        const AppIndex ia = seq.rig.cluster.findAppIndex(name);
        const AppIndex ib = par.rig.cluster.findAppIndex(name);
        EXPECT_EQ(seq.rig.cluster.appPowerW(ia),
                  par.rig.cluster.appPowerW(ib))
            << name;
    }
}

} // namespace
} // namespace ecov::cop
