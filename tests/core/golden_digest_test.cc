/**
 * @file
 * Pinned snapshot digests of a seeded world that drives every path
 * container placement and watt-cap bookkeeping take: heterogeneous
 * nodes, churn, requests no node can host, setCores, caps through
 * both setContainerPowercap() and applyCapBatch(), uncaps, direct
 * utilization-cap overrides, a grid outage's emergency caps, an app
 * registered mid-run, and Redistribute.
 *
 * The digests are ckpt::snapshotDigest (FNV-1a over the canonical
 * snapshot encoding), so a different placement decision, stored cap,
 * derived utilization cap, settle order or settlement result moves
 * them. They were recorded before placement moved to a tree and caps
 * to a slot column, and both layouts must reproduce them. So must a
 * world restored from a snapshot taken inside the outage, while its
 * emergency caps are live. Carries the `threads` label: the digests
 * hold at any settlement thread count.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "carbon/carbon_signal.h"
#include "ckpt/snapshot.h"
#include "common/rig.h"
#include "cop/cluster.h"
#include "core/ecovisor.h"
#include "energy/grid_connection.h"
#include "energy/physical_energy_system.h"
#include "energy/solar_array.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace ecov::core {
namespace {

constexpr TimeS kTickS = 300;

std::vector<power::ServerPowerConfig>
goldenNodes()
{
    return {{4, 1.35, 5.0, 0.0}, {8, 3.0, 12.0, 0.0},
            {4, 1.35, 5.0, 5.0}, {2, 0.8, 3.0, 0.0},
            {6, 2.0, 9.0, 2.5},  {4, 1.35, 5.0, 0.0}};
}

struct GoldenWorld
{
    carbon::TraceCarbonSignal signal{
        {{0, 120.0}, {3600, 310.0}, {7200, 40.0}}, 10800};
    energy::GridConnection grid{&signal};
    energy::SolarArray solar{
        {{0, 0.0}, {6 * 3600, 60.0}, {18 * 3600, 0.0}}, 24 * 3600};
    cop::Cluster cluster{goldenNodes()};
    energy::PhysicalEnergySystem phys{&grid, &solar,
                                      energy::BatteryConfig{}};
    Ecovisor eco;
    sim::Simulation simul{kTickS};
    Rng rng{20261017};
    std::vector<std::string> names;
    std::vector<std::vector<cop::ContainerId>> pools;

    /** `register_apps` false leaves the world for a snapshot to fill. */
    explicit GoldenWorld(int threads, bool register_apps = true)
        : eco(&cluster, &phys,
              EcovisorOptions{ExcessSolarPolicy::Redistribute,
                              /*record_telemetry=*/true, threads})
    {
        eco.attach(simul);
        if (!register_apps)
            return;
        // Registration order differs from name order, so the settle
        // order is not the handle order.
        addApp("delta", testutil::appShare(0.15, 200.0));
        addApp("alpha", testutil::appShare(0.20, 300.0));
        addApp("echo", testutil::appShare(0.10, 100.0));
        addApp("charlie", testutil::appShare(0.25, 250.0));
        AppShareConfig no_battery;
        no_battery.solar_fraction = 0.10;
        addApp("bravo", no_battery);
    }

    void
    addApp(const std::string &name, const AppShareConfig &share)
    {
        ASSERT_TRUE(eco.tryAddApp(name, share).ok()) << name;
        names.push_back(name);
        pools.emplace_back();
    }

    cop::ContainerId
    pick(const std::vector<cop::ContainerId> &pool)
    {
        return pool[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(pool.size()) - 1))];
    }

    double
    capW()
    {
        return rng.bernoulli(0.2) ? kUnlimitedW : rng.uniform(0.3, 7.0);
    }

    /** One tick of tenant and operator activity, then settlement. */
    void
    step()
    {
        const std::int64_t tick = simul.clock().tickCount();
        if (tick == 200) {
            AppShareConfig late;
            late.solar_fraction = 0.05;
            addApp("aardvark", late); // sorts first: joins mid-order
        }
        EnergyFaults faults;
        // The outage and battery fault straddle the tick-150 digest,
        // so it captures live emergency caps.
        faults.grid_out = tick >= 140 && tick < 156;
        faults.battery_offline = tick >= 146 && tick < 152;
        eco.setEnergyFaults(faults);

        for (std::size_t a = 0; a < pools.size(); ++a) {
            auto &pool = pools[a];
            if (rng.bernoulli(0.12) && !pool.empty()) {
                const cop::ContainerId id = pick(pool);
                cluster.destroyContainer(id);
                std::erase(pool, id);
            }
            if (rng.bernoulli(0.3)) {
                static constexpr double kCores[] = {0.5, 1.0, 1.5,
                                                    2.0, 3.0, 9.0};
                const double cores = kCores[rng.uniformInt(0, 5)];
                if (auto id = cluster.createContainer(names[a], cores))
                    pool.push_back(*id);
            }
            if (rng.bernoulli(0.1) && !pool.empty())
                cluster.setCores(pick(pool), rng.uniform(0.25, 3.5));
            for (cop::ContainerId id : pool) {
                cluster.setDemand(id, rng.uniform(0.0, 1.0));
                if (rng.bernoulli(0.1))
                    cluster.setGpuUtil(id, rng.uniform(0.0, 1.0));
            }
            if (rng.bernoulli(0.2) && !pool.empty()) {
                ASSERT_TRUE(eco.setContainerPowercap(
                                   api::handleOf(cluster, pick(pool)),
                                   capW())
                                .ok());
            }
            if (rng.bernoulli(0.15) && !pool.empty()) {
                api::CapBatch batch;
                const int n = static_cast<int>(rng.uniformInt(1, 3));
                for (int i = 0; i < n; ++i)
                    batch.add(api::handleOf(cluster, pick(pool)), capW());
                ASSERT_TRUE(eco.applyCapBatch(batch).ok());
                // Revoke one batched container before it commits.
                if (rng.bernoulli(0.2)) {
                    const cop::ContainerId id = pick(pool);
                    cluster.destroyContainer(id);
                    std::erase(pool, id);
                }
            }
            if (rng.bernoulli(0.05) && !pool.empty())
                cluster.setUtilizationCap(pick(pool),
                                          rng.uniform(0.0, 1.0));
        }
        simul.step();
    }

    ckpt::World
    world()
    {
        ckpt::World w;
        w.sim = &simul;
        w.eco = &eco;
        w.cluster = &cluster;
        w.phys = &phys;
        w.grid = &grid;
        return w;
    }

    std::uint64_t digest() { return ckpt::snapshotDigest(world()); }
};

/** Digest after every 50th tick, up to tick 400. */
std::vector<std::uint64_t>
runGolden(int threads)
{
    GoldenWorld w(threads);
    std::vector<std::uint64_t> out;
    while (w.simul.clock().tickCount() < 400) {
        w.step();
        if (::testing::Test::HasFatalFailure())
            return out;
        if (w.simul.clock().tickCount() % 50 == 0)
            out.push_back(w.digest());
    }
    return out;
}

// Re-pinned only for snapshot revision 2: this world has no session
// plane, so only the digested version word moved (the values under
// revision 1 were unchanged by its dedup-window layout).
const std::vector<std::uint64_t> kGolden = {
    0xaa9bddc12275ac6full, 0xf9e0e65bd3171206ull, 0x6f6e3846b17226aaull,
    0xe0cbdd9d35da1b81ull, 0xecc5510a5086a921ull, 0xa4978ab7d1395be0ull,
    0x0e8beb8162f5118aull, 0xe132c037a3bb188full};

TEST(GoldenDigest, PlacementAndCapsMatchPinnedDigests)
{
    EXPECT_EQ(runGolden(1), kGolden);
}

TEST(GoldenDigest, ShardedSettlementMatchesPinnedDigests)
{
    EXPECT_EQ(runGolden(4), kGolden);
}

/**
 * Run to tick 150, inside the outage, snapshot through the codecs,
 * restore into a fresh world and run that one on: digests after every
 * 50th tick from 200 to 400.
 */
std::vector<std::uint64_t>
runGoldenRestoredAt150(int threads)
{
    GoldenWorld a(threads);
    while (a.simul.clock().tickCount() < 150) {
        a.step();
        if (::testing::Test::HasFatalFailure())
            return {};
    }
    EXPECT_FALSE(a.eco.captureState().emergency_capped.empty());
    std::vector<std::uint8_t> bytes;
    ckpt::encodeSnapshot(bytes, ckpt::captureSnapshot(a.world()));
    ckpt::Snapshot snap;
    EXPECT_TRUE(ckpt::decodeSnapshot(bytes, &snap).ok());

    GoldenWorld b(threads, /*register_apps=*/false);
    EXPECT_TRUE(ckpt::applySnapshot(b.world(), snap).ok());
    EXPECT_EQ(b.digest(), kGolden[2]);
    // The tenants driving the world are not part of it: carry them.
    b.rng = a.rng;
    b.names = a.names;
    b.pools = a.pools;
    std::vector<std::uint64_t> out;
    while (b.simul.clock().tickCount() < 400) {
        b.step();
        if (::testing::Test::HasFatalFailure())
            return out;
        if (b.simul.clock().tickCount() % 50 == 0)
            out.push_back(b.digest());
    }
    return out;
}

TEST(GoldenDigest, RestoreInsideTheOutageMatchesPinnedDigests)
{
    const std::vector<std::uint64_t> tail(kGolden.begin() + 3,
                                          kGolden.end());
    EXPECT_EQ(runGoldenRestoredAt150(1), tail);
    EXPECT_EQ(runGoldenRestoredAt150(4), tail);
}

} // namespace
} // namespace ecov::core
