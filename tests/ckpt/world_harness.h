/**
 * @file
 * A restartable, daemon-shaped world for the checkpoint suites: the
 * exact wiring ecovisord builds — canonical rig + simulation clock +
 * ServerCore + CheckpointManager over a state directory — packaged so
 * a test can construct it twice over the same directory and model a
 * process restart. Leases and seeded tokens are on by default because
 * that is the configuration durable sessions require.
 */

#ifndef ECOV_TESTS_CKPT_WORLD_HARNESS_H
#define ECOV_TESTS_CKPT_WORLD_HARNESS_H

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/manager.h"
#include "common/rig.h"
#include "net/server.h"
#include "sim/simulation.h"

namespace ecov::testutil {

/** Fresh state directory under /tmp (unique per call). */
inline std::string
makeStateDir()
{
    char buf[] = "/tmp/ecov_ckpt_XXXXXX";
    const char *p = ::mkdtemp(buf);
    EXPECT_NE(p, nullptr);
    return p ? std::string(p) : std::string();
}

/** Every byte of a file (empty when it cannot be read). */
inline std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

struct WorldHarness
{
    Rig rig;
    sim::Simulation simul;
    int attached_; ///< eco.attach before ServerCore installs its hook
    net::ServerCore server;
    ckpt::CheckpointManager mgr;

    static net::ServerCoreOptions
    serverOpts(std::uint32_t lease_ticks, std::uint32_t dedup_window)
    {
        net::ServerCoreOptions o;
        o.lease_ticks = lease_ticks;
        o.dedup_window = dedup_window;
        o.token_seed = 42; // deterministic tokens across restarts
        return o;
    }

    /** Process death (not power loss) is the failure model under
     *  test, and the page cache keeps the bytes either way, so the
     *  suites default to Never; Always runs the WAL's sync thread. */
    static ckpt::CheckpointOptions
    ckptOpts(const std::string &dir, std::int64_t every,
             ckpt::FsyncPolicy fsync = ckpt::FsyncPolicy::Never)
    {
        ckpt::CheckpointOptions o;
        o.dir = dir;
        o.every_ticks = every;
        o.fsync = fsync;
        return o;
    }

    ckpt::World
    world()
    {
        ckpt::World w;
        w.sim = &simul;
        w.eco = &rig.eco;
        w.cluster = &rig.cluster;
        w.phys = &rig.phys;
        w.grid = &rig.grid;
        w.server = &server;
        return w;
    }

    explicit WorldHarness(
        const std::string &dir, std::int64_t every = 4,
        std::uint32_t lease_ticks = 64,
        std::uint32_t dedup_window = net::ServerCoreOptions{}.dedup_window,
        ckpt::FsyncPolicy fsync = ckpt::FsyncPolicy::Never)
        : simul(60),
          attached_((rig.eco.attach(simul), 0)),
          server(&rig.eco, serverOpts(lease_ticks, dedup_window)),
          mgr(world(), ckptOpts(dir, every, fsync))
    {}

    /** One daemon-loop tick: WAL the inputs, step, maybe snapshot. */
    void
    tick()
    {
        EXPECT_TRUE(mgr.beginTick().ok());
        simul.step();
        EXPECT_TRUE(mgr.endTick().ok());
    }

    /** Tick until the clock reaches `target` ticks. */
    void
    runTo(std::int64_t target)
    {
        while (simul.clock().tickCount() < target)
            tick();
    }

    std::int64_t
    tickCount() const
    {
        return simul.clock().tickCount();
    }
};

} // namespace ecov::testutil

#endif // ECOV_TESTS_CKPT_WORLD_HARNESS_H
