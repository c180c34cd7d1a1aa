/**
 * @file
 * rpc_durable: ecovisord's durable configuration hosted in-process —
 * ServerCore with leases, default telemetry, and a CheckpointManager
 * snapshotting every 32 ticks with fsync — driven by 256 loopback
 * tenants, so every layer between a tenant and the disk can be timed.
 */

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <vector>

#include "ckpt/manager.h"
#include "net/loopback.h"
#include "net/server.h"
#include "util/rng.h"
#include "workloads.h"
#include "world.h"
#include "remote.h"

namespace ecoperf {

using namespace ecov;

namespace {

constexpr int kTenants = 256;
constexpr int kPool = 3;
constexpr std::int64_t kSnapshotEvery = 32;

/** Size of a file, 0 when absent. */
double
fileBytes(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                           : 0.0;
}

/** The daemon's durable wiring around one Rig (see ecovisord). */
struct DurableWorld
{
    Rig rig;
    sim::Simulation simul{kTickS};
    int attached; ///< eco.attach runs before ServerCore installs its hook
    net::ServerCore server;
    ckpt::CheckpointManager mgr;
    std::unique_ptr<PhaseMarkers> markers;
    /** Mutations committed, and commits, while traced. */
    double traced_ops = 0.0;
    double traced_commits = 0.0;

    static core::EcovisorOptions
    options()
    {
        core::EcovisorOptions o; // telemetry on and unbounded
        o.threads = 1;
        return o;
    }

    static net::ServerCoreOptions
    serverOptions(std::uint64_t seed)
    {
        net::ServerCoreOptions o;
        o.lease_ticks = 64;
        // Zero would draw tokens from OS entropy; they are part of the
        // checkpointed state, so keep them seeded.
        o.token_seed = seed + 1;
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

    DurableWorld(const std::string &dir, std::uint64_t seed, bool trace)
        : rig(kTenants, options()),
          attached((rig.eco.attach(simul), 0)),
          server(&rig.eco, serverOptions(seed)),
          mgr(world(), ckpt::CheckpointOptions{dir, kSnapshotEvery,
                                               ckpt::FsyncPolicy::Always})
    {
        if (!trace)
            return;
        markers = std::make_unique<PhaseMarkers>(simul);
        // The hook ServerCore installs, with a span around it.
        rig.eco.setPreSettleHook([this](TimeS start_s, TimeS dt_s) {
            if (!tracer().on()) {
                server.commitCoalesced(start_s, dt_s);
                return;
            }
            traced_ops += static_cast<double>(server.pendingCount());
            traced_commits += 1.0;
            const std::int64_t t0 = nowNs();
            server.commitCoalesced(start_s, dt_s);
            const std::int64_t d = nowNs() - t0;
            tracer().add(Span::NetServerCommit, t0, d,
                         static_cast<std::uint64_t>(
                             simul.clock().tickCount()));
            markers->nested_ns += d;
        });
    }
};

/** A DurableWorld plus its 256 loopback tenants. */
struct Durable
{
    DurableWorld w;
    std::vector<std::unique_ptr<Remote>> tenants;
    std::vector<net::RemoteApp> apps;
    std::vector<std::array<net::RemoteContainer, kPool>> containers;
    std::vector<int> phase;

    Durable(const std::string &dir, std::uint64_t seed, bool trace)
        : w(dir, seed, trace)
    {}

    /** One daemon-loop tick: WAL, step, snapshot every 32. */
    void
    tick(RunResult *r)
    {
        api::Status st = [&] {
            SpanScope span(Span::CkptWalAppend);
            return w.mgr.beginTick();
        }();
        r->expect(st.ok(), "WAL append failed: " + st.message());
        {
            SpanScope span(Span::SimStep);
            w.simul.step();
        }
        if (w.simul.clock().tickCount() % kSnapshotEvery == 0) {
            SpanScope span(Span::CkptSnapshot);
            st = w.mgr.endTick();
        } else {
            st = w.mgr.endTick();
        }
        r->expect(st.ok(), "snapshot failed: " + st.message());
    }

    /** Recover the empty state dir, then register every tenant and
     *  spawn its pool over RPC, committed by one tick. */
    void
    setUp(std::uint64_t seed, RunResult *r)
    {
        api::Status st = w.mgr.recover();
        r->expect(st.ok(), "fresh recover failed: " + st.message());
        Rng gen(seed);
        for (int a = 0; a < kTenants; ++a) {
            tenants.push_back(std::make_unique<Remote>(
                std::make_unique<net::LoopbackTransport>(&w.server),
                Span::NetServerIngest, static_cast<std::uint32_t>(a)));
            phase.push_back(static_cast<int>(gen.uniformInt(0, 96)));
        }
        const core::AppShareConfig share = tenantShare(kTenants);
        for (int a = 0; a < kTenants; ++a) {
            net::Client &c = tenants[a]->client();
            c.sendRegisterApp(tenantName(a), share);
            for (int k = 0; k < kPool; ++k)
                c.sendSpawnContainer(net::RemoteApp{0}, 1.0);
        }
        tick(r);
        for (int a = 0; a < kTenants; ++a) {
            net::Client &c = tenants[a]->client();
            api::Result<net::RemoteApp> app = c.awaitApp(1);
            r->attempted += 1 + kPool;
            r->failed += app.ok() ? 0 : 1;
            apps.push_back(app.valueOr(net::RemoteApp{}));
            std::array<net::RemoteContainer, kPool> pool{};
            for (int k = 0; k < kPool; ++k) {
                api::Result<net::RemoteContainer> cont = c.awaitContainer(
                    static_cast<std::uint32_t>(2 + k));
                r->failed += cont.ok() ? 0 : 1;
                pool[k] = cont.valueOr(net::RemoteContainer{});
            }
            containers.push_back(pool);
        }
    }
};

/** Removes the run's state directories however the run ends. */
struct StateRoot
{
    std::filesystem::path path;
    explicit StateRoot(std::filesystem::path p) : path(std::move(p))
    {
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~StateRoot()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    StateRoot(const StateRoot &) = delete;
    StateRoot &operator=(const StateRoot &) = delete;

    std::string dir(const std::string &name) const
    {
        return (path / name).string();
    }
};

} // namespace

RunResult
runRpcDurable(const RunOptions &opt)
{
    RunResult r;
    const std::int64_t check_tick = checkTick(opt, 1024);
    const StateRoot root(std::filesystem::path(ECOPERF_STATE_ROOT) /
                         ("rpc_durable-" + std::to_string(::getpid())));

    int setups = 0;
    std::string dir;
    const auto build = [&] {
        dir = root.dir("world" + std::to_string(setups++));
        auto world = std::make_unique<Durable>(dir, opt.seed, opt.trace);
        world->setUp(opt.seed, &r);
        return world;
    };
    std::unique_ptr<Durable> d;
    for (int i = 0; i < kSetups; ++i) {
        d.reset();
        d = timedSetUp(&r, build);
    }
    trimHeap();

    struct Inflight
    {
        int tenant;
        std::uint32_t req;
        std::int64_t sent_ns;
    };
    std::vector<std::pair<int, int>> arrivals; // (tenant, op)
    std::vector<Inflight> inflight;
    std::vector<net::RemoteCap> caps;
    Rng gen(opt.seed + 1);
    double wal_bytes = 0.0, wal_ticks = 0.0;

    core::Ecovisor &eco = d->w.rig.eco;
    Window win(opt, &r);
    std::int64_t tick = d->w.simul.clock().tickCount();
    // Stop one tick short of a snapshot, so recovery replays a full
    // WAL of kSnapshotEvery - 1 ticks.
    while (win.open(tick < check_tick ||
                    tick % kSnapshotEvery != kSnapshotEvery - 1)) {
        // Each tenant reads its state synchronously. One round trip
        // takes well under a microsecond, so, as in the sim_*
        // workloads, the read timed is the whole phase.
        const std::int64_t reads_start = nowNs();
        for (int a = 0; a < kTenants; ++a) {
            Remote &t = *d->tenants[a];
            const std::uint32_t req = t.send([&](net::Client &c) {
                return c.sendGetSnapshot(d->apps[a]);
            });
            api::Result<api::EnergySnapshot> snap =
                t.await(req, [](net::Client &c, std::uint32_t q) {
                    return c.awaitSnapshot(q);
                });
            ++r.attempted;
            r.failed += snap.ok() ? 0 : 1;
        }
        r.read_ns.add(static_cast<double>(nowNs() - reads_start));

        // Then pipelines three demands, and every eighth tick a cap
        // batch, in a seeded arrival order across all tenants.
        arrivals.clear();
        for (int a = 0; a < kTenants; ++a) {
            for (int k = 0; k < kPool; ++k)
                arrivals.emplace_back(a, k);
            if (((a + tick) & 7) == 0)
                arrivals.emplace_back(a, kPool);
        }
        std::shuffle(arrivals.begin(), arrivals.end(), gen.engine());
        inflight.clear();
        for (const auto &[a, k] : arrivals) {
            Remote &t = *d->tenants[a];
            const std::int64_t sent = nowNs();
            std::uint32_t req = 0;
            if (k < kPool) {
                const double demand = demandAt(tick, a, k, d->phase[a]);
                req = t.send([&](net::Client &c) {
                    return c.sendSetDemand(d->containers[a][k], demand);
                });
            } else {
                caps.clear();
                for (const net::RemoteContainer &rc : d->containers[a])
                    caps.push_back({rc, gen.uniform(2.0, 6.0)});
                req = t.send([&](net::Client &c) {
                    return c.sendApplyCapBatch(caps);
                });
            }
            inflight.push_back({a, req, sent});
        }

        const bool traced = tracer().on();
        const double wal_before =
            traced ? fileBytes(d->w.mgr.walPath()) : 0.0;
        d->tick(&r);
        if (traced) {
            // The WAL restarts empty after a snapshot; otherwise its
            // growth over the tick is the tick's record.
            const double wal_after = fileBytes(d->w.mgr.walPath());
            if (wal_after > 0.0) {
                wal_bytes += wal_after - wal_before;
                wal_ticks += 1.0;
            } else {
                tracer().set(Count::CkptSnapshotBytes,
                             fileBytes(d->w.mgr.snapshotPath()));
            }
        }

        for (const Inflight &f : inflight) {
            api::Status st = d->tenants[f.tenant]->await(
                f.req, [](net::Client &c, std::uint32_t q) {
                    return c.await(q);
                });
            r.mut_ns.add(static_cast<double>(nowNs() - f.sent_ns));
            ++r.attempted;
            r.failed += st.ok() ? 0 : 1;
        }
        win.unitDone();
        tick = d->w.simul.clock().tickCount();
        atCheckTick(eco, tick, check_tick, &r);
    }
    checkWorld(eco, kPool, &r);

    const net::ServerStats &ss = d->w.server.stats();
    tracer().set(Count::SimTicks, static_cast<double>(win.units()));
    tracer().set(Count::TraceOverheadFrac, win.overheadFrac());
    tracer().set(Count::NetServerFrames,
                 static_cast<double>(ss.frames_decoded));
    tracer().set(Count::NetServerCommitted,
                 static_cast<double>(ss.coalesced_committed));
    tracer().set(Count::NetServerRejected,
                 static_cast<double>(ss.admission_rejects));
    if (d->w.traced_commits > 0.0)
        tracer().set(Count::NetServerBatchOps,
                     d->w.traced_ops / d->w.traced_commits);
    if (wal_ticks > 0.0)
        tracer().set(Count::CkptWalBytesPerTick, wal_bytes / wal_ticks);

    // Crash here, then recover fresh copies of the state directory:
    // each must replay the WAL tail to exactly the crashed world.
    const std::uint64_t crashed = domainDigest(eco, tick);
    const std::filesystem::path live_dir =
        std::filesystem::path(d->w.mgr.snapshotPath()).parent_path();
    const int copies = opt.smoke ? 1 : 5;
    for (int i = 0; i < copies; ++i) {
        const std::string copy_dir = root.dir("copy" + std::to_string(i));
        std::filesystem::copy(live_dir, copy_dir);
        DurableWorld fresh(copy_dir, opt.seed, false);
        tracer().setOn(opt.trace);
        api::Status st = [&] {
            SpanScope span(Span::CkptRecover);
            return fresh.mgr.recover();
        }();
        tracer().setOn(false);
        r.expect(st.ok(), "recover failed: " + st.message());
        r.expect(fresh.mgr.replayedTicks() == kSnapshotEvery - 1,
                 "recover replayed " +
                     std::to_string(fresh.mgr.replayedTicks()) +
                     " WAL ticks, expected 31");
        r.expect(domainDigest(fresh.rig.eco,
                              fresh.simul.clock().tickCount()) == crashed,
                 "recovered world differs from the crashed one");
        tracer().set(Count::CkptRecoverReplayedTicks,
                     static_cast<double>(fresh.mgr.replayedTicks()));
    }
    return r;
}

} // namespace ecoperf
