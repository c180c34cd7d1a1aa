/**
 * @file
 * ecovisord — the ecovisor as a long-running daemon.
 *
 * Hosts a synthetic physical energy system plus a cluster, steps the
 * simulation clock in wall time, and serves remote tenants over the
 * framed TCP protocol (docs/ECOVISORD.md). Single-threaded: one
 * ppoll(2) loop interleaves socket I/O with tick stepping, and every
 * mutating tenant request commits at the tick boundary in canonical
 * (session id, request id) order.
 *
 *   ecovisord [--port=N] [--nodes=N] [--cores=N] [--tick=SECONDS]
 *             [--tick-ms=MS] [--max-ticks=N] [--seed=N]
 *             [--lease-ticks=N] [--state-dir=PATH]
 *             [--checkpoint-every-ticks=N] [--fsync=always|never]
 *             [--quiet]
 *
 *   --port      TCP port on 127.0.0.1; 0 (default) lets the OS pick.
 *   --nodes     cluster size (default 16)
 *   --cores     cores per node (default 8)
 *   --tick      simulated seconds per tick (default 60)
 *   --tick-ms   wall milliseconds between ticks (default 100; 0 =
 *               step back to back)
 *   --max-ticks stop after N ticks; 0 (default) = run until SIGTERM
 *   --seed      trace seed for the synthetic carbon/solar day
 *   --lease-ticks  session lease length in ticks: a disconnected
 *               tenant's namespace survives this many ticks awaiting
 *               reconnect-and-resume (docs/FAULTS.md); 0 (default)
 *               revokes on disconnect, the pre-lease behaviour
 *   --state-dir durable state directory (docs/CHECKPOINT.md). When
 *               set, the daemon recovers from it at boot — leased
 *               sessions survive the restart and resume without
 *               re-registering — write-ahead-logs every tick, and
 *               snapshots periodically. Unset = no persistence.
 *   --checkpoint-every-ticks  snapshot cadence (default 32)
 *   --fsync     durability policy for --state-dir writes: "always"
 *               (default; survives power loss) or "never" (survives
 *               process death only — crash tests)
 *
 * SIGINT/SIGTERM drain cleanly: queued requests are answered
 * Unavailable, outboxes flush, and the process exits 0 — the CI smoke
 * job asserts exactly this. With --state-dir the daemon also writes a
 * final snapshot and prints its full-state digest, which the smoke
 * job compares against an uninterrupted reference run. A tick whose
 * durability barrier (endTick) fails ends the process with exit 1
 * before any of that tick's replies is sent.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "carbon/region_traces.h"
#include "ckpt/manager.h"
#include "core/ecovisor.h"
#include "energy/solar_array.h"
#include "net/server.h"
#include "net/socket.h"
#include "sim/simulation.h"

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

bool
parseFlag(const char *arg, const char *name, long long *out)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    *out = std::atoll(arg + n + 1);
    return true;
}

bool
parseStringFlag(const char *arg, const char *name, std::string *out)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    *out = arg + n + 1;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ecov;

    long long port = 0, nodes = 16, cores = 8, tick_s = 60;
    long long tick_ms = 100, max_ticks = 0, seed = 7;
    long long lease_ticks = 0, ckpt_every = 32;
    std::string state_dir, fsync_mode = "always";
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (parseFlag(a, "--port", &port) ||
            parseFlag(a, "--nodes", &nodes) ||
            parseFlag(a, "--cores", &cores) ||
            parseFlag(a, "--tick", &tick_s) ||
            parseFlag(a, "--tick-ms", &tick_ms) ||
            parseFlag(a, "--max-ticks", &max_ticks) ||
            parseFlag(a, "--seed", &seed) ||
            parseFlag(a, "--lease-ticks", &lease_ticks) ||
            parseFlag(a, "--checkpoint-every-ticks", &ckpt_every) ||
            parseStringFlag(a, "--state-dir", &state_dir) ||
            parseStringFlag(a, "--fsync", &fsync_mode))
            continue;
        if (std::strcmp(a, "--quiet") == 0) {
            quiet = true;
            continue;
        }
        std::fprintf(stderr, "ecovisord: unknown argument %s\n", a);
        return 64;
    }
    if (port < 0 || port > 65535 || nodes < 1 || cores < 1 ||
        tick_s < 1 || tick_ms < 0 || max_ticks < 0 ||
        lease_ticks < 0 || lease_ticks > 1'000'000 ||
        (fsync_mode != "always" && fsync_mode != "never")) {
        std::fprintf(stderr, "ecovisord: argument out of range\n");
        return 64;
    }

    // Synthetic world: a California-like carbon day, solar scaled to
    // the cluster (100 W peak per node), the paper's 1440 Wh battery.
    auto signal = carbon::makeRegionTrace(carbon::californiaProfile(),
                                          /*days=*/30,
                                          static_cast<int>(seed));
    energy::GridConnection grid(&signal);
    energy::SolarTraceConfig solar_cfg;
    solar_cfg.peak_w = 100.0 * static_cast<double>(nodes);
    solar_cfg.cloudiness = 0.2;
    auto solar =
        energy::makeSolarTrace(solar_cfg, static_cast<int>(seed));
    energy::BatteryConfig battery;

    power::ServerPowerConfig node_cfg;
    node_cfg.cores = static_cast<int>(cores);
    cop::Cluster cluster(static_cast<int>(nodes), node_cfg);
    energy::PhysicalEnergySystem phys(&grid, &solar, battery);
    // No telemetry history: no opcode, snapshot, WAL record or log
    // line reads it, so recording would only grow the heap every tick
    // (ECOVISORD.md "Telemetry").
    core::EcovisorOptions eco_opts;
    eco_opts.record_telemetry = false;
    core::Ecovisor eco(&cluster, &phys, eco_opts);

    sim::Simulation simul(static_cast<TimeS>(tick_s));
    eco.attach(simul);

    net::ServerCoreOptions core_opts;
    core_opts.lease_ticks = static_cast<std::uint32_t>(lease_ticks);
    net::ServerCore server(&eco, core_opts);

    // Handlers go in before recovery and its "recovered to tick"
    // line: a SIGTERM from then on ends the run cleanly (final
    // snapshot, drain, exit 0) instead of killing the process.
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    // Durable state: recover (replaying any WAL tail) before the
    // listener opens, so resumed tenants find their sessions leased
    // and waiting (docs/CHECKPOINT.md).
    std::unique_ptr<ckpt::CheckpointManager> ckpt_mgr;
    if (!state_dir.empty()) {
        ckpt::World world;
        world.sim = &simul;
        world.eco = &eco;
        world.cluster = &cluster;
        world.phys = &phys;
        world.grid = &grid;
        world.server = &server;
        ckpt::CheckpointOptions ckpt_opts;
        ckpt_opts.dir = state_dir;
        ckpt_opts.every_ticks = ckpt_every;
        ckpt_opts.fsync = fsync_mode == "always"
                              ? ckpt::FsyncPolicy::Always
                              : ckpt::FsyncPolicy::Never;
        ckpt_mgr = std::make_unique<ckpt::CheckpointManager>(
            world, ckpt_opts);
        auto st = ckpt_mgr->recover();
        if (!st.ok()) {
            std::fprintf(stderr, "ecovisord: recovery failed: %s\n",
                         st.message().c_str());
            return 1;
        }
        std::printf("ecovisord: recovered to tick %lld (%lld WAL "
                    "ticks replayed)\n",
                    static_cast<long long>(ckpt_mgr->recoveredTick()),
                    static_cast<long long>(ckpt_mgr->replayedTicks()));
    }

    net::TcpServerOptions tcp_opts;
    tcp_opts.port = static_cast<std::uint16_t>(port);
    auto tcp = net::TcpServer::create(&server, tcp_opts);
    if (!tcp.ok()) {
        std::fprintf(stderr, "ecovisord: %s\n",
                     tcp.status().message().c_str());
        return 1;
    }

    // The smoke harness greps this exact line for the bound port.
    std::printf("ecovisord: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(tcp.value()->port()));
    std::fflush(stdout);

    using Clock = std::chrono::steady_clock;
    const auto tick_period = std::chrono::milliseconds(tick_ms);
    auto next_tick = Clock::now() + tick_period;
    long long ticks = 0;

    while (!g_stop.load() &&
           (max_ticks == 0 || ticks < max_ticks)) {
        // Sleep until the tick is due or a socket wakes us. With
        // --tick-ms=0 the deadline never moves off the start time, so
        // the wait never blocks and ticks step back to back.
        if (!tcp.value()->poll(next_tick)) {
            std::fprintf(stderr, "ecovisord: listener failed\n");
            return 1;
        }
        if (Clock::now() >= next_tick) {
            if (ckpt_mgr) {
                auto st = ckpt_mgr->beginTick();
                if (!st.ok()) {
                    std::fprintf(stderr, "ecovisord: WAL append "
                                 "failed: %s\n",
                                 st.message().c_str());
                    return 1;
                }
            }
            simul.step();
            ++ticks;
            if (ckpt_mgr) {
                // The durability barrier: the tick's WAL record is
                // synced (and every K ticks a snapshot published)
                // before any of its replies goes out below.
                auto st = ckpt_mgr->endTick();
                if (!st.ok()) {
                    // The step has already queued this tick's replies
                    // in the outboxes, and a return would flush them
                    // from ~TcpServer, acking a tick that may not be
                    // on disk. _Exit sends none of them.
                    std::fprintf(stderr, "ecovisord: durability "
                                 "failed: %s\n",
                                 st.message().c_str());
                    std::fflush(stdout);
                    std::_Exit(1);
                }
            }
            next_tick += tick_period;
            // Deliver the tick's responses without waiting for the
            // next tick's deadline.
            if (!tcp.value()->poll(Clock::now())) {
                std::fprintf(stderr, "ecovisord: listener failed\n");
                return 1;
            }
        }
    }

    // Final durable snapshot + the digest line the smoke job compares
    // against an uninterrupted reference run — both before the drain,
    // which mutates session state.
    if (ckpt_mgr) {
        auto st = ckpt_mgr->writeSnapshot();
        if (!st.ok())
            std::fprintf(stderr, "ecovisord: final snapshot failed: "
                         "%s\n",
                         st.message().c_str());
        std::printf("ecovisord: state digest %016llx\n",
                    static_cast<unsigned long long>(ckpt_mgr->digest()));
        std::fflush(stdout);
    }

    // Drain: everything still queued answers Unavailable, outboxes
    // flush, connections close — then exit 0.
    server.beginDrain();
    tcp.value()->poll(Clock::now());
    tcp.value()->shutdownAll();

    if (!quiet) {
        const net::ServerStats &st = server.stats();
        const net::TcpServerStats &io = tcp.value()->stats();
        std::printf("ecovisord: %lld ticks, %llu frames, %llu "
                    "committed, %llu rejected, %llu resumed, %llu "
                    "leases expired, %llu reads, %llu writes, %llu "
                    "wakeups, exiting cleanly\n",
                    ticks,
                    static_cast<unsigned long long>(st.frames_decoded),
                    static_cast<unsigned long long>(
                        st.coalesced_committed),
                    static_cast<unsigned long long>(
                        st.admission_rejects),
                    static_cast<unsigned long long>(
                        st.leases_resumed),
                    static_cast<unsigned long long>(
                        st.leases_expired),
                    static_cast<unsigned long long>(io.reads),
                    static_cast<unsigned long long>(io.writes),
                    static_cast<unsigned long long>(io.wakeups));
    }
    return 0;
}
