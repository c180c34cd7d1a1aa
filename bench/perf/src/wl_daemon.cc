/**
 * @file
 * daemon_tcp: the real ecovisord, spawned as a child process, driven
 * over TCP by one client thread in an open loop.
 *
 * Round k falls due at k x 20 ms plus a seeded offset in [0, 10 ms),
 * so its phase against the daemon's 5 ms tick is uniform and rounds
 * never queue behind each other unless something stalls. Each request
 * is timed from its round's due time, so a stall also delays the
 * rounds due behind it.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "net/socket.h"
#include "util/rng.h"
#include "remote.h"
#include "workloads.h"
#include "world.h"

extern char **environ;

namespace ecoperf {

using namespace ecov;

namespace {

constexpr int kConns = 4;
constexpr int kPerConn = 32;
constexpr int kTenants = kConns * kPerConn;
constexpr int kPool = 3;
constexpr std::int64_t kRoundNs = 20'000'000;
constexpr double kJitterNs = 10e6;

/** What ecovisord reported and how it ended. */
struct DaemonExit
{
    bool exited_zero = false;
    bool stats_line = false;
    long long ticks = 0;
    unsigned long long frames = 0, committed = 0, rejected = 0;
    double cpu_s = 0.0;
    double maxrss_mb = 0.0;
    /** From the listening line to SIGTERM. */
    double life_s = 0.0;
};

/** ecovisord as a child process; killed and reaped if not stopped. */
class Daemon
{
  public:
    /** Spawn it and wait for its listening line. */
    static std::unique_ptr<Daemon>
    start(std::uint64_t seed, std::string *err)
    {
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0) {
            *err = "pipe failed";
            return nullptr;
        }
        std::vector<std::string> args = {
            ECOPERF_DAEMON, "--port=0", "--nodes=64", "--tick-ms=5",
            "--seed=" + std::to_string(seed % 2147483647u)};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        // One settlement thread, like every other workload.
        std::string threads = "ECOV_THREADS=1";
        std::vector<char *> envp = {threads.data()};
        for (char **e = environ; *e; ++e)
            if (std::strncmp(*e, "ECOV_THREADS=", 13) != 0)
                envp.push_back(*e);
        envp.push_back(nullptr);

        const pid_t pid = ::fork();
        if (pid == 0) {
            ::dup2(fds[1], STDOUT_FILENO);
            ::execve(argv[0], argv.data(), envp.data());
            ::_exit(127);
        }
        ::close(fds[1]);
        if (pid < 0) {
            ::close(fds[0]);
            *err = "fork failed";
            return nullptr;
        }
        std::unique_ptr<Daemon> d(new Daemon(pid, fds[0]));
        std::string line;
        while (d->readLine(10000, &line)) {
            unsigned port = 0;
            if (std::sscanf(line.c_str(),
                            "ecovisord: listening on 127.0.0.1:%u",
                            &port) == 1) {
                d->port_ = static_cast<std::uint16_t>(port);
                d->listening_ns_ = nowNs();
                return d;
            }
        }
        *err = "ecovisord never printed its listening line";
        return nullptr;
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
        ::close(out_fd_);
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    std::uint16_t port() const { return port_; }

    /** SIGTERM, read its exit stats line, reap it with wait4. */
    DaemonExit
    stop()
    {
        DaemonExit e;
        ::kill(pid_, SIGTERM);
        e.life_s = static_cast<double>(nowNs() - listening_ns_) * 1e-9;
        std::string line;
        while (readLine(10000, &line))
            if (std::sscanf(line.c_str(),
                            "ecovisord: %lld ticks, %llu frames, %llu "
                            "committed, %llu rejected",
                            &e.ticks, &e.frames, &e.committed,
                            &e.rejected) == 4)
                e.stats_line = true;
        int status = 0;
        rusage ru{};
        if (::wait4(pid_, &status, 0, &ru) == pid_) {
            pid_ = -1;
            e.exited_zero = WIFEXITED(status) && WEXITSTATUS(status) == 0;
            e.cpu_s = cpuSeconds(ru);
            e.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        return e;
    }

  private:
    Daemon(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}

    /** Next stdout line; false at EOF or after timeout_ms of silence. */
    bool
    readLine(int timeout_ms, std::string *line)
    {
        for (;;) {
            const std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                *line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            pollfd p{out_fd_, POLLIN, 0};
            if (::poll(&p, 1, timeout_ms) <= 0)
                return false;
            char chunk[512];
            const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    pid_t pid_;
    int out_fd_;
    std::uint16_t port_ = 0;
    std::int64_t listening_ns_ = 0;
    std::string buf_;
};

/** A daemon and the client's four connections to it. */
struct Tcp
{
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<Remote>> conns;
    /** Per tenant (index conn * kPerConn + slot). */
    std::vector<net::RemoteApp> apps;
    std::vector<std::array<net::RemoteContainer, kPool>> containers;
    std::vector<int> phase;
    std::uint64_t mutations = 0;

    Remote &conn(int tenant) { return *conns[tenant / kPerConn]; }

    /** Start the daemon, connect, register every tenant, then spawn
     *  its pool (in two steps, so no session passes 128 inflight). */
    void
    setUp(const RunOptions &opt, RunResult *r)
    {
        std::string err;
        daemon = Daemon::start(opt.seed, &err);
        if (!daemon) {
            r->expect(false, err);
            return;
        }
        for (int c = 0; c < kConns; ++c) {
            tracer().setOn(opt.trace);
            api::Result<std::unique_ptr<net::SocketTransport>> sock = [&] {
                SpanScope span(Span::NetSocketConnect);
                return net::SocketTransport::connect("127.0.0.1",
                                                     daemon->port());
            }();
            tracer().setOn(false);
            if (!sock.ok()) {
                r->expect(false, "connect: " + sock.status().message());
                return;
            }
            conns.push_back(std::make_unique<Remote>(
                std::move(sock.value()), Span::NetClientSend,
                static_cast<std::uint32_t>(c)));
        }
        Rng gen(opt.seed);
        const core::AppShareConfig share = tenantShare(kTenants);
        std::vector<std::uint32_t> reqs(kTenants * kPool);
        for (int t = 0; t < kTenants; ++t) {
            reqs[t] = conn(t).client().sendRegisterApp(tenantName(t), share);
            phase.push_back(static_cast<int>(gen.uniformInt(0, 96)));
        }
        for (int t = 0; t < kTenants; ++t) {
            api::Result<net::RemoteApp> app =
                conn(t).client().awaitApp(reqs[t]);
            r->failed += app.ok() ? 0 : 1;
            apps.push_back(app.valueOr(net::RemoteApp{}));
        }
        for (int t = 0; t < kTenants; ++t)
            for (int k = 0; k < kPool; ++k)
                reqs[t * kPool + k] =
                    conn(t).client().sendSpawnContainer(apps[t], 1.0);
        containers.resize(kTenants);
        for (int t = 0; t < kTenants; ++t)
            for (int k = 0; k < kPool; ++k) {
                api::Result<net::RemoteContainer> cont =
                    conn(t).client().awaitContainer(reqs[t * kPool + k]);
                r->failed += cont.ok() ? 0 : 1;
                containers[t][k] = cont.valueOr(net::RemoteContainer{});
            }
        r->attempted += kTenants * (1 + kPool);
        mutations += kTenants * (1 + kPool);
    }

    /** Stop the daemon and check it served exactly what was sent. */
    DaemonExit
    tearDown(RunResult *r)
    {
        DaemonExit e = daemon->stop();
        std::uint64_t sent = 0;
        for (const auto &c : conns)
            sent += c->client().requestsSent();
        r->expect(e.exited_zero, "ecovisord did not exit 0 on SIGTERM");
        r->expect(e.stats_line, "ecovisord printed no exit stats line");
        r->expect(e.frames == sent,
                  "ecovisord decoded " + std::to_string(e.frames) +
                      " frames, the client sent " + std::to_string(sent));
        r->expect(e.committed == mutations,
                  "ecovisord committed " + std::to_string(e.committed) +
                      " mutations, the client sent " +
                      std::to_string(mutations));
        r->expect(e.rejected == 0, "ecovisord rejected " +
                                       std::to_string(e.rejected) +
                                       " requests at admission");
        return e;
    }
};

void
sleepUntil(std::int64_t ns)
{
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts,
                             nullptr) == EINTR) {
    }
}

} // namespace

RunResult
runDaemonTcp(const RunOptions &opt)
{
    RunResult r;
    const auto build = [&] {
        auto tcp = std::make_unique<Tcp>();
        tcp->setUp(opt, &r);
        return tcp;
    };
    std::unique_ptr<Tcp> tcp;
    for (int i = 0; i < kSetups; ++i) {
        if (tcp)
            tcp->tearDown(&r);
        tcp = timedSetUp(&r, build);
        if (!r.failures.empty())
            return r;
    }

    const double capacity_wh = tenantShare(kTenants).battery->capacity_wh;
    Rng gen(opt.seed + 1);
    std::vector<std::uint32_t> reads(kTenants);
    std::vector<std::pair<int, std::uint32_t>> muts;
    std::vector<net::RemoteCap> caps;
    int bad_snapshots = 0;

    const std::int64_t first_due = nowNs();
    std::int64_t due = first_due;
    Window win(opt, &r);
    std::int64_t round = 0;
    const std::int64_t min_rounds = opt.smoke ? 16 : 256;
    while (win.open(round < min_rounds)) {
        sleepUntil(due);
        const std::int64_t start = nowNs();
        if (tracer().on())
            tracer().add(Span::LoadGenLag, due, start - due);

        // Every tenant reads its state...
        for (int t = 0; t < kTenants; ++t)
            reads[t] = tcp->conn(t).send([&](net::Client &c) {
                return c.sendGetSnapshot(tcp->apps[t]);
            });
        for (int t = 0; t < kTenants; ++t) {
            api::Result<api::EnergySnapshot> snap = tcp->conn(t).await(
                reads[t], [](net::Client &c, std::uint32_t q) {
                    return c.awaitSnapshot(q);
                });
            r.read_ns.add(static_cast<double>(nowNs() - due));
            ++r.attempted;
            if (!snap.ok())
                ++r.failed;
            else if (!(snap.value().battery_charge_level_wh >= 0.0 &&
                       snap.value().battery_charge_level_wh <=
                           capacity_wh * (1 + 1e-12)))
                ++bad_snapshots;
        }

        // ...then sets three demands, and every eighth round re-caps.
        muts.clear();
        for (int t = 0; t < kTenants; ++t) {
            Remote &conn = tcp->conn(t);
            for (int k = 0; k < kPool; ++k) {
                const double demand = demandAt(round, t, k, tcp->phase[t]);
                muts.emplace_back(t, conn.send([&](net::Client &c) {
                    return c.sendSetDemand(tcp->containers[t][k], demand);
                }));
            }
            if (round % 8 == 0) {
                caps.clear();
                for (const net::RemoteContainer &rc : tcp->containers[t])
                    caps.push_back({rc, gen.uniform(2.0, 6.0)});
                muts.emplace_back(t, conn.send([&](net::Client &c) {
                    return c.sendApplyCapBatch(caps);
                }));
            }
        }
        for (const auto &[t, req] : muts) {
            api::Status st = tcp->conn(t).await(
                req, [](net::Client &c, std::uint32_t q) {
                    return c.await(q);
                });
            r.mut_ns.add(static_cast<double>(nowNs() - due));
            ++r.attempted;
            r.failed += st.ok() ? 0 : 1;
        }
        tcp->mutations += muts.size();

        win.unitDone(nowNs() - start);
        ++round;
        due = first_due + round * kRoundNs +
              static_cast<std::int64_t>(gen.uniform(0.0, kJitterNs));
    }

    const DaemonExit e = tcp->tearDown(&r);
    r.expect(bad_snapshots == 0,
             std::to_string(bad_snapshots) +
                 " snapshots read a battery level outside [0, capacity]");
    // The window counts the client's rounds and CPU; the ecovisor here
    // is the daemon, so its own numbers replace them. They are as
    // measured: its ticks and the requests follow the schedule, and
    // the reference, taken on the client's core, says nothing about
    // the daemon's.
    const double ticks = static_cast<double>(e.ticks);
    r.ticks_per_s = r.wall_ticks_per_s = ticks / e.life_s;
    r.req_per_s = r.wall_req_per_s;
    r.cpu_us_per_tick = r.wall_cpu_us_per_tick = e.cpu_s * 1e6 / ticks;
    r.rss_mb = e.maxrss_mb;
    tracer().set(Count::SimTicks, static_cast<double>(e.ticks));
    tracer().set(Count::TraceOverheadFrac, win.overheadFrac());
    tracer().set(Count::NetServerFrames, static_cast<double>(e.frames));
    tracer().set(Count::NetServerCommitted,
                 static_cast<double>(e.committed));
    tracer().set(Count::NetServerRejected, static_cast<double>(e.rejected));
    if (e.ticks > 0)
        tracer().set(Count::NetServerBatchOps,
                     static_cast<double>(e.committed) /
                         static_cast<double>(e.ticks));
    return r;
}

} // namespace ecoperf
