/**
 * @file
 * Remote quickstart: the quickstart workload driven over TCP against
 * a running `ecovisord` — the same register/spawn/cap/snapshot flow,
 * but through net::Client instead of linking the ecovisor in-process
 * (docs/ECOVISORD.md).
 *
 * Run a daemon, then point this at it:
 *   ./build/src/net/ecovisord --port=7447 &
 *   ./build/examples/remote_quickstart 7447
 *
 * With --inject-protocol-error the example instead sends garbage
 * bytes mid-session and exits 2 once the server, as it must, answers
 * with a ProtocolError frame and closes the connection (the CI
 * server-smoke job asserts this nonzero exit). Exit codes: 0 normal
 * success, 1 failure, 2 protocol error observed as intended.
 *
 * With --chaos the example becomes a fault-tolerant tenant
 * (docs/FAULTS.md): per-call deadlines, a session lease via
 * beginSession(), and a recovery loop that survives both flaky
 * transport and a daemon kill-and-restart. Any failed call triggers
 * reconnect with capped exponential backoff, then resume() — which
 * retransmits unacknowledged mutations into the server's dedup
 * window — and, when the lease is gone (expired, or a restarted
 * daemon that never saw it), abandonSession() and re-registration
 * under an incarnation-suffixed name. Mid-run it also drops its own
 * connection once to force the resume path even against a healthy
 * daemon. Reconnects draw on one global backoff budget (capped delay,
 * jitter deterministic in --seed), so a permanently-dead daemon
 * exhausts it and the tenant exits nonzero rather than spinning
 * forever. Exits 0 only if the full iteration budget completes.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unistd.h>

#include "net/client.h"
#include "net/socket.h"
#include "util/rng.h"

using namespace ecov;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <port> [host] [--inject-protocol-error] "
                 "[--chaos] [--seed=N]\n",
                 argv0);
    return 64;
}

/**
 * Reconnect policy for the chaos tenant: capped exponential backoff
 * with deterministic jitter (pure function of --seed, so two runs of
 * the chaos leg hammer the daemon at the same instants), and a
 * *global* attempt budget across the whole run — a permanently-dead
 * daemon exhausts it and the tenant exits nonzero instead of spinning
 * forever.
 */
class Backoff
{
  public:
    explicit Backoff(std::uint64_t seed) : rng_(seed) {}

    /** True while attempts remain; sleeps the jittered delay. */
    bool
    next()
    {
        if (spent_ >= kBudget)
            return false;
        ++spent_;
        // Full jitter on [delay/2, delay): desynchronises competing
        // tenants without ever exceeding the cap.
        const double jittered =
            rng_.uniform(delay_ms_ / 2.0, static_cast<double>(delay_ms_));
        ::usleep(static_cast<useconds_t>(jittered * 1000.0));
        delay_ms_ = delay_ms_ * 2 > kMaxDelayMs ? kMaxDelayMs
                                                : delay_ms_ * 2;
        return true;
    }

    /** A healthy call landed: restart the delay ramp (the budget, by
     *  design, does not refill — it bounds the whole run). */
    void reset() { delay_ms_ = kBaseDelayMs; }

    int spent() const { return spent_; }

  private:
    static constexpr int kBudget = 48;      ///< total attempts per run
    static constexpr int kBaseDelayMs = 25; ///< first retry delay
    static constexpr int kMaxDelayMs = 800; ///< delay ceiling

    Rng rng_;
    int delay_ms_ = kBaseDelayMs;
    int spent_ = 0;
};

/** Connect, retrying on the shared backoff budget; null when spent. */
std::unique_ptr<net::SocketTransport>
connectWithBackoff(const std::string &host, std::uint16_t port,
                   Backoff &backoff)
{
    for (;;) {
        auto t = net::SocketTransport::connect(host, port);
        if (t.ok())
            return std::move(t.value());
        if (!backoff.next())
            return nullptr; // budget exhausted: daemon presumed dead
    }
}

/** The chaos tenant: survive anything, finish the loop, exit 0. */
int
runChaos(const std::string &host, std::uint16_t port,
         std::uint64_t seed)
{
    Backoff backoff(seed);
    auto transport = connectWithBackoff(host, port, backoff);
    if (!transport) {
        std::fprintf(stderr, "chaos: could not reach daemon\n");
        return 1;
    }
    net::Client client(transport.get());
    client.setCallTimeout(2000);

    char base[32];
    std::snprintf(base, sizeof base, "rqc-%d",
                  static_cast<int>(::getpid()));
    int incarnation = 0;
    net::RemoteApp app{0};
    net::RemoteContainer cont{0};
    int resumes = 0;
    int reregisters = 0;

    // (Re)establish a working session: fresh lease, registration
    // keyed by incarnation so a restarted daemon never sees a
    // name collision with our earlier life.
    const auto enroll = [&]() -> bool {
        (void)client.beginSession();
        char name[48];
        std::snprintf(name, sizeof name, "%s#%d", base, incarnation);
        ++incarnation;
        auto a = client.registerApp(name, core::AppShareConfig{});
        if (!a.ok())
            return false;
        // The daemon answers only after the committing tick's
        // endTick, its WAL record synced, so a --state-dir daemon now
        // holds this session durably; ci/server_smoke.sh waits for
        // this line to kill it.
        std::printf("chaos: registered %s\n", name);
        std::fflush(stdout);
        auto c = client.spawnContainer(a.value(), 1.0);
        if (!c.ok())
            return false;
        app = a.value();
        cont = c.value();
        return client.setDemand(cont, 0.8).ok();
    };

    // Recover from any failed call: reconnect (the daemon itself may
    // be mid-restart), then prefer resume() — same handles, unacked
    // mutations retransmitted — and fall back to a fresh enrolment.
    const auto recover = [&]() -> bool {
        for (;;) {
            transport = connectWithBackoff(host, port, backoff);
            if (!transport)
                return false; // reconnect budget exhausted
            client.bindTransport(transport.get());
            if (client.resume().ok()) {
                ++resumes;
                backoff.reset();
                return true;
            }
            // A broken connection is not an answer: a daemon that is
            // dying can still accept a connect and then reset it, so
            // the lease may be alive. Reconnect and ask again; only a
            // daemon that answered (unknown or expired token) ends
            // the session.
            if (!client.connectionError().ok()) {
                if (!backoff.next())
                    return false;
                continue;
            }
            client.abandonSession();
            if (enroll()) {
                ++reregisters;
                backoff.reset();
                return true;
            }
            // Enrolment raced another daemon death; the next connect
            // draws down the same global budget, so this terminates.
            if (!backoff.next())
                return false;
        }
    };

    if (!enroll() && !recover()) {
        std::fprintf(stderr, "chaos: could not enroll\n");
        return 1;
    }

    constexpr int kIters = 30;
    for (int i = 0; i < kIters; ++i) {
        if (i == kIters / 2) {
            // Self-inflicted network fault: drop our own connection
            // so the resume path runs even if the daemon stays up.
            transport.reset();
            if (!recover()) {
                std::fprintf(stderr, "chaos: recovery failed\n");
                return 1;
            }
        }
        auto snap = client.getEnergySnapshot(app);
        if (!snap.ok()) {
            if (!recover()) {
                std::fprintf(stderr,
                             "chaos: recovery failed at iter %d: %s\n",
                             i, snap.status().message().c_str());
                return 1;
            }
            --i; // retry this iteration on the recovered session
            continue;
        }
        if (!client.setDemand(cont, 0.2 + 0.02 * i).ok() &&
            !recover()) {
            std::fprintf(stderr, "chaos: recovery failed\n");
            return 1;
        }
        ::usleep(10'000);
    }

    std::printf("chaos survived: %d iters, %d resume(s), %d "
                "re-registration(s), incarnation %d, %d backoff "
                "attempt(s)\n",
                kIters, resumes, reregisters, incarnation - 1,
                backoff.spent());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint16_t port = 0;
    std::string host = "127.0.0.1";
    bool inject_error = false;
    bool chaos = false;
    std::uint64_t seed = 1;
    int positional = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--inject-protocol-error") == 0) {
            inject_error = true;
        } else if (std::strcmp(argv[i], "--chaos") == 0) {
            chaos = true;
        } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
            seed = std::strtoull(argv[i] + 7, nullptr, 10);
        } else if (positional == 0) {
            const long p = std::strtol(argv[i], nullptr, 10);
            if (p <= 0 || p > 65535)
                return usage(argv[0]);
            port = static_cast<std::uint16_t>(p);
            ++positional;
        } else if (positional == 1) {
            host = argv[i];
            ++positional;
        } else {
            return usage(argv[0]);
        }
    }
    if (port == 0)
        return usage(argv[0]);

    if (chaos)
        return runChaos(host, port, seed);

    auto transport = net::SocketTransport::connect(host, port);
    if (!transport.ok()) {
        std::fprintf(stderr, "connect failed: %s\n",
                     transport.status().message().c_str());
        return 1;
    }
    net::Client client(transport.value().get());

    if (auto st = client.ping(); !st.ok()) {
        std::fprintf(stderr, "ping failed: %s\n",
                     st.message().c_str());
        return 1;
    }
    std::printf("connected to ecovisord at %s:%u\n", host.c_str(),
                port);

    if (inject_error) {
        // Deliberately break framing. The server must answer with a
        // ProtocolError frame and close the connection; the client
        // surfaces that as a latched Unavailable on the next call.
        const std::uint8_t garbage[] = {0xBA, 0xDF, 0x00, 0x0D,
                                        0xBA, 0xDF, 0x00, 0x0D,
                                        0xBA, 0xDF, 0x00, 0x0D};
        (void)transport.value()->send(garbage, sizeof garbage);
        const api::Status st = client.ping();
        if (st.ok()) {
            std::fprintf(stderr,
                         "server accepted garbage framing!\n");
            return 1;
        }
        std::printf("protocol error handled as expected: %s\n",
                    st.message().c_str());
        return 2;
    }

    // Tenant names are per-daemon unique; key by pid so reruns
    // against a long-lived daemon don't collide.
    char name[32];
    std::snprintf(name, sizeof name, "rq-%d",
                  static_cast<int>(::getpid()));

    // A share of solar plus a slice of virtual battery.
    core::AppShareConfig share;
    share.solar_fraction = 0.25;
    energy::BatteryConfig battery;
    battery.capacity_wh = 360.0;
    battery.max_charge_w = 90.0;
    battery.max_discharge_w = 360.0;
    battery.initial_soc = 0.5;
    share.battery = battery;

    // Mutating calls resolve at the daemon's next tick commit; the
    // sync client just blocks across that boundary.
    auto app = client.registerApp(name, share);
    if (!app.ok()) {
        std::fprintf(stderr, "registerApp failed: %s\n",
                     app.status().message().c_str());
        return 1;
    }
    auto c1 = client.spawnContainer(app.value(), 2.0);
    auto c2 = client.spawnContainer(app.value(), 2.0);
    if (!c1.ok() || !c2.ok()) {
        std::fprintf(stderr, "spawnContainer failed\n");
        return 1;
    }
    if (!client.setDemand(c1.value(), 0.9).ok() ||
        !client.setDemand(c2.value(), 0.6).ok()) {
        std::fprintf(stderr, "setDemand failed\n");
        return 1;
    }

    // Carbon-aware capping loop: snapshot (immediate), react (next
    // tick), exactly like the in-process quickstart's tick callback.
    for (int i = 0; i < 10; ++i) {
        auto snap = client.getEnergySnapshot(app.value());
        if (!snap.ok()) {
            std::fprintf(stderr, "getEnergySnapshot failed: %s\n",
                         snap.status().message().c_str());
            return 1;
        }
        const api::EnergySnapshot &s = snap.value();
        const double cap =
            s.grid_carbon_g_per_kwh > 250.0 && s.solar_w < 50.0
                ? 1.0
                : core::kUnlimitedW;
        std::vector<net::RemoteCap> caps{{c1.value(), cap},
                                         {c2.value(), cap}};
        if (auto st = client.applyCapBatch(caps); !st.ok()) {
            std::fprintf(stderr, "applyCapBatch failed: %s\n",
                         st.message().c_str());
            return 1;
        }
        if (auto st = client.setBatteryChargeRate(
                app.value(),
                s.grid_carbon_g_per_kwh < 150.0 ? 50.0 : 0.0);
            !st.ok()) {
            std::fprintf(stderr, "setBatteryChargeRate failed: %s\n",
                         st.message().c_str());
            return 1;
        }
        std::printf("iter=%d carbon=%6.1f g/kWh solar=%6.1f W "
                    "battery=%6.1f Wh grid=%5.2f W\n",
                    i, s.grid_carbon_g_per_kwh, s.solar_w,
                    s.battery_charge_level_wh, s.grid_w);
    }

    // Tear down one container explicitly; the other is revoked by
    // the disconnect when this process exits.
    if (auto st = client.destroyContainer(c2.value()); !st.ok()) {
        std::fprintf(stderr, "destroyContainer failed: %s\n",
                     st.message().c_str());
        return 1;
    }
    std::printf("remote quickstart complete\n");
    return 0;
}
