/**
 * @file
 * Scale scenario: the full remote multi-tenant transport under load.
 *
 * 256 tenants, each on its OWN loopback connection to one ServerCore
 * (so 256 concurrent connections — double the 128-connection floor
 * the ecovisord acceptance sets). Every tenant registers its app and
 * spawns a 3-container pool over RPC, then drives per-tick demand
 * updates and periodic cap batches through the pipelined client API.
 * The per-tick arrival interleaving across connections is shuffled
 * with a seeded RNG — exercising exactly the coalescing path that
 * makes arrival order irrelevant.
 *
 * Domain metrics (baseline-diffed at --tolerance=0): total and
 * rank-weighted per-tenant carbon (the weighting catches any
 * tenant-permutation bug a plain sum would hide), live containers,
 * request/reply totals, and caps applied. All are pure functions of
 * (seed, horizon, tick) because the server commits mutations in
 * canonical (session, request) order regardless of the shuffle.
 *
 * Perf metrics (warn-only): requests/sec through the full
 * encode→frame→decode→commit→respond path, and p95 request RTT —
 * send-to-reply wall time, which for coalesced requests includes the
 * tick wait, i.e. the latency a remote tenant actually observes.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "carbon/carbon_signal.h"
#include "common/registry.h"
#include "core/ecovisor.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/server.h"
#include "util/rng.h"
#include "util/table.h"

namespace ecov::bench {
namespace {

constexpr int kTenants = 256;
constexpr int kPoolSize = 3;

/** The scale_many_tenants world shape, supervised over RPC. */
struct World
{
    carbon::TraceCarbonSignal signal;
    energy::GridConnection grid;
    energy::SolarArray solar;
    cop::Cluster cluster;
    energy::PhysicalEnergySystem phys;
    core::Ecovisor eco;
    net::ServerCore server;
    std::vector<std::string> names;
    std::vector<std::unique_ptr<net::LoopbackTransport>> transports;
    std::vector<std::unique_ptr<net::Client>> clients;

    World()
        : signal({{0, 100.0}, {3600, 300.0}, {7200, 50.0}}, 10800),
          grid(&signal),
          solar({{0, 0.0}, {6 * 3600, 200.0}, {18 * 3600, 0.0}},
                24 * 3600),
          cluster(kTenants,
                  power::ServerPowerConfig{8, 1.35, 5.0, 0.0}),
          phys(&grid, &solar, energy::BatteryConfig{}),
          eco(&cluster, &phys,
              core::EcovisorOptions{core::ExcessSolarPolicy::Curtail,
                                    /*record_telemetry=*/false}),
          server(&eco)
    {
        names.reserve(kTenants);
        transports.reserve(kTenants);
        clients.reserve(kTenants);
        for (int a = 0; a < kTenants; ++a) {
            char buf[16];
            std::snprintf(buf, sizeof buf, "t%04d", a);
            names.emplace_back(buf);
            transports.push_back(
                std::make_unique<net::LoopbackTransport>(&server));
            clients.push_back(std::make_unique<net::Client>(
                transports.back().get()));
        }
    }

    core::AppShareConfig
    shareFor() const
    {
        const double n = static_cast<double>(kTenants);
        core::AppShareConfig share;
        share.solar_fraction = 0.9 / n;
        energy::BatteryConfig b;
        b.capacity_wh = 1440.0 / n;
        b.max_charge_w = 360.0 / n;
        b.max_discharge_w = 1440.0 / n;
        b.initial_soc = 0.5;
        share.battery = b;
        return share;
    }
};

struct RunTotals
{
    std::uint64_t requests = 0;
    std::uint64_t replies_ok = 0;
    std::uint64_t caps_applied = 0;
    double wall_s = 0.0;
    double p95_rtt_us = 0.0;
};

/** p95 of a sample vector (sorted in place); 0 when empty. */
double
p95us(std::vector<double> &rtts)
{
    if (rtts.empty())
        return 0.0;
    std::sort(rtts.begin(), rtts.end());
    const std::size_t idx = std::min(
        rtts.size() - 1,
        static_cast<std::size_t>(
            0.95 * static_cast<double>(rtts.size())));
    return rtts[idx] * 1e6;
}

void
drive(World &w, const ScenarioOptions &opt, std::int64_t ticks,
      RunTotals *totals)
{
    using Clock = std::chrono::steady_clock;
    Rng shuffle(opt.seed);

    struct Inflight
    {
        int tenant;
        std::uint32_t req;
        bool is_batch;
        Clock::time_point sent;
    };
    std::vector<Inflight> inflight;
    std::vector<double> rtts;
    rtts.reserve(static_cast<std::size_t>(ticks) * kTenants / 4);

    const auto wall0 = Clock::now();

    // Setup tick: every tenant registers and spawns its pool over
    // RPC, all committed in the first settlement.
    for (int a = 0; a < kTenants; ++a) {
        net::Client &c = *w.clients[a];
        c.sendRegisterApp(w.names[a], w.shareFor());
        for (int k = 0; k < kPoolSize; ++k)
            c.sendSpawnContainer(net::RemoteApp{0}, 1.0);
        totals->requests += 1 + kPoolSize;
    }
    w.eco.settleTick(0, opt.tick_s);
    for (int a = 0; a < kTenants; ++a) {
        net::Client &c = *w.clients[a];
        if (c.awaitApp(1).ok())
            ++totals->replies_ok;
        for (int r = 2; r < 2 + kPoolSize; ++r)
            if (c.awaitContainer(static_cast<std::uint32_t>(r)).ok())
                ++totals->replies_ok;
    }

    // Churn ticks: demand updates on every container, a cap batch on
    // a rotating 1/8th of the tenants, shuffled arrival order.
    std::vector<int> arrival;
    for (std::int64_t tick = 1; tick <= ticks; ++tick) {
        inflight.clear();
        arrival.clear();
        for (int a = 0; a < kTenants; ++a) {
            arrival.insert(arrival.end(), kPoolSize, a);
            if ((tick + a) % 8 == 0)
                arrival.push_back(a); // this tenant's batch slot
        }
        std::shuffle(arrival.begin(), arrival.end(),
                     shuffle.engine());

        std::vector<int> sent_demands(kTenants, 0);
        for (int a : arrival) {
            net::Client &c = *w.clients[a];
            Inflight f{a, 0, false, Clock::now()};
            if (sent_demands[a] < kPoolSize) {
                const int k = sent_demands[a]++;
                const double phase = static_cast<double>(
                    (tick * 31 + a * 13 + k * 7) % 97);
                f.req = c.sendSetDemand(
                    net::RemoteContainer{
                        static_cast<std::uint32_t>(k)},
                    0.2 + 0.6 * phase / 97.0);
            } else {
                std::vector<net::RemoteCap> caps;
                caps.reserve(kPoolSize);
                for (int k = 0; k < kPoolSize; ++k) {
                    const double cap = 2.0 +
                                       static_cast<double>(
                                           (tick * 17 + a * 5 + k) %
                                           23) /
                                           11.0;
                    caps.push_back(
                        {net::RemoteContainer{
                             static_cast<std::uint32_t>(k)},
                         cap});
                }
                f.req = c.sendApplyCapBatch(caps);
                f.is_batch = true;
            }
            inflight.push_back(f);
            ++totals->requests;
        }

        w.eco.settleTick(static_cast<TimeS>(tick) * opt.tick_s,
                         opt.tick_s);

        for (std::size_t i = 0; i < inflight.size(); ++i) {
            const Inflight &f = inflight[i];
            if (w.clients[f.tenant]->await(f.req).ok()) {
                ++totals->replies_ok;
                if (f.is_batch)
                    totals->caps_applied += kPoolSize;
            }
            // Sample RTTs (every 8th request) to bound memory on
            // long horizons; p95 over the sample.
            if (i % 8 == 0)
                rtts.push_back(std::chrono::duration<double>(
                                   Clock::now() - f.sent)
                                   .count());
        }
    }

    totals->wall_s = std::chrono::duration<double>(Clock::now() -
                                                   wall0)
                         .count();
    totals->p95_rtt_us = p95us(rtts);
}

ScenarioOutcome
run(const ScenarioOptions &opt)
{
    const std::int64_t ticks =
        opt.horizon == Horizon::Short ? 120 : 1440;

    World w;
    RunTotals totals;
    drive(w, opt, ticks, &totals);

    // Per-tenant carbon, plain and rank-weighted: the weighted sum
    // changes if per-tenant accounting is permuted or cross-wired,
    // which a total alone cannot detect.
    double carbon_g = 0.0;
    double carbon_weighted = 0.0;
    int containers = 0;
    for (int a = 0; a < kTenants; ++a) {
        const api::AppHandle app = w.eco.findApp(w.names[a]).value();
        const double c = w.eco.ves(app)->totalCarbonG();
        carbon_g += c;
        carbon_weighted += static_cast<double>(a + 1) * c;
        containers += w.cluster.appContainerCount(w.eco.copAppIndex(app));
    }

    ScenarioOutcome out;
    out.metric("horizon_ticks", static_cast<double>(ticks));
    out.metric("connections",
               static_cast<double>(w.server.connectionCount()));
    out.metric("requests_total",
               static_cast<double>(totals.requests));
    out.metric("replies_ok", static_cast<double>(totals.replies_ok));
    out.metric("caps_applied",
               static_cast<double>(totals.caps_applied));
    out.metric("live_containers", static_cast<double>(containers));
    out.metric("carbon_g_total", carbon_g);
    out.metric("carbon_g_rank_weighted", carbon_weighted);

    const double rps =
        totals.wall_s > 0.0
            ? static_cast<double>(totals.requests) / totals.wall_s
            : 0.0;
    out.perfMetric("requests_per_sec", rps);
    out.perfMetric("p95_rtt_us", totals.p95_rtt_us);

    if (opt.print_figures) {
        std::printf("=== Scale: remote transport, %d tenant "
                    "connections ===\n\n",
                    kTenants);
        TextTable t({"connections", "requests", "ok", "caps",
                     "carbon_g", "req_per_sec", "p95_rtt_us"});
        t.addRow({std::to_string(w.server.connectionCount()),
                  std::to_string(totals.requests),
                  std::to_string(totals.replies_ok),
                  std::to_string(totals.caps_applied),
                  TextTable::fmt(carbon_g, 2), TextTable::fmt(rps, 0),
                  TextTable::fmt(totals.p95_rtt_us, 1)});
        t.print();
        std::printf("\nEvery domain metric is independent of the "
                    "seeded arrival shuffle: mutations commit in "
                    "canonical (session, request) order at the "
                    "tick boundary.\n");
    }
    return out;
}

const ScenarioRegistrar reg({
    "scale_rpc",
    "Scale: 256 tenants on 256 loopback connections driving the "
    "ecovisord protocol; deterministic carbon/caps, requests/sec and "
    "p95 RTT",
    /*default_seed=*/7,
    {},
    run,
});

} // namespace
} // namespace ecov::bench
