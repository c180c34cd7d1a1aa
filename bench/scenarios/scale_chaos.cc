/**
 * @file
 * Scale scenario: the remote multi-tenant transport under a seeded
 * fault storm (docs/FAULTS.md).
 *
 * 64 tenants on leased loopback connections (lease 20 ticks), each
 * behind a fault::FaultyTransport that kills, truncates, or delays
 * frames from its own seeded fate stream. A FaultSchedule::storm
 * drives the run from both sides: its energy events (grid outages,
 * solar derates, sensor blackouts, battery faults) arm the ecovisor
 * through a FaultInjector, while its TransportClose events take
 * tenants down for a scheduled number of ticks. Downed tenants come
 * back through reconnect-and-resume — retransmitting unacknowledged
 * mutations into the server's dedup window — or, when the lease
 * expired while they were away, abandon the session and re-register
 * under a fresh incarnation name.
 *
 * Domain metrics (baseline-diffed at --tolerance=0): outage/recovery
 * counts (planned closes, chaos deaths, resumes, re-registrations),
 * the server's lease/dedup counters, the ecovisor's degradation
 * accounting (degraded ticks, SLO violations, unserved Wh), carbon
 * totals plain and rank-weighted, and delivered/dropped frame fates.
 * Every one is a pure function of (seed, horizon, tick): fates and
 * storms are seeded, commits are canonical (session, request) order,
 * and nothing consults a wall clock.
 *
 * Perf metrics (warn-only): requests/sec through the chaos stack.
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
#include "fault/faulty_transport.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/server.h"
#include "util/table.h"

namespace ecov::bench {
namespace {

constexpr int kTenants = 64;
constexpr int kPoolSize = 2;
constexpr std::uint32_t kLeaseTicks = 20;

/** One tenant: its chaos-wrapped connection and lease bookkeeping. */
struct Tenant
{
    std::string base; ///< "c007"; incarnations append "#N"
    std::unique_ptr<net::LoopbackTransport> loop;
    std::unique_ptr<fault::FaultyTransport> chaos;
    std::unique_ptr<net::Client> client;
    int incarnation = 0;
    /** First tick index at which the tenant may reconnect; -1 = up. */
    std::int64_t down_until = -1;
    /** Request ids awaiting replies (cleared on re-registration). */
    std::vector<std::uint32_t> outstanding;

    bool up() const { return down_until < 0; }
};

struct World
{
    carbon::TraceCarbonSignal signal;
    energy::GridConnection grid;
    energy::SolarArray solar;
    cop::Cluster cluster;
    energy::PhysicalEnergySystem phys;
    core::Ecovisor eco;
    net::ServerCore server;
    std::vector<Tenant> tenants;

    explicit World(std::uint64_t seed)
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
          server(&eco, leaseOptions())
    {
        fault::TransportFaultProfile profile;
        profile.p_kill = 0.02;
        profile.p_partial = 0.01;
        profile.p_delay = 0.08;
        tenants.resize(kTenants);
        for (int a = 0; a < kTenants; ++a) {
            Tenant &t = tenants[static_cast<std::size_t>(a)];
            char buf[16];
            std::snprintf(buf, sizeof buf, "c%03d", a);
            t.base = buf;
            t.loop =
                std::make_unique<net::LoopbackTransport>(&server);
            t.chaos = std::make_unique<fault::FaultyTransport>(
                t.loop.get(),
                seed * 0x9E37'79B9u + static_cast<std::uint64_t>(a),
                profile);
            t.client = std::make_unique<net::Client>(t.chaos.get());
        }
    }

    static net::ServerCoreOptions
    leaseOptions()
    {
        net::ServerCoreOptions o;
        o.lease_ticks = kLeaseTicks;
        // Benches are a single trust domain: inject a seed so resume
        // tokens stay deterministic (no runtime entropy in any run).
        o.token_seed = 0xC4A0'5EED'0000'0001ull;
        return o;
    }

    /**
     * First incarnations of even tenants own a sliver of solar and
     * battery; everything else runs plain on the grid. Re-registered
     * incarnations never take shares — apps are permanent in the
     * ecovisor, so recurring shares would eventually oversubscribe.
     */
    static core::AppShareConfig
    shareFor(int tenant, int incarnation)
    {
        core::AppShareConfig share;
        if (incarnation > 0 || tenant % 2 != 0)
            return share;
        const double n = static_cast<double>(kTenants);
        share.solar_fraction = 0.9 / n;
        energy::BatteryConfig b;
        b.capacity_wh = 1000.0 / n;
        b.max_charge_w = 250.0 / n;
        b.max_discharge_w = 1000.0 / n;
        b.initial_soc = 0.5;
        share.battery = b;
        return share;
    }
};

struct RunTotals
{
    std::uint64_t requests = 0;
    std::uint64_t replies_ok = 0;
    std::uint64_t replies_lost = 0;
    std::uint64_t planned_outages = 0;
    std::uint64_t chaos_deaths = 0;
    std::uint64_t resumes_ok = 0;
    std::uint64_t reregistrations = 0;
    double wall_s = 0.0;
};

/** Pipelined register + pool spawn for a (re)incarnating tenant. */
void
registerTenant(Tenant &t, int index, RunTotals *totals)
{
    std::string name = t.base;
    if (t.incarnation > 0)
        name += "#" + std::to_string(t.incarnation);
    t.outstanding.push_back(t.client->sendRegisterApp(
        name, World::shareFor(index, t.incarnation)));
    for (int k = 0; k < kPoolSize; ++k)
        t.outstanding.push_back(t.client->sendSpawnContainer(
            net::RemoteApp{0}, 1.0));
    totals->requests += 1 + kPoolSize;
}

/** Reconnect a downed tenant: resume the lease or start over. */
void
recoverTenant(World &w, int index, RunTotals *totals)
{
    Tenant &t = w.tenants[static_cast<std::size_t>(index)];
    t.loop = std::make_unique<net::LoopbackTransport>(&w.server);
    t.chaos->rebind(t.loop.get());
    t.client->bindTransport(t.chaos.get());
    if (t.client->resume().ok()) {
        ++totals->resumes_ok;
    } else {
        // Lease expired (or never held): the old namespace is gone.
        t.client->abandonSession();
        t.outstanding.clear();
        ++t.incarnation;
        ++totals->reregistrations;
        t.client->beginSession();
        registerTenant(t, index, totals);
    }
    t.down_until = -1;
}

void
drive(World &w, const ScenarioOptions &opt, std::int64_t ticks,
      const fault::FaultSchedule &storm, RunTotals *totals)
{
    using Clock = std::chrono::steady_clock;
    const auto wall0 = Clock::now();
    const TimeS dt = opt.tick_s;

    // Setup tick: sessions, registrations, pools.
    for (int a = 0; a < kTenants; ++a) {
        Tenant &t = w.tenants[static_cast<std::size_t>(a)];
        t.client->beginSession();
        registerTenant(t, a, totals);
    }
    w.eco.settleTick(0, dt);

    for (std::int64_t tick = 1; tick <= ticks; ++tick) {
        const TimeS t_s = static_cast<TimeS>(tick) * dt;

        // 1. Downed tenants whose outage elapsed reconnect first —
        //    resume (or re-register) before this tick's traffic.
        for (int a = 0; a < kTenants; ++a) {
            Tenant &t = w.tenants[static_cast<std::size_t>(a)];
            if (!t.up() && t.down_until <= tick)
                recoverTenant(w, a, totals);
        }

        // 2. The storm's scheduled closes for this tick window.
        storm.forEachTransportCloseIn(
            t_s, t_s + dt, [&](const fault::FaultEvent &e) {
                if (e.target >= static_cast<std::uint32_t>(kTenants))
                    return;
                Tenant &t = w.tenants[e.target];
                const auto until =
                    tick + std::max<std::int64_t>(
                               1, static_cast<std::int64_t>(
                                      e.magnitude));
                if (t.up()) {
                    t.loop.reset(); // close -> the session detaches
                    ++totals->planned_outages;
                    t.down_until = until;
                } else {
                    t.down_until = std::max(t.down_until, until);
                }
            });

        // 3. Traffic: demand updates on every pool slot, sent through
        //    armed chaos. A fate that kills the transport becomes an
        //    unplanned one-tick outage recovered by resume.
        for (int a = 0; a < kTenants; ++a) {
            Tenant &t = w.tenants[static_cast<std::size_t>(a)];
            if (!t.up())
                continue;
            t.chaos->arm(true);
            for (int k = 0; k < kPoolSize; ++k) {
                const double phase = static_cast<double>(
                    (tick * 31 + a * 13 + k * 7) % 97);
                t.outstanding.push_back(t.client->sendSetDemand(
                    net::RemoteContainer{
                        static_cast<std::uint32_t>(k)},
                    0.2 + 0.6 * phase / 97.0));
                ++totals->requests;
            }
            t.chaos->arm(false);
            t.chaos->flushDelayed();
            if (t.chaos->dead()) {
                t.loop.reset();
                t.down_until = tick + 1;
                ++totals->chaos_deaths;
            }
        }

        // 4. Commit point: canonical (session, request) order, then
        //    lease aging — the storm's energy faults were armed by
        //    the injector hook at the top of the settlement.
        w.eco.settleTick(t_s, dt);

        // 5. Collect replies on healthy connections. Requests whose
        //    replies are still in flight (retransmitted this tick,
        //    committing next) count as lost-for-now; dedup replay
        //    keeps their eventual commit exactly-once either way.
        for (int a = 0; a < kTenants; ++a) {
            Tenant &t = w.tenants[static_cast<std::size_t>(a)];
            if (!t.up())
                continue;
            if (!t.client->connectionError().ok()) {
                t.loop.reset();
                t.down_until = tick + 1;
                ++totals->chaos_deaths;
                continue;
            }
            for (const std::uint32_t r : t.outstanding) {
                if (t.client->await(r).ok())
                    ++totals->replies_ok;
                else
                    ++totals->replies_lost;
            }
            t.outstanding.clear();
        }
    }

    totals->wall_s =
        std::chrono::duration<double>(Clock::now() - wall0).count();
}

ScenarioOutcome
run(const ScenarioOptions &opt)
{
    const std::int64_t ticks =
        opt.horizon == Horizon::Short ? 120 : 1440;

    World w(opt.seed);
    fault::StormProfile profile;
    profile.tenants = kTenants;
    const auto storm = fault::FaultSchedule::storm(
        opt.seed, static_cast<TimeS>(ticks + 1) * opt.tick_s,
        opt.tick_s, profile);
    fault::FaultInjector injector(&w.eco, storm);

    RunTotals totals;
    drive(w, opt, ticks, injector.schedule(), &totals);

    // Carbon per app (every incarnation), plain and rank-weighted in
    // canonical name order — a permutation-sensitive digest.
    double carbon_g = 0.0;
    double carbon_weighted = 0.0;
    const auto names = w.eco.appNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        const double c =
            w.eco.ves(w.eco.findApp(names[i]).value())->totalCarbonG();
        carbon_g += c;
        carbon_weighted += static_cast<double>(i + 1) * c;
    }
    std::uint64_t dropped = 0, delivered = 0;
    for (const Tenant &t : w.tenants) {
        dropped += t.chaos->framesDropped() + t.chaos->partialWrites();
        delivered += t.chaos->framesDelivered();
    }
    const net::ServerStats &st = w.server.stats();

    ScenarioOutcome out;
    out.metric("horizon_ticks", static_cast<double>(ticks));
    out.metric("planned_outages",
               static_cast<double>(totals.planned_outages));
    out.metric("chaos_deaths",
               static_cast<double>(totals.chaos_deaths));
    out.metric("resumes_ok", static_cast<double>(totals.resumes_ok));
    out.metric("reregistrations",
               static_cast<double>(totals.reregistrations));
    out.metric("leases_started",
               static_cast<double>(st.leases_started));
    out.metric("leases_resumed",
               static_cast<double>(st.leases_resumed));
    out.metric("leases_expired",
               static_cast<double>(st.leases_expired));
    out.metric("duplicates_replayed",
               static_cast<double>(st.duplicates_replayed));
    out.metric("requests_total",
               static_cast<double>(totals.requests));
    out.metric("replies_ok", static_cast<double>(totals.replies_ok));
    out.metric("replies_lost",
               static_cast<double>(totals.replies_lost));
    out.metric("frames_dropped", static_cast<double>(dropped));
    out.metric("frames_delivered", static_cast<double>(delivered));
    out.metric("apps_registered", static_cast<double>(names.size()));
    out.metric("live_containers",
               static_cast<double>(w.cluster.containerCount()));
    out.metric("degraded_ticks",
               static_cast<double>(w.eco.degradedTicks()));
    out.metric("slo_violation_ticks",
               static_cast<double>(w.eco.sloViolationTicks()));
    out.metric("unserved_wh", w.eco.unservedWh());
    out.metric("carbon_g_total", carbon_g);
    out.metric("carbon_g_rank_weighted", carbon_weighted);

    const double rps =
        totals.wall_s > 0.0
            ? static_cast<double>(totals.requests) / totals.wall_s
            : 0.0;
    out.perfMetric("requests_per_sec", rps);

    if (opt.print_figures) {
        std::printf("=== Scale: %d leased tenants under a seeded "
                    "fault storm ===\n\n",
                    kTenants);
        TextTable t({"outages", "deaths", "resumed", "rereg",
                     "expired", "replayed", "degraded_ticks",
                     "unserved_wh", "carbon_g"});
        t.addRow({std::to_string(totals.planned_outages),
                  std::to_string(totals.chaos_deaths),
                  std::to_string(st.leases_resumed),
                  std::to_string(totals.reregistrations),
                  std::to_string(st.leases_expired),
                  std::to_string(st.duplicates_replayed),
                  std::to_string(w.eco.degradedTicks()),
                  TextTable::fmt(w.eco.unservedWh(), 3),
                  TextTable::fmt(carbon_g, 2)});
        t.print();
        std::printf("\nEvery metric above is a pure function of the "
                    "seed: storm windows, frame fates, and commit "
                    "order are all deterministic (docs/FAULTS.md).\n");
    }
    return out;
}

const ScenarioRegistrar reg({
    "scale_chaos",
    "Scale: 64 leased tenants under a seeded fault storm — transport "
    "kills with resume-or-reregister, energy faults with graceful "
    "degradation; fully deterministic",
    /*default_seed=*/7,
    {},
    run,
});

} // namespace
} // namespace ecov::bench
