/**
 * @file
 * The determinism contract extended across the wire: a seeded, churny
 * multi-tenant schedule driven through N loopback connections — with
 * the per-tick request interleaving shuffled across connections — must
 * produce *bit-identical* per-tenant energy accounting to the same
 * schedule issued directly through the v2 surface.
 *
 * Why this holds: ServerCore coalesces mutating requests and commits
 * them at the pre-settle hook in canonical (session id, request id)
 * order, so arrival order is irrelevant by construction. The suite
 * runs the remote side at settlement thread counts 1 and 4 (with
 * different shuffle seeds) and EXPECT_EQs raw doubles throughout —
 * no tolerance anywhere. Labelled `threads` so the TSan and
 * ECOV_THREADS=4 CI legs gate it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/handle.h"
#include "api/snapshot.h"
#include "common/rig.h"
#include "fault/faulty_transport.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/server.h"
#include "util/rng.h"

namespace ecov::net {
namespace {

constexpr int kTenants = 6;
constexpr int kTicks = 30;
constexpr TimeS kDt = 60;
constexpr std::uint64_t kScheduleSeed = 0xEC05;

enum class Kind
{
    Register,
    Spawn,
    Destroy,
    Demand,
    Powercap,
    Batch,
    ChargeRate,
    MaxDischarge,
};

/** One scheduled request, phrased in connection-local ids — the one
 *  vocabulary both the direct and the remote run understand. */
struct Op
{
    Kind kind = Kind::Demand;
    std::uint32_t cont = 0; ///< tenant-local container id
    double value = 0.0;
    std::vector<std::pair<std::uint32_t, double>> caps; ///< Batch
};

/** per_tenant[t] = tenant t's ops for this tick, in issue order. */
struct TickSchedule
{
    std::vector<std::vector<Op>> per_tenant;
};

std::string
tenantName(int t)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "eq-t%02d", t);
    return buf;
}

core::AppShareConfig
tenantShare()
{
    return testutil::appShare(0.9 / kTenants, 1440.0 / kTenants);
}

/**
 * Generate the churny schedule as pure data. Liveness is tracked here
 * so every op targets a container that is live at its canonical
 * application point — the schedule is valid by construction and every
 * request must succeed in both runs.
 */
std::vector<TickSchedule>
makeSchedule()
{
    Rng rng(kScheduleSeed);
    std::vector<TickSchedule> ticks(kTicks);
    // liveness[t] = per local container id, true while live
    std::vector<std::vector<bool>> liveness(kTenants);

    for (int k = 0; k < kTicks; ++k) {
        ticks[k].per_tenant.resize(kTenants);
        for (int t = 0; t < kTenants; ++t) {
            auto &ops = ticks[k].per_tenant[t];
            auto &live = liveness[t];
            const auto live_ids = [&live] {
                std::vector<std::uint32_t> ids;
                for (std::uint32_t i = 0; i < live.size(); ++i)
                    if (live[i])
                        ids.push_back(i);
                return ids;
            };
            const auto pick = [&](const std::vector<std::uint32_t> &v) {
                return v[static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(v.size()) - 1))];
            };

            if (k == 0) {
                // First tick: registration then an initial spawn,
                // pipelined into the same commit window.
                ops.push_back({Kind::Register, 0, 0.0, {}});
                ops.push_back(
                    {Kind::Spawn, 0, rng.uniform(0.5, 1.0), {}});
                live.push_back(true);
                continue;
            }

            auto ids = live_ids();
            if (ids.size() < 3 && rng.bernoulli(0.3)) {
                ops.push_back(
                    {Kind::Spawn, 0, rng.uniform(0.5, 1.0), {}});
                live.push_back(true);
                ids = live_ids();
            }
            if (!ids.empty() && rng.bernoulli(0.15)) {
                const std::uint32_t victim = pick(ids);
                ops.push_back({Kind::Destroy, victim, 0.0, {}});
                live[victim] = false;
                ids = live_ids();
            }
            if (!ids.empty() && rng.bernoulli(0.8))
                ops.push_back({Kind::Demand, pick(ids),
                               rng.uniform(0.0, 1.0),
                               {}});
            if (!ids.empty() && rng.bernoulli(0.4))
                ops.push_back({Kind::Powercap, pick(ids),
                               rng.uniform(0.5, 5.0),
                               {}});
            if (ids.size() > 1 && rng.bernoulli(0.25)) {
                Op batch{Kind::Batch, 0, 0.0, {}};
                for (std::uint32_t id : ids)
                    batch.caps.emplace_back(id,
                                            rng.uniform(0.5, 5.0));
                ops.push_back(std::move(batch));
            }
            if (rng.bernoulli(0.15))
                ops.push_back({Kind::ChargeRate, 0,
                               rng.uniform(0.0, 90.0),
                               {}});
            if (rng.bernoulli(0.15))
                ops.push_back({Kind::MaxDischarge, 0,
                               rng.uniform(10.0, 360.0),
                               {}});
        }
    }
    return ticks;
}

testutil::RigOptions
rigOptions(int threads)
{
    testutil::RigOptions opts;
    opts.nodes = 8; // 32 cores: every scheduled spawn must fit
    opts.eco.threads = threads;
    return opts;
}

/** Per-tick, per-tenant settled snapshots — the compared artifact. */
using Trace = std::vector<std::vector<api::EnergySnapshot>>;

/** Ground truth: the schedule applied straight to the v2 surface, in
 *  canonical order (tenant ascending, ops in issue order). ASSERTs,
 *  so void-returning with an out-param. */
void
runDirect(const std::vector<TickSchedule> &schedule, int threads,
          Trace *out)
{
    testutil::Rig rig(rigOptions(threads));
    std::vector<api::AppHandle> apps(kTenants);
    // containers[t][local id]; destroyed entries stay (stale ids are
    // never reused, mirroring the server's session table)
    std::vector<std::vector<cop::ContainerId>> containers(kTenants);

    Trace trace;
    for (int k = 0; k < kTicks; ++k) {
        const TimeS now = static_cast<TimeS>(k) * kDt;
        rig.eco.dispatchTickCallbacks(now, kDt);
        for (int t = 0; t < kTenants; ++t) {
            for (const Op &op : schedule[k].per_tenant[t]) {
                switch (op.kind) {
                  case Kind::Register: {
                    auto h =
                        rig.eco.tryAddApp(tenantName(t), tenantShare());
                    ASSERT_TRUE(h.ok()) << h.status().message();
                    apps[t] = h.value();
                    break;
                  }
                  case Kind::Spawn: {
                    auto id = rig.cluster.createContainer(
                        tenantName(t), op.value);
                    ASSERT_TRUE(id.has_value());
                    containers[t].push_back(*id);
                    break;
                  }
                  case Kind::Destroy:
                    rig.cluster.destroyContainer(
                        containers[t][op.cont]);
                    break;
                  case Kind::Demand:
                    rig.cluster.setDemand(containers[t][op.cont],
                                          op.value);
                    break;
                  case Kind::Powercap:
                    ASSERT_TRUE(
                        rig.eco
                            .setContainerPowercap(
                                api::handleOf(rig.cluster,
                                              containers[t][op.cont]),
                                op.value)
                            .ok());
                    break;
                  case Kind::Batch: {
                    api::CapBatch batch;
                    for (const auto &[cont, cap] : op.caps)
                        batch.add(api::handleOf(rig.cluster,
                                                containers[t][cont]),
                                  cap);
                    ASSERT_TRUE(rig.eco.applyCapBatch(batch).ok());
                    break;
                  }
                  case Kind::ChargeRate:
                    ASSERT_TRUE(
                        rig.eco
                            .setBatteryChargeRate(apps[t], op.value)
                            .ok());
                    break;
                  case Kind::MaxDischarge:
                    ASSERT_TRUE(
                        rig.eco
                            .setBatteryMaxDischarge(apps[t], op.value)
                            .ok());
                    break;
                }
            }
        }
        rig.eco.settleTick(now, kDt);

        std::vector<api::EnergySnapshot> row;
        for (int t = 0; t < kTenants; ++t) {
            auto snap = rig.eco.getEnergySnapshot(apps[t]);
            ASSERT_TRUE(snap.ok());
            row.push_back(snap.value());
        }
        trace.push_back(std::move(row));
    }
    *out = std::move(trace);
}

/**
 * The same schedule through kTenants loopback connections, with each
 * tick's sends shuffled across connections (per-connection issue
 * order preserved — that part is the protocol's own sequencing).
 *
 * With `fault_seed != 0` the run additionally routes every tenant
 * through a seeded fault::FaultyTransport and a lease-enabled server:
 * mutation sends may be dropped, cut mid-frame, or delayed, killing
 * the connection. The driver then reconnects, resumes the leased
 * session by token, and the client retransmits what was never
 * acknowledged — the dedup window makes the retries commit exactly
 * once, so the settled accounting must STILL be bit-identical to the
 * clean direct run.
 */
void
runRemote(const std::vector<TickSchedule> &schedule, int threads,
          std::uint64_t shuffle_seed, std::uint64_t fault_seed,
          Trace *out)
{
    const bool faulted = fault_seed != 0;
    testutil::Rig rig(rigOptions(threads));
    ServerCoreOptions core_opts;
    if (faulted)
        core_opts.lease_ticks = 8;
    ServerCore core(&rig.eco, core_opts);

    fault::TransportFaultProfile profile;
    profile.p_kill = 0.08;
    profile.p_partial = 0.05;
    profile.p_delay = 0.15;

    std::vector<std::unique_ptr<LoopbackTransport>> transports;
    std::vector<std::unique_ptr<fault::FaultyTransport>> chaos;
    std::vector<std::unique_ptr<Client>> clients;
    for (int t = 0; t < kTenants; ++t) {
        transports.push_back(
            std::make_unique<LoopbackTransport>(&core));
        if (faulted) {
            chaos.push_back(std::make_unique<fault::FaultyTransport>(
                transports.back().get(),
                fault_seed + static_cast<std::uint64_t>(t), profile));
            clients.push_back(
                std::make_unique<Client>(chaos.back().get()));
            auto st = clients.back()->beginSession();
            ASSERT_TRUE(st.ok()) << st.message();
            ASSERT_GT(clients.back()->leaseTicks(), 0u);
        } else {
            clients.push_back(
                std::make_unique<Client>(transports.back().get()));
        }
    }

    Rng shuffle_rng(shuffle_seed);
    Trace trace;
    for (int k = 0; k < kTicks; ++k) {
        // Arrival interleaving: tenant tokens, one per op, shuffled.
        std::vector<int> arrival;
        for (int t = 0; t < kTenants; ++t)
            arrival.insert(
                arrival.end(), schedule[k].per_tenant[t].size(),
                t);
        std::shuffle(arrival.begin(), arrival.end(),
                     shuffle_rng.engine());

        struct Sent
        {
            int tenant;
            const Op *op;
            std::uint32_t req;
        };
        std::vector<Sent> sent;
        std::vector<std::size_t> cursor(kTenants, 0);
        // Faults are armed only around the mutation sends — the one
        // phase whose losses the resume protocol recovers.
        if (faulted)
            for (auto &c : chaos)
                c->arm(true);
        for (int t : arrival) {
            const Op &op = schedule[k].per_tenant[t][cursor[t]++];
            Client &c = *clients[t];
            std::uint32_t req = 0;
            switch (op.kind) {
              case Kind::Register:
                req = c.sendRegisterApp(tenantName(t), tenantShare());
                break;
              case Kind::Spawn:
                req = c.sendSpawnContainer(RemoteApp{0}, op.value);
                break;
              case Kind::Destroy:
                req = c.sendDestroyContainer(RemoteContainer{op.cont});
                break;
              case Kind::Demand:
                req = c.sendSetDemand(RemoteContainer{op.cont},
                                      op.value);
                break;
              case Kind::Powercap:
                req = c.sendSetContainerPowercap(
                    RemoteContainer{op.cont}, op.value);
                break;
              case Kind::Batch: {
                std::vector<RemoteCap> caps;
                for (const auto &[cont, cap] : op.caps)
                    caps.push_back({RemoteContainer{cont}, cap});
                req = c.sendApplyCapBatch(caps);
                break;
              }
              case Kind::ChargeRate:
                req = c.sendSetBatteryChargeRate(RemoteApp{0},
                                                 op.value);
                break;
              case Kind::MaxDischarge:
                req = c.sendSetBatteryMaxDischarge(RemoteApp{0},
                                                   op.value);
                break;
            }
            sent.push_back({t, &op, req});
        }

        if (faulted) {
            for (auto &c : chaos)
                c->arm(false);
            // Reconnect-and-resume for every severed tenant, within
            // the same tick window: the fresh connection presents the
            // resume token, the server re-binds the leased session,
            // and the client retransmits its unacknowledged frames in
            // request-id order.
            for (int t = 0; t < kTenants; ++t) {
                if (!chaos[t]->dead())
                    continue;
                transports[t] =
                    std::make_unique<LoopbackTransport>(&core);
                chaos[t]->rebind(transports[t].get());
                clients[t]->bindTransport(chaos[t].get());
                auto st = clients[t]->resume();
                ASSERT_TRUE(st.ok())
                    << "tick " << k << " tenant " << t << ": "
                    << st.message();
            }
            // Held (delayed) frames still count as this tick's
            // arrivals: flush them before the commit point.
            for (auto &c : chaos) {
                auto st = c->flushDelayed();
                ASSERT_TRUE(st.ok()) << st.message();
            }
        }

        // One tick: the pre-settle hook commits everything queued.
        const TimeS now = static_cast<TimeS>(k) * kDt;
        rig.eco.dispatchTickCallbacks(now, kDt);
        rig.eco.settleTick(now, kDt);

        // Every scheduled request must have succeeded.
        for (const Sent &s : sent) {
            Client &c = *clients[s.tenant];
            switch (s.op->kind) {
              case Kind::Register: {
                auto app = c.awaitApp(s.req);
                ASSERT_TRUE(app.ok()) << app.status().message();
                EXPECT_EQ(app.value().id, 0u);
                break;
              }
              case Kind::Spawn: {
                auto cont = c.awaitContainer(s.req);
                ASSERT_TRUE(cont.ok()) << cont.status().message();
                break;
              }
              default: {
                auto st = c.await(s.req);
                ASSERT_TRUE(st.ok()) << st.message();
                break;
              }
            }
        }

        // Settled per-tenant accounting via immediate reads.
        std::vector<api::EnergySnapshot> row;
        for (int t = 0; t < kTenants; ++t) {
            auto snap =
                clients[t]->getEnergySnapshot(RemoteApp{0});
            ASSERT_TRUE(snap.ok()) << snap.status().message();
            row.push_back(snap.value());
        }
        trace.push_back(std::move(row));
    }

    if (faulted) {
        // The leg is vacuous unless the storm actually bit: demand
        // real connection churn, real resumes, and real duplicate
        // replays over the run.
        EXPECT_GT(core.stats().leases_started, 0u);
        EXPECT_EQ(core.stats().leases_resumed,
                  core.stats().leases_started);
        EXPECT_EQ(core.stats().leases_expired, 0u);
    }
    *out = std::move(trace);
}

/** Field-by-field EXPECT_EQ on raw doubles: bit-identity, not
 *  closeness. */
void
expectIdentical(const Trace &a, const Trace &b, const char *label)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
        ASSERT_EQ(a[k].size(), b[k].size());
        for (std::size_t t = 0; t < a[k].size(); ++t) {
            const api::EnergySnapshot &x = a[k][t];
            const api::EnergySnapshot &y = b[k][t];
            EXPECT_EQ(x.solar_w, y.solar_w)
                << label << " tick " << k << " tenant " << t;
            EXPECT_EQ(x.grid_w, y.grid_w)
                << label << " tick " << k << " tenant " << t;
            EXPECT_EQ(x.grid_carbon_g_per_kwh,
                      y.grid_carbon_g_per_kwh)
                << label << " tick " << k << " tenant " << t;
            EXPECT_EQ(x.battery_discharge_w, y.battery_discharge_w)
                << label << " tick " << k << " tenant " << t;
            EXPECT_EQ(x.battery_charge_level_wh,
                      y.battery_charge_level_wh)
                << label << " tick " << k << " tenant " << t;
            EXPECT_EQ(x.stale, y.stale)
                << label << " tick " << k << " tenant " << t;
        }
    }
}

TEST(LoopbackEquality, ShuffledRemoteMatchesDirectBitIdentically)
{
    const auto schedule = makeSchedule();
    Trace direct;
    runDirect(schedule, /*threads=*/1, &direct);
    if (::testing::Test::HasFatalFailure())
        return;

    // Two different arrival shuffles, two thread counts: all must
    // reproduce the direct run exactly.
    Trace remote1;
    runRemote(schedule, /*threads=*/1, /*shuffle_seed=*/101,
              /*fault_seed=*/0, &remote1);
    if (::testing::Test::HasFatalFailure())
        return;
    expectIdentical(direct, remote1, "threads=1");

    Trace remote4;
    runRemote(schedule, /*threads=*/4, /*shuffle_seed=*/202,
              /*fault_seed=*/0, &remote4);
    if (::testing::Test::HasFatalFailure())
        return;
    expectIdentical(direct, remote4, "threads=4");
}

/**
 * The robustness half of the contract (docs/FAULTS.md): the same
 * schedule driven through seeded transport faults — dropped frames,
 * partial writes, delays, connection churn — with session leases,
 * reconnect-and-resume, and retransmission must STILL settle
 * bit-identically to the clean direct run, at both thread counts.
 */
TEST(LoopbackEquality, FaultedRemoteMatchesDirectBitIdentically)
{
    const auto schedule = makeSchedule();
    Trace direct;
    runDirect(schedule, /*threads=*/1, &direct);
    if (::testing::Test::HasFatalFailure())
        return;

    Trace faulted1;
    runRemote(schedule, /*threads=*/1, /*shuffle_seed=*/101,
              /*fault_seed=*/0xFA17ull, &faulted1);
    if (::testing::Test::HasFatalFailure())
        return;
    expectIdentical(direct, faulted1, "faulted threads=1");

    Trace faulted4;
    runRemote(schedule, /*threads=*/4, /*shuffle_seed=*/101,
              /*fault_seed=*/0xFA17ull, &faulted4);
    if (::testing::Test::HasFatalFailure())
        return;
    expectIdentical(direct, faulted4, "faulted threads=4");
}

/** A second shuffle of the same tick's sends on the same server state
 *  (fresh worlds, same seed family) — quick independence check that
 *  the canonical commit order really is (session, req), not arrival. */
TEST(LoopbackEquality, DifferentShufflesAgreeWithEachOther)
{
    const auto schedule = makeSchedule();
    Trace a;
    runRemote(schedule, /*threads=*/1, /*shuffle_seed=*/7,
              /*fault_seed=*/0, &a);
    if (::testing::Test::HasFatalFailure())
        return;
    Trace b;
    runRemote(schedule, /*threads=*/1, /*shuffle_seed=*/900913,
              /*fault_seed=*/0, &b);
    if (::testing::Test::HasFatalFailure())
        return;
    expectIdentical(a, b, "shuffle-vs-shuffle");
}

} // namespace
} // namespace ecov::net
