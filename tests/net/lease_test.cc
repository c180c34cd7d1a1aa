/**
 * @file
 * Session leases (docs/FAULTS.md, docs/ECOVISORD.md): detach on
 * disconnect, TTL expiry revocation, reconnect-and-resume, the
 * request-id dedup window's exactly-once guarantee, and the Resume
 * opcode's first-frame rule.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rig.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/server.h"

namespace ecov::net {
namespace {

using api::ErrorCode;
using testutil::Rig;

ServerCoreOptions
leaseOptions(std::uint32_t ticks)
{
    ServerCoreOptions o;
    o.lease_ticks = ticks;
    return o;
}

/** Settle one rig tick (runs the server's commit + lease aging). */
struct Ticker
{
    Rig *rig;
    TimeS t = 0;
    TimeS dt = 60;

    void
    tick()
    {
        rig->eco.dispatchTickCallbacks(t, dt);
        rig->eco.settleTick(t, dt);
        t += dt;
    }
};

TEST(SessionLease, DisabledServerHandsOutNoLease)
{
    Rig rig;
    ServerCore core(&rig.eco); // lease_ticks = 0
    LoopbackTransport transport(&core);
    Client client(&transport);

    ASSERT_TRUE(client.beginSession().ok());
    EXPECT_EQ(client.sessionToken(), 0u);
    EXPECT_EQ(client.leaseTicks(), 0u);
    // No lease -> no retransmission tracking.
    client.sendSetDemand(RemoteContainer{0}, 0.5);
    EXPECT_EQ(client.unackedCount(), 0u);
}

TEST(SessionLease, DisconnectDetachesAndResumeRebinds)
{
    Rig rig;
    ServerCore core(&rig.eco, leaseOptions(4));
    Ticker ticker{&rig};

    auto t1 = std::make_unique<LoopbackTransport>(&core);
    t1->setIdleHandler([&ticker] { ticker.tick(); });
    Client client(t1.get());
    ASSERT_TRUE(client.beginSession().ok());
    EXPECT_NE(client.sessionToken(), 0u);
    EXPECT_EQ(client.leaseTicks(), 4u);

    const auto app =
        client.registerApp("lease", testutil::appShare(0.5, 360));
    ASSERT_TRUE(app.ok());
    const auto cont = client.spawnContainer(app.value(), 1.0);
    ASSERT_TRUE(cont.ok());

    // The transport dies; with a lease the session detaches instead
    // of revoking — the container survives.
    t1.reset();
    EXPECT_EQ(core.connectionCount(), 0u);
    EXPECT_EQ(core.sessionCount(), 1u);
    EXPECT_EQ(core.detachedSessionCount(), 1u);
    EXPECT_EQ(core.stats().leases_started, 1u);
    EXPECT_EQ(rig.cluster.containerCount(), 1);

    // Two of the four lease ticks elapse while disconnected.
    ticker.tick();
    ticker.tick();
    EXPECT_EQ(core.sessionCount(), 1u);

    // Reconnect-and-resume: the same namespace, the same handles.
    LoopbackTransport t2(&core);
    t2.setIdleHandler([&ticker] { ticker.tick(); });
    client.bindTransport(&t2);
    ASSERT_TRUE(client.resume().ok());
    EXPECT_EQ(core.detachedSessionCount(), 0u);
    EXPECT_EQ(core.stats().leases_resumed, 1u);
    EXPECT_TRUE(client.setDemand(cont.value(), 0.5).ok());
    // The rebound session is a full citizen: reads work too.
    EXPECT_TRUE(client.getEnergySnapshot(app.value()).ok());
}

TEST(SessionLease, ExpiryRunsRevocation)
{
    Rig rig;
    ServerCore core(&rig.eco, leaseOptions(2));
    Ticker ticker{&rig};

    auto t1 = std::make_unique<LoopbackTransport>(&core);
    t1->setIdleHandler([&ticker] { ticker.tick(); });
    Client client(t1.get());
    ASSERT_TRUE(client.beginSession().ok());
    const auto app =
        client.registerApp("exp", testutil::appShare(0.5, 360));
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(client.spawnContainer(app.value(), 1.0).ok());

    // Capture a raw ref the way a leaked capability would.
    const auto ids = rig.cluster.appContainers(rig.cluster.findAppIndex("exp"));
    ASSERT_FALSE(ids.empty());
    const cop::ContainerRef leaked = rig.cluster.refOf(ids.front());

    t1.reset();
    ticker.tick(); // lease 2 -> 1
    EXPECT_EQ(core.sessionCount(), 1u);
    ticker.tick(); // lease 1 -> 0: revoke
    EXPECT_EQ(core.sessionCount(), 0u);
    EXPECT_EQ(core.detachedSessionCount(), 0u);
    EXPECT_EQ(core.stats().leases_expired, 1u);
    EXPECT_EQ(rig.cluster.containerCount(), 0);
    EXPECT_FALSE(rig.cluster.live(leaked));

    // Resuming an expired lease is refused request-scoped: the caller
    // abandons the session and registers from scratch.
    LoopbackTransport t2(&core);
    t2.setIdleHandler([&ticker] { ticker.tick(); });
    client.bindTransport(&t2);
    EXPECT_EQ(client.resume().code(), ErrorCode::InvalidHandle);
    client.abandonSession();
    EXPECT_EQ(client.sessionToken(), 0u);
    EXPECT_TRUE(client.ping().ok());
    EXPECT_TRUE(client.beginSession().ok());
    EXPECT_TRUE(
        client.registerApp("exp2", testutil::appShare(0.5, 360)).ok());
}

TEST(SessionLease, QueuedMutationCommitsOnceAcrossResume)
{
    Rig rig;
    ServerCore core(&rig.eco, leaseOptions(8));
    Ticker ticker{&rig};

    auto t1 = std::make_unique<LoopbackTransport>(&core);
    t1->setIdleHandler([&ticker] { ticker.tick(); });
    Client client(t1.get());
    ASSERT_TRUE(client.beginSession().ok());
    const auto app =
        client.registerApp("once", testutil::appShare(0.5, 360));
    ASSERT_TRUE(app.ok());
    const auto cont = client.spawnContainer(app.value(), 1.0);
    ASSERT_TRUE(cont.ok());

    // A mutation is queued server-side, then the connection dies
    // before its commit tick. The client never saw the reply, so the
    // frame stays tracked for retransmission.
    const std::uint32_t r =
        client.sendSetDemand(cont.value(), 0.75);
    EXPECT_GE(client.unackedCount(), 1u);
    t1.reset();

    // Detached sessions' queued mutations still commit (exactly
    // once), with the response parked in the dedup window.
    const auto committed_before = core.stats().coalesced_committed;
    ticker.tick();
    EXPECT_EQ(core.stats().coalesced_committed, committed_before + 1);

    // Resume retransmits the unacknowledged frame; the server
    // recognises the request id and replays the stored response
    // instead of applying the mutation twice.
    LoopbackTransport t2(&core);
    t2.setIdleHandler([&ticker] { ticker.tick(); });
    client.bindTransport(&t2);
    ASSERT_TRUE(client.resume().ok());
    EXPECT_TRUE(client.await(r).ok());
    EXPECT_EQ(client.unackedCount(), 0u);
    EXPECT_EQ(core.stats().duplicates_replayed, 1u);
    EXPECT_EQ(core.stats().coalesced_committed, committed_before + 1);
    // The demand took effect exactly once.
    const auto ids =
        rig.cluster.appContainers(rig.cluster.findAppIndex("once"));
    ASSERT_EQ(ids.size(), 1u);
    ticker.tick();
    EXPECT_GT(rig.cluster.containerPowerW(ids.front()), 0.0);
}

TEST(SessionLease, DuplicateOfCommittedMutationReplaysVerbatim)
{
    Rig rig;
    ServerCore core(&rig.eco, leaseOptions(8));
    Ticker ticker{&rig};
    LoopbackTransport transport(&core);
    transport.setIdleHandler([&ticker] { ticker.tick(); });
    Client client(&transport);
    ASSERT_TRUE(client.beginSession().ok());

    const auto app =
        client.registerApp("dup", testutil::appShare(0.5, 360));
    ASSERT_TRUE(app.ok());
    const auto cont = client.spawnContainer(app.value(), 1.0);
    ASSERT_TRUE(cont.ok());

    const std::uint32_t r = client.sendSetDemand(cont.value(), 0.5);
    EXPECT_TRUE(client.await(r).ok());

    // Wire-level retry of the *same* request id: the server answers
    // from the dedup window without queueing anything.
    std::vector<std::uint8_t> frame;
    encodeIdValue(frame, Opcode::SetDemand, r,
                  IdValueReq{cont.value().id, 0.5});
    ASSERT_TRUE(transport.send(frame.data(), frame.size()).ok());
    EXPECT_EQ(core.pendingCount(), 0u);
    EXPECT_TRUE(client.await(r).ok());
    EXPECT_EQ(core.stats().duplicates_replayed, 1u);

    // A duplicate of a still-queued request is swallowed: the single
    // eventual commit produces the one reply.
    const std::uint32_t r2 = client.sendSetDemand(cont.value(), 0.25);
    frame.clear();
    encodeIdValue(frame, Opcode::SetDemand, r2,
                  IdValueReq{cont.value().id, 0.25});
    ASSERT_TRUE(transport.send(frame.data(), frame.size()).ok());
    EXPECT_EQ(core.pendingCount(), 1u);
    EXPECT_TRUE(client.await(r2).ok());
    EXPECT_EQ(core.stats().coalesced_committed, 4u);
}

TEST(SessionLease, ResumeMustBeFirstFrame)
{
    Rig rig;
    ServerCore core(&rig.eco, leaseOptions(4));
    LoopbackTransport transport(&core);
    Client client(&transport);
    ASSERT_TRUE(client.ping().ok()); // connection is no longer virgin

    std::vector<std::uint8_t> frame;
    encodeResume(frame, 2, 0x1234u);
    ASSERT_TRUE(transport.send(frame.data(), frame.size()).ok());
    // Mid-stream Resume is a protocol violation: connection-fatal.
    EXPECT_EQ(client.ping().code(), ErrorCode::Unavailable);
    EXPECT_FALSE(core.connectionOpen(transport.connection()));
    EXPECT_EQ(core.stats().protocol_errors, 1u);
}

TEST(SessionLease, ResumeRejectionsAreRequestScoped)
{
    Rig rig;
    ServerCore core(&rig.eco, leaseOptions(4));

    // Unknown token: refused, but the fresh connection stays usable
    // (the client re-registers over it).
    LoopbackTransport t1(&core);
    Client c1(&t1);
    std::vector<std::uint8_t> frame;
    encodeResume(frame, 1, 0xDEADBEEFu);
    ASSERT_TRUE(t1.send(frame.data(), frame.size()).ok());
    EXPECT_EQ(c1.await(1).code(), ErrorCode::InvalidHandle);
    EXPECT_TRUE(core.connectionOpen(t1.connection()));
    EXPECT_TRUE(c1.ping().ok());
}

TEST(SessionLease, ResumeTakesOverSilentlyDeadBoundConnection)
{
    // After a silent peer death (host crash, partition) no FIN ever
    // reaches the server, so the old connection stays "bound"
    // indefinitely. The token is the session's bearer capability: a
    // Resume presenting it forcibly rebinds, and the stale
    // connection is kicked.
    Rig rig;
    ServerCore core(&rig.eco, leaseOptions(8));
    Ticker ticker{&rig};

    LoopbackTransport t1(&core);
    t1.setIdleHandler([&ticker] { ticker.tick(); });
    Client c1(&t1);
    ASSERT_TRUE(c1.beginSession().ok());
    const auto app =
        c1.registerApp("takeover", testutil::appShare(0.5, 360));
    ASSERT_TRUE(app.ok());
    const auto cont = c1.spawnContainer(app.value(), 1.0);
    ASSERT_TRUE(cont.ok());
    const std::uint64_t token = c1.sessionToken();
    ASSERT_NE(token, 0u);

    // The network partitions; the peer never sends a FIN, so the
    // server still believes t1 is a live binding. The client
    // reconnects over a fresh transport and resumes — the valid
    // token forcibly rebinds instead of being refused with "session
    // still bound".
    const ConnId stale_conn = t1.connection();
    LoopbackTransport t2(&core);
    t2.setIdleHandler([&ticker] { ticker.tick(); });
    c1.bindTransport(&t2);
    ASSERT_TRUE(c1.resume().ok());
    EXPECT_EQ(core.stats().leases_resumed, 1u);
    EXPECT_EQ(core.stats().resume_takeovers, 1u);

    // The namespace followed the token: the old handles keep working
    // on the new connection.
    EXPECT_TRUE(c1.setDemand(cont.value(), 0.5).ok());
    EXPECT_TRUE(c1.getEnergySnapshot(app.value()).ok());

    // The stale connection was queued for transport-level close,
    // holds only an empty namespace, and is served nothing more.
    const auto kicked = core.takeKicked();
    ASSERT_EQ(kicked.size(), 1u);
    EXPECT_EQ(kicked.front(), stale_conn);
    EXPECT_EQ(core.sessionCount(), 2u); // resumed + kicked empty shell
    core.closeConnection(stale_conn); // what the transport then does
    EXPECT_EQ(core.sessionCount(), 1u);
    EXPECT_EQ(rig.cluster.containerCount(), 1);
}

TEST(SessionLease, ResumeOnLeaselessServerIsUnavailable)
{
    Rig rig;
    ServerCore core(&rig.eco); // leases disabled
    LoopbackTransport transport(&core);
    Client client(&transport);

    std::vector<std::uint8_t> frame;
    encodeResume(frame, 1, 0x5EA5u);
    ASSERT_TRUE(transport.send(frame.data(), frame.size()).ok());
    EXPECT_EQ(client.await(1).code(), ErrorCode::Unavailable);
}

TEST(SessionLease, DrainRevokesDetachedSessions)
{
    Rig rig;
    ServerCore core(&rig.eco, leaseOptions(16));
    Ticker ticker{&rig};
    {
        LoopbackTransport t(&core);
        t.setIdleHandler([&ticker] { ticker.tick(); });
        Client client(&t);
        ASSERT_TRUE(client.beginSession().ok());
        const auto app =
            client.registerApp("dr", testutil::appShare(0.5, 360));
        ASSERT_TRUE(app.ok());
        ASSERT_TRUE(client.spawnContainer(app.value(), 1.0).ok());
    }
    EXPECT_EQ(core.detachedSessionCount(), 1u);
    EXPECT_EQ(rig.cluster.containerCount(), 1);

    // No one can resume into a server that is going away: drain
    // revokes every parked lease immediately.
    core.beginDrain();
    EXPECT_EQ(core.sessionCount(), 0u);
    EXPECT_EQ(core.detachedSessionCount(), 0u);
    EXPECT_EQ(rig.cluster.containerCount(), 0);
}

/** Status of the single response frame in `bytes`, answering `req`. */
ErrorCode
replyCode(const std::vector<std::uint8_t> &bytes, std::uint32_t req)
{
    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    Frame f;
    ResponseHead head;
    std::size_t consumed = 0;
    EXPECT_EQ(dec.next(&f), DecodeStatus::Frame);
    EXPECT_EQ(f.request_id, req);
    EXPECT_TRUE(
        decodeResponseHead(f.payload, f.payload_len, &head, &consumed));
    EXPECT_EQ(dec.buffered(), 0u);
    return head.code;
}

TEST(SessionLease, EvictedDuplicateNeverRecommits)
{
    // A retransmit replays its stored reply byte for byte while the id
    // is in the dedup window, and once the reply has been trimmed it
    // must answer an error, not re-commit: the committed-request-id
    // watermark keeps exactly-once intact even past the window. Three
    // times the window commits, so the flat window wraps and compacts
    // twice before the retransmits.
    constexpr std::uint32_t kWindow = 4;
    constexpr std::uint32_t kLast = 3 * kWindow; // request ids 1..12
    Rig rig;
    ServerCoreOptions o;
    o.lease_ticks = 8;
    o.dedup_window = kWindow;
    ServerCore core(&rig.eco, o);
    Ticker ticker{&rig};
    const ConnId conn = core.openConnection();

    // Feed one frame, settle a tick, take what the connection got.
    const auto exchange = [&](const std::vector<std::uint8_t> &frame,
                              bool tick) {
        EXPECT_TRUE(core.onBytes(conn, frame.data(), frame.size()));
        if (tick)
            ticker.tick();
        std::vector<std::uint8_t> got;
        got.swap(core.outbox(conn));
        return got;
    };
    const auto request = [](std::uint32_t id) {
        std::vector<std::uint8_t> frame;
        if (id == 1) {
            RegisterAppReq rr;
            rr.name = "evict";
            rr.share = testutil::appShare(0.5, 360);
            encodeRegisterApp(frame, id, rr);
        } else if (id == 2) {
            encodeIdValue(frame, Opcode::SpawnContainer, id,
                          IdValueReq{0, 1.0});
        } else {
            encodeIdValue(frame, Opcode::SetDemand, id,
                          IdValueReq{0, 0.05 * id});
        }
        return frame;
    };

    std::vector<std::vector<std::uint8_t>> replies(kLast + 1);
    for (std::uint32_t id = 1; id <= kLast; ++id) {
        replies[id] = exchange(request(id), /*tick=*/true);
        ASSERT_EQ(replyCode(replies[id], id), ErrorCode::Ok);
    }
    const auto committed = core.stats().coalesced_committed;
    EXPECT_EQ(committed, kLast);

    // The oldest surviving id replays its original reply verbatim.
    const std::uint32_t oldest = kLast - kWindow + 1;
    EXPECT_EQ(exchange(request(oldest), /*tick=*/false), replies[oldest]);
    EXPECT_EQ(core.pendingCount(), 0u);
    // The newest evicted id, and the very first one, answer
    // Unavailable without queueing anything.
    for (const std::uint32_t evicted : {oldest - 1, 1u}) {
        const auto got = exchange(request(evicted), /*tick=*/false);
        EXPECT_EQ(replyCode(got, evicted), ErrorCode::Unavailable);
        EXPECT_EQ(core.pendingCount(), 0u);
    }
    // The newest id replays too, and a tick later nothing re-committed.
    EXPECT_EQ(exchange(request(kLast), /*tick=*/true), replies[kLast]);
    EXPECT_EQ(core.stats().coalesced_committed, committed);
    EXPECT_EQ(core.stats().duplicates_replayed, 4u);

    // The next fresh id commits once and the window moves on, now
    // with an evicted entry ahead of it awaiting compaction.
    const auto next = exchange(request(kLast + 1), /*tick=*/true);
    EXPECT_EQ(replyCode(next, kLast + 1), ErrorCode::Ok);
    EXPECT_EQ(core.stats().coalesced_committed, committed + 1);
    EXPECT_EQ(replyCode(exchange(request(oldest), /*tick=*/false), oldest),
              ErrorCode::Unavailable);
    EXPECT_EQ(exchange(request(oldest + 1), /*tick=*/false),
              replies[oldest + 1]);
    EXPECT_EQ(core.pendingCount(), 0u);
}

TEST(SessionLease, ClientStopsAtAdvertisedDedupWindow)
{
    // The lease grant advertises the server's replay window; the
    // client refuses to push more requests unacknowledged than the
    // window could replay, so a resume can never retransmit past it.
    Rig rig;
    ServerCoreOptions o;
    o.lease_ticks = 8;
    o.dedup_window = 3;
    ServerCore core(&rig.eco, o);
    Ticker ticker{&rig};
    LoopbackTransport transport(&core);
    transport.setIdleHandler([&ticker] { ticker.tick(); });
    Client client(&transport);
    ASSERT_TRUE(client.beginSession().ok());
    EXPECT_EQ(client.dedupWindow(), 3u);
    const auto app =
        client.registerApp("window", testutil::appShare(0.5, 360));
    ASSERT_TRUE(app.ok());
    const auto cont = client.spawnContainer(app.value(), 1.0);
    ASSERT_TRUE(cont.ok());

    // Pipeline without pumping: the fourth send would outrun the
    // window and is refused locally, leaving the backlog intact.
    const std::uint32_t r1 = client.sendSetDemand(cont.value(), 0.1);
    const std::uint32_t r2 = client.sendSetDemand(cont.value(), 0.2);
    const std::uint32_t r3 = client.sendSetDemand(cont.value(), 0.3);
    EXPECT_EQ(client.unackedCount(), 3u);
    const std::uint32_t r4 = client.sendSetDemand(cont.value(), 0.4);
    EXPECT_EQ(client.unackedCount(), 3u);
    EXPECT_EQ(client.await(r4).code(), ErrorCode::ResourceExhausted);

    // Draining the backlog unblocks further sends.
    EXPECT_TRUE(client.await(r1).ok());
    EXPECT_TRUE(client.await(r2).ok());
    EXPECT_TRUE(client.await(r3).ok());
    EXPECT_TRUE(client.setDemand(cont.value(), 0.5).ok());
}

TEST(SessionLease, TokenDerivation)
{
    // An injected seed (tests/benches only) reproduces the token
    // sequence; the default draws from OS entropy, so two servers
    // never mint the same token.
    ServerCoreOptions seeded;
    seeded.lease_ticks = 4;
    seeded.token_seed = 42;

    Rig r1, r2;
    ServerCore a(&r1.eco, seeded);
    ServerCore b(&r2.eco, seeded);
    LoopbackTransport ta(&a), tb(&b);
    Client ca(&ta), cb(&tb);
    ASSERT_TRUE(ca.beginSession().ok());
    ASSERT_TRUE(cb.beginSession().ok());
    EXPECT_NE(ca.sessionToken(), 0u);
    EXPECT_EQ(ca.sessionToken(), cb.sessionToken());

    Rig r3, r4;
    ServerCore c(&r3.eco, leaseOptions(4));
    ServerCore d(&r4.eco, leaseOptions(4));
    LoopbackTransport tc(&c), td(&d);
    Client cc(&tc), cd(&td);
    ASSERT_TRUE(cc.beginSession().ok());
    ASSERT_TRUE(cd.beginSession().ok());
    EXPECT_NE(cc.sessionToken(), 0u);
    EXPECT_NE(cc.sessionToken(), cd.sessionToken());
    // Nor the old fixed-seed sequence anyone could precompute.
    EXPECT_NE(cc.sessionToken(), ca.sessionToken());
}

TEST(SessionLease, HandedBackSessionIdIsReusedByTheNextOpen)
{
    // A Resume discards its connection's virgin session and hands the
    // id back; the next connection is given that id again, and the
    // two sessions' frames, outboxes and commits stay apart.
    Rig rig;
    ServerCore core(&rig.eco, leaseOptions(8));
    Ticker ticker{&rig};

    auto t1 = std::make_unique<LoopbackTransport>(&core);
    t1->setIdleHandler([&ticker] { ticker.tick(); });
    Client x(t1.get());
    ASSERT_TRUE(x.beginSession().ok());
    const auto app_x = x.registerApp("x", testutil::appShare(0.3, 360));
    ASSERT_TRUE(app_x.ok());
    const auto cont_x = x.spawnContainer(app_x.value(), 1.0);
    ASSERT_TRUE(cont_x.ok());
    t1.reset(); // session 1 detaches

    LoopbackTransport t2(&core); // virgin session 2
    t2.setIdleHandler([&ticker] { ticker.tick(); });
    x.bindTransport(&t2);
    ASSERT_TRUE(x.resume().ok());
    EXPECT_EQ(core.captureSessions().next_session, 2u);

    LoopbackTransport t3(&core); // session 2 again
    t3.setIdleHandler([&ticker] { ticker.tick(); });
    Client y(&t3);
    ASSERT_TRUE(y.beginSession().ok());
    ServerCoreImage img = core.captureSessions();
    EXPECT_EQ(img.next_session, 3u);
    ASSERT_EQ(img.sessions.size(), 2u);
    EXPECT_EQ(img.sessions[0].id, 1u);
    EXPECT_EQ(img.sessions[1].id, 2u);
    EXPECT_NE(img.sessions[1].token, img.sessions[0].token);

    // y's frame reaches the wire first; both commit in one tick, each
    // into its own session.
    const std::uint32_t ry =
        y.sendRegisterApp("y", testutil::appShare(0.3, 360));
    const std::uint32_t rx = x.sendSetDemand(cont_x.value(), 0.5);
    const auto app_y = y.awaitApp(ry);
    ASSERT_TRUE(app_y.ok());
    EXPECT_EQ(app_y.value().id, 0u); // y's own namespace
    EXPECT_TRUE(x.await(rx).ok());
    const auto cont_y = y.spawnContainer(app_y.value(), 1.0);
    ASSERT_TRUE(cont_y.ok());
    EXPECT_EQ(cont_y.value().id, 0u);

    img = core.captureSessions();
    ASSERT_EQ(img.sessions.size(), 2u);
    EXPECT_EQ(img.sessions[0].apps, (std::vector<std::int32_t>{0}));
    EXPECT_EQ(img.sessions[1].apps, (std::vector<std::int32_t>{1}));
    EXPECT_EQ(img.sessions[0].containers.size(), 1u);
    EXPECT_EQ(img.sessions[1].containers.size(), 1u);
    EXPECT_EQ(rig.eco.appName(api::AppHandle(1)).valueOr(""), "y");
    EXPECT_TRUE(y.setDemand(cont_y.value(), 0.25).ok());
    EXPECT_TRUE(x.getEnergySnapshot(app_x.value()).ok());
    EXPECT_EQ(rig.cluster.containerCount(), 2);
}

void
expectSameImage(const ServerCoreImage &got, const ServerCoreImage &want)
{
    EXPECT_EQ(got.next_session, want.next_session);
    ASSERT_EQ(got.sessions.size(), want.sessions.size());
    for (std::size_t k = 0; k < want.sessions.size(); ++k) {
        const SessionImage &g = got.sessions[k];
        const SessionImage &w = want.sessions[k];
        EXPECT_EQ(g.id, w.id);
        EXPECT_EQ(g.token, w.token);
        EXPECT_EQ(g.bound, w.bound);
        EXPECT_EQ(g.lease_left, w.lease_left);
        EXPECT_EQ(g.committed_max, w.committed_max);
        EXPECT_EQ(g.apps, w.apps);
        ASSERT_EQ(g.containers.size(), w.containers.size());
        for (std::size_t c = 0; c < w.containers.size(); ++c) {
            EXPECT_EQ(g.containers[c].slot, w.containers[c].slot);
            EXPECT_EQ(g.containers[c].generation,
                      w.containers[c].generation);
        }
        EXPECT_EQ(g.done.ids, w.done.ids);
        EXPECT_EQ(g.done.ends, w.done.ends);
        EXPECT_EQ(g.done.opcodes, w.done.opcodes);
        EXPECT_EQ(g.done.bytes, w.done.bytes);
    }
}

TEST(SessionLease, RestoredIdGapsKeepAscendingIdOrder)
{
    // An image whose session ids have gaps (2, 4, 5, 7, 8), each
    // session owning one container created out of id order. Capture
    // after restore gives the image back; expiry and drain revoke in
    // ascending session id, which the cluster's LIFO free-slot list
    // records as the order the containers died in.
    Rig rig;
    ServerCore core(&rig.eco, leaseOptions(8));
    ASSERT_TRUE(rig.eco.tryAddApp("gap", testutil::appShare(0.3, 360)).ok());
    std::vector<cop::ContainerRef> refs;
    for (int i = 0; i < 5; ++i) {
        const auto id = rig.cluster.createContainer("gap", 1.0);
        ASSERT_TRUE(id);
        refs.push_back(rig.cluster.refOf(*id));
    }
    const auto session = [&](SessionId id, bool bound,
                             std::uint32_t lease, int container) {
        SessionImage s;
        s.id = id;
        s.token = 0x1000u + id;
        s.bound = bound;
        s.lease_left = lease;
        s.containers = {refs[static_cast<std::size_t>(container)]};
        return s;
    };
    ServerCoreImage image;
    image.next_session = 11;
    image.sessions = {session(2, false, 1, 3), session(4, false, 3, 4),
                      session(5, true, 0, 0), session(7, false, 1, 1),
                      session(8, false, 3, 2)};
    image.sessions[2].apps = {0};
    image.sessions[2].committed_max = 4;
    image.sessions[2].done.ids = {3, 4};
    image.sessions[2].done.ends = {2, 5};
    image.sessions[2].done.opcodes = {0x8a, 0x85};
    image.sessions[2].done.bytes = {1, 2, 3, 4, 5};

    core.restoreSessions(image);
    EXPECT_EQ(core.sessionCount(), 5u);
    EXPECT_EQ(core.detachedSessionCount(), 4u);
    expectSameImage(core.captureSessions(), image);

    // Sessions 2 and 7 run out of lease on the same tick.
    core.tickLeases();
    EXPECT_EQ(core.sessionCount(), 3u);
    EXPECT_EQ(rig.cluster.captureState().free_slots,
              (std::vector<std::int32_t>{refs[3].slot, refs[1].slot}));

    // Drain revokes the remaining detached sessions, 4 then 8.
    core.beginDrain();
    EXPECT_EQ(core.sessionCount(), 1u);
    EXPECT_EQ(core.detachedSessionCount(), 0u);
    EXPECT_EQ(rig.cluster.captureState().free_slots,
              (std::vector<std::int32_t>{refs[3].slot, refs[1].slot,
                                         refs[4].slot, refs[2].slot}));
    const ServerCoreImage left = core.captureSessions();
    ASSERT_EQ(left.sessions.size(), 1u);
    EXPECT_EQ(left.sessions[0].id, 5u);
}

} // namespace
} // namespace ecov::net
