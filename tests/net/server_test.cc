/**
 * @file
 * ServerCore semantics over the loopback transport: per-connection
 * handle namespaces (no forging, disconnect revocation), per-tick
 * coalescing, admission control, drain, and connection-fatal protocol
 * errors vs request-scoped malformed payloads.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rig.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/server.h"

namespace ecov::net {
namespace {

using api::ErrorCode;
using testutil::Rig;

/** One shared simulated clock per test: every idle handler advances
 *  the same timeline, whichever client happens to block first. */
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

/** Wire a loopback client whose idle handler settles one rig tick. */
struct TickingClient
{
    LoopbackTransport transport;
    Client client;

    TickingClient(ServerCore *core, Ticker *ticker)
        : transport(core), client(&transport)
    {
        transport.setIdleHandler([ticker] { ticker->tick(); });
    }
};

TEST(ServerCore, PingAndSnapshotAnswerImmediately)
{
    Rig rig;
    ServerCore core(&rig.eco);
    LoopbackTransport transport(&core);
    Client client(&transport);
    // No idle handler: if these calls needed a tick they would fail
    // with "no data pending", proving read-only requests bypass
    // coalescing.
    EXPECT_TRUE(client.ping().ok());

    // Registration must wait for a tick, so use the server-side
    // surface to create the app, then snapshot it remotely. Local app
    // id 0 on a fresh connection is whatever *this* connection
    // registered — nothing yet — so snapshot an invalid id first.
    const auto bad = client.getEnergySnapshot(RemoteApp{0});
    EXPECT_EQ(bad.status().code(), ErrorCode::InvalidHandle);
    EXPECT_EQ(core.stats().immediate_replies, 2u);
}

TEST(ServerCore, MutationsCommitAtTickInCanonicalOrder)
{
    Rig rig;
    ServerCore core(&rig.eco);
    Ticker ticker{&rig};
    TickingClient a(&core, &ticker);
    TickingClient b(&core, &ticker);

    // Pipeline registrations on both connections, b first on the
    // wire: commit order must still be (session, req) canonical, so
    // a's app lands at registration index 0... but arrival order is
    // b-then-a. The app indices expose which order tryAddApp ran in.
    const std::uint32_t rb =
        b.client.sendRegisterApp("tenant-b", testutil::appShare(0.25, 360));
    const std::uint32_t ra =
        a.client.sendRegisterApp("tenant-a", testutil::appShare(0.25, 360));
    EXPECT_FALSE(a.client.replyReady(ra));
    EXPECT_FALSE(b.client.replyReady(rb));
    EXPECT_EQ(core.pendingCount(), 2u);

    ticker.tick();
    EXPECT_EQ(core.pendingCount(), 0u);

    const auto app_a = a.client.awaitApp(ra);
    const auto app_b = b.client.awaitApp(rb);
    ASSERT_TRUE(app_a.ok());
    ASSERT_TRUE(app_b.ok());
    // Connection a was opened first, so its session has the lower id
    // and its registration committed first despite arriving second.
    EXPECT_EQ(rig.eco.appName(api::AppHandle(0)).valueOr(""),
              "tenant-a");
    EXPECT_EQ(rig.eco.appName(api::AppHandle(1)).valueOr(""),
              "tenant-b");
    EXPECT_EQ(core.stats().coalesced_committed, 2u);
}

TEST(ServerCore, NamespacesAreConnectionLocal)
{
    Rig rig;
    ServerCore core(&rig.eco);
    Ticker ticker{&rig};
    TickingClient a(&core, &ticker);
    TickingClient b(&core, &ticker);

    const auto app_a =
        a.client.registerApp("iso-a", testutil::appShare(0.3, 360));
    const auto app_b =
        b.client.registerApp("iso-b", testutil::appShare(0.3, 360));
    ASSERT_TRUE(app_a.ok());
    ASSERT_TRUE(app_b.ok());
    // Both tenants see local app id 0 — the ids are per-connection.
    EXPECT_EQ(app_a.value().id, 0u);
    EXPECT_EQ(app_b.value().id, 0u);

    const auto ca = a.client.spawnContainer(app_a.value(), 1.0);
    ASSERT_TRUE(ca.ok());
    EXPECT_EQ(ca.value().id, 0u);

    // b also gets local container id 0 for its own spawn; operating
    // on it touches b's container, not a's.
    const auto cb = b.client.spawnContainer(app_b.value(), 1.0);
    ASSERT_TRUE(cb.ok());
    EXPECT_EQ(cb.value().id, 0u);
    EXPECT_TRUE(b.client.setDemand(cb.value(), 0.5).ok());
    EXPECT_EQ(rig.cluster.containerCount(), 2);

    // b cannot name a's container at all: local id 1 does not exist
    // in b's namespace even though the cluster holds two containers.
    EXPECT_EQ(b.client.setDemand(RemoteContainer{1}, 0.5).code(),
              ErrorCode::InvalidHandle);
    // Nor can b snapshot a's app via a forged app id.
    EXPECT_EQ(b.client.getEnergySnapshot(RemoteApp{1}).status().code(),
              ErrorCode::InvalidHandle);
}

TEST(ServerCore, ValidationAtTheSurface)
{
    Rig rig;
    ServerCore core(&rig.eco);
    Ticker ticker{&rig};
    TickingClient c(&core, &ticker);

    const auto app =
        c.client.registerApp("val", testutil::appShare(0.5, 360));
    ASSERT_TRUE(app.ok());

    // Duplicate name is a DuplicateApp from tryAddApp.
    EXPECT_EQ(c.client.registerApp("val", testutil::appShare(0.1, 360))
                  .status()
                  .code(),
              ErrorCode::DuplicateApp);
    // Non-positive / non-finite cores are rejected server-side before
    // they can trip the cluster's fatal check.
    EXPECT_EQ(c.client.spawnContainer(app.value(), 0.0).status().code(),
              ErrorCode::InvalidArgument);
    EXPECT_EQ(
        c.client.spawnContainer(app.value(), -1.0).status().code(),
        ErrorCode::InvalidArgument);
    EXPECT_EQ(c.client
                  .spawnContainer(app.value(),
                                  std::nan(""))
                  .status()
                  .code(),
              ErrorCode::InvalidArgument);

    const auto cont = c.client.spawnContainer(app.value(), 1.0);
    ASSERT_TRUE(cont.ok());
    // NaN demand would poison the cluster's clamp; rejected.
    EXPECT_EQ(c.client.setDemand(cont.value(), std::nan("")).code(),
              ErrorCode::InvalidArgument);

    // Destroy, then act on the stale local id: UnknownContainer (the
    // id stays reserved but its handle's generation is gone).
    EXPECT_TRUE(c.client.destroyContainer(cont.value()).ok());
    EXPECT_EQ(c.client.setDemand(cont.value(), 0.5).code(),
              ErrorCode::UnknownContainer);
    EXPECT_EQ(c.client.destroyContainer(cont.value()).code(),
              ErrorCode::UnknownContainer);
}

TEST(ServerCore, SpawnOnFullClusterIsResourceExhausted)
{
    testutil::RigOptions opts;
    opts.nodes = 1; // one 4-core node
    Rig rig(std::move(opts));
    ServerCore core(&rig.eco);
    Ticker ticker{&rig};
    TickingClient c(&core, &ticker);

    const auto app =
        c.client.registerApp("full", testutil::appShare(0.5, 360));
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(c.client.spawnContainer(app.value(), 4.0).ok());
    const auto overflow = c.client.spawnContainer(app.value(), 4.0);
    EXPECT_EQ(overflow.status().code(), ErrorCode::ResourceExhausted);
}

TEST(ServerCore, PerConnectionInflightBudget)
{
    Rig rig;
    ServerCoreOptions opts;
    opts.max_inflight_per_conn = 3;
    ServerCore core(&rig.eco, opts);
    Ticker ticker{&rig};
    TickingClient c(&core, &ticker);

    const auto app =
        c.client.registerApp("adm", testutil::appShare(0.5, 360));
    ASSERT_TRUE(app.ok());
    const auto cont = c.client.spawnContainer(app.value(), 1.0);
    ASSERT_TRUE(cont.ok());

    // Three pipelined mutations fill the budget; the fourth is
    // rejected immediately (reply ready without any tick).
    std::uint32_t reqs[3];
    for (std::uint32_t &r : reqs)
        r = c.client.sendSetDemand(cont.value(), 0.5);
    const std::uint32_t over =
        c.client.sendSetDemand(cont.value(), 0.5);
    // The rejection is already in the outbox — awaiting it needs no
    // tick (the idle handler, which would run one, stays uncalled
    // because data is pending).
    EXPECT_EQ(c.client.await(over).code(),
              ErrorCode::ResourceExhausted);
    EXPECT_EQ(core.stats().admission_rejects, 1u);

    // The budget frees at commit: all three queued ops succeed and a
    // new mutation is admitted again.
    ticker.tick();
    for (std::uint32_t r : reqs)
        EXPECT_TRUE(c.client.await(r).ok());
    EXPECT_TRUE(c.client.setDemand(cont.value(), 0.25).ok());
}

TEST(ServerCore, GlobalQueueBudget)
{
    Rig rig;
    ServerCoreOptions opts;
    opts.max_pending_total = 2;
    ServerCore core(&rig.eco, opts);
    Ticker ticker{&rig};
    TickingClient a(&core, &ticker);
    TickingClient b(&core, &ticker);

    // Two queued registrations exhaust the global budget; the third —
    // on a different, otherwise idle connection — bounces.
    a.client.sendRegisterApp("g0", testutil::appShare(0.1, 360));
    a.client.sendRegisterApp("g1", testutil::appShare(0.1, 360));
    const std::uint32_t over =
        b.client.sendRegisterApp("g2", testutil::appShare(0.1, 360));
    EXPECT_EQ(b.client.awaitApp(over).status().code(),
              ErrorCode::ResourceExhausted);
}

TEST(ServerCore, DisconnectRevokesContainers)
{
    Rig rig;
    ServerCore core(&rig.eco);
    Ticker ticker{&rig};
    cop::ContainerRef leaked{};
    {
        TickingClient c(&core, &ticker);
        const auto app =
            c.client.registerApp("rev", testutil::appShare(0.5, 360));
        ASSERT_TRUE(app.ok());
        const auto cont = c.client.spawnContainer(app.value(), 1.0);
        ASSERT_TRUE(cont.ok());
        ASSERT_TRUE(c.client.spawnContainer(app.value(), 1.0).ok());
        EXPECT_EQ(rig.cluster.containerCount(), 2);

        // Capture the underlying ref the way a leaked capability
        // would: straight from the cluster.
        const auto ids =
            rig.cluster.appContainers(rig.cluster.findAppIndex("rev"));
        ASSERT_FALSE(ids.empty());
        leaked = rig.cluster.refOf(ids.front());
        ASSERT_TRUE(rig.cluster.live(leaked));
    } // transport dtor closes the connection

    // Disconnect destroyed the tenant's containers and bumped the
    // slot generations: the leaked ref no longer resolves.
    EXPECT_EQ(rig.cluster.containerCount(), 0);
    EXPECT_FALSE(rig.cluster.live(leaked));
    EXPECT_EQ(core.connectionCount(), 0u);
}

TEST(ServerCore, CloseDropsQueuedOpsBeforeCommit)
{
    Rig rig;
    ServerCore core(&rig.eco);
    Ticker ticker{&rig};
    {
        TickingClient c(&core, &ticker);
        c.client.sendRegisterApp("drop", testutil::appShare(0.1, 360));
        EXPECT_EQ(core.pendingCount(), 1u);
    }
    EXPECT_EQ(core.pendingCount(), 0u);
    ticker.tick(); // commits nothing, must not crash
    EXPECT_EQ(rig.eco.appName(api::AppHandle(0)).ok(), false);
}

TEST(ServerCore, DrainAnswersUnavailable)
{
    Rig rig;
    ServerCore core(&rig.eco);
    Ticker ticker{&rig};
    TickingClient c(&core, &ticker);

    const std::uint32_t queued =
        c.client.sendRegisterApp("dr", testutil::appShare(0.1, 360));
    core.beginDrain();
    // The queued request was answered Unavailable at drain...
    EXPECT_EQ(c.client.awaitApp(queued).status().code(),
              ErrorCode::Unavailable);
    // ...and so is anything sent afterwards, reads included.
    EXPECT_EQ(c.client.ping().code(), ErrorCode::Unavailable);
    EXPECT_EQ(core.pendingCount(), 0u);
    EXPECT_TRUE(core.draining());
}

TEST(ServerCore, MalformedPayloadIsRequestScoped)
{
    Rig rig;
    ServerCore core(&rig.eco);
    LoopbackTransport transport(&core);
    Client client(&transport);

    // A well-framed RegisterApp whose payload is one byte short: the
    // request fails InvalidArgument but the connection survives.
    std::vector<std::uint8_t> frame;
    RegisterAppReq req;
    req.name = "short";
    encodeRegisterApp(frame, 1, req);
    frame[8] = static_cast<std::uint8_t>(frame[8] - 1); // payload_len
    frame.pop_back();
    ASSERT_TRUE(core.onBytes(transport.connection(), frame.data(),
                             frame.size()));
    EXPECT_TRUE(core.connectionOpen(transport.connection()));
    EXPECT_EQ(client.await(1).code(), ErrorCode::InvalidArgument);
    // The connection still works.
    EXPECT_TRUE(client.ping().ok());
}

TEST(ServerCore, FramingViolationClosesConnection)
{
    Rig rig;
    ServerCore core(&rig.eco);
    LoopbackTransport transport(&core);
    Client client(&transport);
    ASSERT_TRUE(client.ping().ok());

    // Garbage bytes break framing: the server emits a ProtocolError
    // frame and the transport reports the close on the next receive.
    const std::uint8_t garbage[] = {0xDE, 0xAD, 0xBE, 0xEF,
                                    0x00, 0x01, 0x02, 0x03,
                                    0x04, 0x05, 0x06, 0x07};
    ASSERT_TRUE(
        transport.send(garbage, sizeof garbage).ok());
    const api::Status st = client.ping();
    EXPECT_EQ(st.code(), ErrorCode::Unavailable);
    EXPECT_EQ(client.connectionError().code(), ErrorCode::Unavailable);
    EXPECT_FALSE(core.connectionOpen(transport.connection()));
    EXPECT_EQ(core.stats().protocol_errors, 1u);
}

TEST(ServerCore, UnknownOpcodeClosesConnection)
{
    Rig rig;
    ServerCore core(&rig.eco);
    LoopbackTransport transport(&core);
    Client client(&transport);

    std::vector<std::uint8_t> frame;
    const std::size_t off = beginFrame(frame, 0x42, 1);
    endFrame(frame, off);
    ASSERT_TRUE(transport.send(frame.data(), frame.size()).ok());
    EXPECT_EQ(client.ping().code(), ErrorCode::Unavailable);
    EXPECT_FALSE(core.connectionOpen(transport.connection()));
}

/** Local ids answered, in order, by the response frames in `bytes`. */
std::vector<std::uint32_t>
idReplies(const std::vector<std::uint8_t> &bytes, std::uint32_t req)
{
    FrameDecoder dec;
    dec.feed(bytes.data(), bytes.size());
    std::vector<std::uint32_t> ids;
    Frame f;
    while (dec.next(&f) == DecodeStatus::Frame) {
        EXPECT_EQ(f.request_id, req);
        ResponseHead head;
        std::size_t consumed = 0;
        std::uint32_t id = 0;
        EXPECT_TRUE(decodeResponseHead(f.payload, f.payload_len, &head,
                                       &consumed));
        EXPECT_EQ(head.code, ErrorCode::Ok);
        EXPECT_TRUE(decodeIdResult(f.payload, f.payload_len, consumed, &id));
        ids.push_back(id);
    }
    return ids;
}

TEST(ServerCore, LeaselessRepeatedRequestIdsCommitInArrivalOrder)
{
    // Without a lease there is no dedup window, so nothing stops a
    // client from reusing a request id within a tick. Both mutations
    // commit, and equal (session id, request id) keys keep their
    // arrival order even when the batch has to be sorted around them.
    Rig rig;
    ServerCore core(&rig.eco);
    const ConnId a = core.openConnection();
    const ConnId b = core.openConnection();
    const auto send = [&](ConnId conn, std::uint32_t req,
                          const char *name) {
        RegisterAppReq r;
        r.name = name;
        r.share = testutil::appShare(0.1, 100);
        std::vector<std::uint8_t> frame;
        encodeRegisterApp(frame, req, r);
        ASSERT_TRUE(core.onBytes(conn, frame.data(), frame.size()));
    };
    send(b, 1, "b-1");
    send(a, 5, "a-first");
    send(b, 2, "b-2");
    send(a, 5, "a-second");
    EXPECT_EQ(core.pendingCount(), 4u);
    Ticker{&rig}.tick();
    EXPECT_EQ(core.stats().coalesced_committed, 4u);

    const char *order[] = {"a-first", "a-second", "b-1", "b-2"};
    for (std::int32_t k = 0; k < 4; ++k)
        EXPECT_EQ(rig.eco.appName(api::AppHandle(k)).valueOr(""),
                  order[k]);
    EXPECT_EQ(idReplies(core.outbox(a), 5),
              (std::vector<std::uint32_t>{0, 1}));
    core.outbox(b).clear();
    core.closeConnection(a);
    core.closeConnection(b);
}

TEST(ServerCore, ClosedConnectionIdNeverNamesANewOne)
{
    Rig rig;
    ServerCore core(&rig.eco);
    LoopbackTransport stale(&core);
    const ConnId id = stale.connection();
    core.closeConnection(id);

    // Many later opens, half of them closed again: none is handed the
    // closed id, and it never reads as open.
    std::vector<ConnId> live;
    for (int i = 0; i < 1000; ++i) {
        const ConnId c = core.openConnection();
        EXPECT_NE(c, id);
        if (i % 2 == 0)
            core.closeConnection(c);
        else
            live.push_back(c);
    }
    EXPECT_FALSE(core.connectionOpen(id));
    EXPECT_EQ(core.connectionCount(), live.size());
    for (ConnId c : live)
        EXPECT_TRUE(core.connectionOpen(c));

    // The transport still holding the id is told the stream is gone.
    std::vector<std::uint8_t> frame;
    encodePing(frame, 1);
    EXPECT_EQ(stale.send(frame.data(), frame.size()).code(),
              ErrorCode::Unavailable);
    std::vector<std::uint8_t> buf;
    EXPECT_EQ(stale.receiveSome(buf).code(), ErrorCode::Unavailable);
    for (ConnId c : live)
        core.closeConnection(c);
}

TEST(ServerCore, TablesFollowLiveEntriesThroughChurn)
{
    // Ten thousand short-lived connections beside one long-lived one:
    // every table ends at the live count, not at the ids handed out.
    Rig rig;
    ServerCore core(&rig.eco);
    LoopbackTransport keep(&core);
    for (int i = 0; i < 10000; ++i) {
        LoopbackTransport t(&core);
        Client c(&t);
        ASSERT_TRUE(c.ping().ok());
    }
    EXPECT_EQ(core.connectionCount(), 1u);
    EXPECT_EQ(core.sessionCount(), 1u);
    EXPECT_LE(core.connectionSlots(), 8u);
    Client c(&keep);
    EXPECT_TRUE(c.ping().ok());
}

} // namespace
} // namespace ecov::net
