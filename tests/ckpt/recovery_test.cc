/**
 * @file
 * Checkpoint/restore equivalence without crashing (src/ckpt/,
 * docs/CHECKPOINT.md): a world torn down at a tick boundary and
 * recovered in a fresh process image — snapshot plus WAL-tail replay —
 * is bit-identical to an uninterrupted run, the leased tenant resumes
 * by token without re-registering, and damaged state files recover
 * per the taxonomy (torn tail truncates, corruption — a flipped byte,
 * or a CRC-valid record with a forged element count, an out-of-order
 * dedup window, a forged session plane, slab, watt-cap list,
 * emergency list or app image, a flag byte other than 0 or 1, or a WAL
 * that cannot replay — is DataLoss and mutates nothing).
 *
 * Carries the `threads` label: settlement shards under ECOV_THREADS,
 * and the digest equality must hold at any thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "ckpt/manager.h"
#include "ckpt/record_io.h"
#include "ckpt/snapshot.h"
#include "net/client.h"
#include "net/loopback.h"
#include "net/wire.h"
#include "util/logging.h"
#include "world_harness.h"

namespace ecov::ckpt {
namespace {

using testutil::WorldHarness;
using testutil::makeStateDir;

void
flipByte(const std::string &path, std::size_t offset)
{
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(c ^ 0xff));
}

std::size_t
fileSize(const std::string &path)
{
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    return f.is_open() ? static_cast<std::size_t>(f.tellg()) : 0;
}

TEST(CkptRecovery, FreshDirectoryIsFreshStart)
{
    const std::string dir = makeStateDir();
    WorldHarness h(dir);
    ASSERT_TRUE(h.mgr.recover().ok());
    EXPECT_EQ(h.mgr.recoveredTick(), 0);
    EXPECT_EQ(h.mgr.replayedTicks(), 0);
    h.runTo(3);
    EXPECT_EQ(h.tickCount(), 3);
    EXPECT_NE(h.mgr.digest(), 0u);
}

// The cornerstone: life 1 runs a leased tenant (register, spawn, set
// demand) for 10 ticks and stops at a tick boundary; life 2 recovers
// from snapshot + WAL tail, the tenant resumes by token *without
// re-registering*, mutates through its old handles, and at the
// horizon the world digests bit-identically to a reference world
// that never restarted. With a dedup window of 2, the 7 commits
// before the tick-8 snapshot have wrapped and compacted the window
// twice, so the snapshot holds a window captured from mid-storage.
void
checkRestartResumeMatchesUninterrupted(std::uint32_t dedup_window)
{
    const std::string d1 = makeStateDir();
    const std::string d2 = makeStateDir();
    std::uint64_t token = 0;
    constexpr int kDemands = 5; // one tick each: ticks 3..7
    const auto demand = [](int i) { return 3.5 - 0.25 * i; };

    // Life 1: churny tenant work, then the "process" stops.
    {
        WorldHarness a(d1, 4, 64, dedup_window);
        ASSERT_TRUE(a.mgr.recover().ok());
        net::LoopbackTransport lt(&a.server);
        lt.setIdleHandler([&] { a.tick(); });
        net::Client c(&lt);
        ASSERT_TRUE(c.beginSession().ok());
        token = c.sessionToken();
        ASSERT_NE(token, 0u);
        auto app =
            c.registerApp("tenant", testutil::appShare(0.5, 200.0));
        ASSERT_TRUE(app.ok());
        auto cont = c.spawnContainer(app.value(), 2.0);
        ASSERT_TRUE(cont.ok());
        for (int i = 0; i < kDemands; ++i)
            ASSERT_TRUE(c.setDemand(cont.value(), demand(i)).ok());
        ASSERT_LT(a.tickCount(), 8);
        a.runTo(10);
    }

    // Life 2: recover. Cadence is every 4 ticks, so the snapshot sits
    // at tick 8 and the WAL tail replays ticks 8 and 9.
    WorldHarness b(d1, 4, 64, dedup_window);
    ASSERT_TRUE(b.mgr.recover().ok());
    EXPECT_EQ(b.mgr.recoveredTick(), 10);
    EXPECT_EQ(b.mgr.replayedTicks(), 2);
    EXPECT_EQ(b.server.sessionCount(), 1u);
    EXPECT_EQ(b.server.detachedSessionCount(), 1u);

    // The tenant reconnects with the persisted token: no
    // re-registration, the old local ids are live.
    net::LoopbackTransport ltb(&b.server);
    ltb.setIdleHandler([&] { b.tick(); });
    net::Client cb(&ltb);
    cb.adoptSession(token);
    ASSERT_TRUE(cb.resume().ok());
    EXPECT_EQ(b.server.stats().leases_resumed, 1u);
    EXPECT_EQ(b.server.detachedSessionCount(), 0u);
    ASSERT_TRUE(cb.setDemand(net::RemoteContainer{0}, 7.25).ok());
    b.runTo(20);

    // Reference: the same tenant history without any restart.
    WorldHarness r(d2, 4, 64, dedup_window);
    ASSERT_TRUE(r.mgr.recover().ok());
    net::LoopbackTransport ltr(&r.server);
    ltr.setIdleHandler([&] { r.tick(); });
    net::Client cr(&ltr);
    ASSERT_TRUE(cr.beginSession().ok());
    EXPECT_EQ(cr.sessionToken(), token); // seeded tokens line up
    auto app = cr.registerApp("tenant", testutil::appShare(0.5, 200.0));
    ASSERT_TRUE(app.ok());
    auto cont = cr.spawnContainer(app.value(), 2.0);
    ASSERT_TRUE(cont.ok());
    for (int i = 0; i < kDemands; ++i)
        ASSERT_TRUE(cr.setDemand(cont.value(), demand(i)).ok());
    r.runTo(10);
    ASSERT_TRUE(cr.setDemand(cont.value(), 7.25).ok());
    r.runTo(20);

    EXPECT_EQ(b.mgr.digest(), r.mgr.digest());
}

TEST(CkptRecovery, RestartResumeMatchesUninterrupted)
{
    {
        SCOPED_TRACE("default dedup window");
        checkRestartResumeMatchesUninterrupted(
            net::ServerCoreOptions{}.dedup_window);
    }
    {
        SCOPED_TRACE("dedup window of 2");
        checkRestartResumeMatchesUninterrupted(2);
    }
}

TEST(CkptRecovery, CorruptSnapshotIsDataLossAndMutatesNothing)
{
    const std::string dir = makeStateDir();
    {
        WorldHarness a(dir);
        ASSERT_TRUE(a.mgr.recover().ok());
        a.runTo(8); // snapshots at ticks 4 and 8
    }

    WorldHarness b(dir);
    ASSERT_GT(fileSize(b.mgr.snapshotPath()), 16u);
    flipByte(b.mgr.snapshotPath(), 12);
    api::Status st = b.mgr.recover();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), api::ErrorCode::DataLoss);
    // Validation precedes mutation: the world is untouched.
    EXPECT_EQ(b.tickCount(), 0);
    EXPECT_EQ(b.server.sessionCount(), 0u);
}

TEST(CkptRecovery, CorruptWalIsDataLossAndMutatesNothing)
{
    const std::string dir = makeStateDir();
    {
        // Cadence off (huge): the whole run lives in the WAL.
        WorldHarness a(dir, /*every=*/1000);
        ASSERT_TRUE(a.mgr.recover().ok());
        net::LoopbackTransport lt(&a.server);
        lt.setIdleHandler([&] { a.tick(); });
        net::Client c(&lt);
        ASSERT_TRUE(c.beginSession().ok());
        ASSERT_TRUE(
            c.registerApp("t", testutil::appShare(0.3, 100.0)).ok());
        a.runTo(6);
    }

    WorldHarness b(dir, /*every=*/1000);
    ASSERT_GT(fileSize(b.mgr.walPath()), 32u);
    flipByte(b.mgr.walPath(), 20); // inside the first record
    api::Status st = b.mgr.recover();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), api::ErrorCode::DataLoss);
    EXPECT_EQ(b.tickCount(), 0);
    EXPECT_EQ(b.server.sessionCount(), 0u);
}

/**
 * A 28-byte payload with a valid magic and version, tick and time 0,
 * then an element count of 0xFFFFFFFF with no elements behind it —
 * what a codec bug or version skew can leave inside a CRC-valid
 * record. The first count of both the snapshot (cluster slots) and a
 * WAL record (session events) sits at this offset.
 */
std::vector<std::uint8_t>
forgedCountPayload(std::uint32_t magic, std::uint32_t version)
{
    std::vector<std::uint8_t> out;
    net::WireWriter w(&out);
    w.u32(magic);
    w.u32(version);
    w.u64(0);
    w.u64(0);
    w.u32(0xFFFFFFFFu);
    return out;
}

/** Recover `b`: it must be DataLoss, with no throw, at tick 0 and
 *  with no app, session or container restored. */
void
expectRecoveryRefused(WorldHarness &b)
{
    api::Status st;
    EXPECT_NO_THROW(st = b.mgr.recover());
    EXPECT_EQ(st.code(), api::ErrorCode::DataLoss) << st.message();
    EXPECT_EQ(b.tickCount(), 0);
    EXPECT_EQ(b.server.sessionCount(), 0u);
    EXPECT_EQ(b.rig.eco.appCount(), 0u);
    EXPECT_EQ(b.rig.cluster.containerCount(), 0);
}

/** Publish a forged snapshot payload into a fresh harness; recovery
 *  must refuse it. */
void
expectForgedPayloadRefused(const std::vector<std::uint8_t> &payload)
{
    WorldHarness b(makeStateDir());
    ASSERT_TRUE(publishRecordFile(b.mgr.snapshotPath(), payload,
                                  FsyncPolicy::Never)
                    .ok());
    expectRecoveryRefused(b);
}

void
expectForgedSnapshotRefused(const Snapshot &snap)
{
    std::vector<std::uint8_t> payload;
    encodeSnapshot(payload, snap);
    expectForgedPayloadRefused(payload);
}

/** Write forged WAL records into a fresh harness; recovery must refuse
 *  them. */
void
expectForgedWalRefused(const std::vector<std::vector<std::uint8_t>> &recs)
{
    WorldHarness b(makeStateDir(), /*every=*/1000);
    RecordWriter wal;
    ASSERT_TRUE(wal.open(b.mgr.walPath(), FsyncPolicy::Never).ok());
    for (const auto &payload : recs)
        ASSERT_TRUE(wal.append(payload).ok());
    wal.close();
    expectRecoveryRefused(b);
}

/** The whole WAL of a leased world whose tenant registers an app with
 *  a battery share and spawns a container. */
void
registeringWal(std::vector<std::vector<std::uint8_t>> *recs)
{
    const std::string dir = makeStateDir();
    {
        WorldHarness a(dir, /*every=*/1000);
        ASSERT_TRUE(a.mgr.recover().ok());
        net::LoopbackTransport lt(&a.server);
        lt.setIdleHandler([&] { a.tick(); });
        net::Client c(&lt);
        ASSERT_TRUE(c.beginSession().ok());
        auto app = c.registerApp("t", testutil::appShare(0.3, 100.0));
        ASSERT_TRUE(app.ok());
        ASSERT_TRUE(c.spawnContainer(app.value(), 1.0).ok());
        a.runTo(4);
    }
    ASSERT_TRUE(readRecords(dir + "/wal.eckw", recs).ok());
}

TEST(CkptRecovery, ForgedCountIsDataLossAndMutatesNothing)
{
    // Snapshot: the forged record is published atomically, so the
    // record layer's CRC accepts it and only the decoder can refuse.
    {
        SCOPED_TRACE("forged snapshot count");
        expectForgedPayloadRefused(
            forgedCountPayload(kSnapshotMagic, kSnapshotVersion));
    }
    // Snapshot: a live session's two dedup entries swapped into
    // descending order, and then in order but above the committed
    // watermark. Both break the invariant the server's window search
    // relies on; a decoder that re-sorted or trusted them would
    // recover a world whose replays go wrong.
    for (const bool descending : {true, false}) {
        SCOPED_TRACE(descending ? "descending window"
                                : "window above watermark");
        Snapshot snap;
        {
            WorldHarness a(makeStateDir());
            ASSERT_TRUE(a.mgr.recover().ok());
            net::LoopbackTransport lt(&a.server);
            lt.setIdleHandler([&] { a.tick(); });
            net::Client c(&lt);
            ASSERT_TRUE(c.beginSession().ok());
            auto app = c.registerApp("t", testutil::appShare(0.3, 100.0));
            ASSERT_TRUE(app.ok());
            ASSERT_TRUE(c.spawnContainer(app.value(), 1.0).ok());
            snap = captureSnapshot(a.world());
        }
        ASSERT_EQ(snap.server.sessions.size(), 1u);
        net::SessionImage &img = snap.server.sessions[0];
        net::DedupWindow &d = img.done;
        ASSERT_EQ(d.ids.size(), 2u);
        if (descending) {
            const std::vector<std::uint8_t> first(
                d.bytes.begin(), d.bytes.begin() + d.ends[0]);
            const std::vector<std::uint8_t> second(
                d.bytes.begin() + d.ends[0], d.bytes.end());
            std::swap(d.ids[0], d.ids[1]);
            d.bytes = second;
            d.bytes.insert(d.bytes.end(), first.begin(), first.end());
            d.ends = {static_cast<std::uint32_t>(second.size()),
                      static_cast<std::uint32_t>(d.bytes.size())};
        } else {
            img.committed_max = d.ids[0];
        }
        expectForgedSnapshotRefused(snap);
    }
    // Snapshot: the watt-cap list the ecovisor restores into its slot
    // column, captured live with caps on the first and last of three
    // containers (set out of id order) and the middle one destroyed,
    // then forged five ways. No valid writer emits any of them; a
    // decoder that re-sorted, restored or applied them would recover a
    // world no run produced.
    enum class CapForgery { Descending, DeadId, NaN, Negative, Infinite };
    for (const CapForgery forgery :
         {CapForgery::Descending, CapForgery::DeadId, CapForgery::NaN,
          CapForgery::Negative, CapForgery::Infinite}) {
        SCOPED_TRACE("cap forgery " +
                     std::to_string(static_cast<int>(forgery)));
        Snapshot snap;
        cop::ContainerId dead = cop::kInvalidContainer;
        {
            WorldHarness a(makeStateDir());
            ASSERT_TRUE(a.mgr.recover().ok());
            ASSERT_TRUE(
                a.rig.eco.tryAddApp("t", testutil::appShare(0.3, 100.0))
                    .ok());
            std::vector<cop::ContainerId> ids;
            for (int i = 0; i < 3; ++i) {
                auto id = a.rig.cluster.createContainer("t", 1.0);
                ASSERT_TRUE(id);
                ids.push_back(*id);
            }
            ASSERT_TRUE(a.rig.eco
                            .setContainerPowercap(a.rig.handle(ids[2]), 2.5)
                            .ok());
            ASSERT_TRUE(a.rig.eco
                            .setContainerPowercap(a.rig.handle(ids[0]), 1.5)
                            .ok());
            dead = ids[1];
            a.rig.cluster.destroyContainer(dead);
            a.runTo(1);
            snap = captureSnapshot(a.world());
        }
        auto &caps = snap.eco.powercaps;
        ASSERT_EQ(caps.size(), 2u);
        ASSERT_LT(caps[0].first, dead);
        ASSERT_GT(caps[1].first, dead);
        switch (forgery) {
          case CapForgery::Descending:
            std::swap(caps[0], caps[1]);
            break;
          case CapForgery::DeadId:
            caps[0].first = dead; // still ascending
            break;
          case CapForgery::NaN:
            caps[0].second = std::nan("");
            break;
          case CapForgery::Negative:
            caps[1].second = -1.0;
            break;
          case CapForgery::Infinite:
            caps[1].second = core::kUnlimitedW;
            break;
        }
        expectForgedSnapshotRefused(snap);
    }
    // Snapshot: the session plane of a live two-tenant capture, forged
    // six ways. Capture walks sessions in ascending id order, every id
    // nonzero and below next_session, and newSession keeps tokens
    // unique, so no valid writer emits any of these; restoring one
    // would merge two sessions or double-count a lease.
    enum class SessionForgery
    {
        OutOfOrder,
        Repeated,
        Zero,
        AtNextSession,
        AboveNextSession,
        SharedToken,
    };
    for (const SessionForgery forgery :
         {SessionForgery::OutOfOrder, SessionForgery::Repeated,
          SessionForgery::Zero, SessionForgery::AtNextSession,
          SessionForgery::AboveNextSession, SessionForgery::SharedToken}) {
        SCOPED_TRACE("session forgery " +
                     std::to_string(static_cast<int>(forgery)));
        Snapshot snap;
        {
            WorldHarness a(makeStateDir());
            ASSERT_TRUE(a.mgr.recover().ok());
            net::LoopbackTransport l1(&a.server), l2(&a.server);
            l1.setIdleHandler([&] { a.tick(); });
            l2.setIdleHandler([&] { a.tick(); });
            net::Client c1(&l1), c2(&l2);
            ASSERT_TRUE(c1.beginSession().ok());
            ASSERT_TRUE(c2.beginSession().ok());
            ASSERT_TRUE(
                c1.registerApp("t1", testutil::appShare(0.3, 100.0)).ok());
            ASSERT_TRUE(
                c2.registerApp("t2", testutil::appShare(0.3, 100.0)).ok());
            snap = captureSnapshot(a.world());
        }
        net::ServerCoreImage &plane = snap.server;
        ASSERT_EQ(plane.sessions.size(), 2u);
        ASSERT_EQ(plane.sessions[0].id, 1u);
        ASSERT_EQ(plane.sessions[1].id, 2u);
        ASSERT_EQ(plane.next_session, 3u);
        switch (forgery) {
          case SessionForgery::OutOfOrder:
            std::swap(plane.sessions[0], plane.sessions[1]);
            break;
          case SessionForgery::Repeated:
            plane.sessions[1].id = 1;
            break;
          case SessionForgery::Zero:
            plane.sessions[0].id = 0;
            break;
          case SessionForgery::AtNextSession:
            plane.sessions[1].id = 3;
            break;
          case SessionForgery::AboveNextSession:
            plane.next_session = 2;
            break;
          case SessionForgery::SharedToken:
            plane.sessions[1].token = plane.sessions[0].token;
            break;
        }
        expectForgedSnapshotRefused(snap);
    }
    // Snapshot: the slab itself, captured live with three containers
    // and the middle one destroyed (one dead slot, listed once in the
    // free list), then forged nine ways. Create hands out each id in
    // [1, next_id) once, interns the app first and places on a node
    // of this cluster, and the free list holds exactly the dead slots,
    // so no valid writer emits any of these. Restoring one either
    // failed fatally after the slab was cleared or handed a slot out
    // twice.
    enum class SlabForgery
    {
        IdZero,
        IdAtNextId,
        RepeatedId,
        AppPastNames,
        NodePastCluster,
        FreeOutOfRange,
        FreeNamesLive,
        FreeRepeated,
        FreeMissingDead,
    };
    for (const SlabForgery forgery :
         {SlabForgery::IdZero, SlabForgery::IdAtNextId,
          SlabForgery::RepeatedId, SlabForgery::AppPastNames,
          SlabForgery::NodePastCluster, SlabForgery::FreeOutOfRange,
          SlabForgery::FreeNamesLive, SlabForgery::FreeRepeated,
          SlabForgery::FreeMissingDead}) {
        SCOPED_TRACE("slab forgery " +
                     std::to_string(static_cast<int>(forgery)));
        Snapshot snap;
        {
            WorldHarness a(makeStateDir());
            ASSERT_TRUE(a.mgr.recover().ok());
            ASSERT_TRUE(
                a.rig.eco.tryAddApp("t", testutil::appShare(0.3, 100.0))
                    .ok());
            std::vector<cop::ContainerId> ids;
            for (int i = 0; i < 3; ++i)
                ids.push_back(a.rig.cluster.createContainer("t", 1.0).value());
            a.rig.cluster.destroyContainer(ids[1]);
            a.runTo(1);
            snap = captureSnapshot(a.world());
        }
        cop::ClusterImage &img = snap.cluster;
        ASSERT_EQ(img.slots.size(), 3u);
        ASSERT_TRUE(img.slots[0].live && !img.slots[1].live &&
                    img.slots[2].live);
        ASSERT_EQ(img.free_slots, std::vector<std::int32_t>{1});
        switch (forgery) {
          case SlabForgery::IdZero:
            img.slots[0].c.id = 0;
            break;
          case SlabForgery::IdAtNextId:
            img.slots[2].c.id = img.next_id;
            break;
          case SlabForgery::RepeatedId:
            img.slots[2].c.id = img.slots[0].c.id;
            break;
          case SlabForgery::AppPastNames:
            img.slots[0].c.app = static_cast<cop::AppIndex>(img.apps.size());
            break;
          case SlabForgery::NodePastCluster:
            img.slots[2].c.node = testutil::RigOptions{}.nodes;
            break;
          case SlabForgery::FreeOutOfRange:
            img.free_slots.push_back(3);
            break;
          case SlabForgery::FreeNamesLive:
            img.free_slots.push_back(0);
            break;
          case SlabForgery::FreeRepeated:
            img.free_slots.push_back(1);
            break;
          case SlabForgery::FreeMissingDead:
            img.free_slots.clear();
            break;
        }
        expectForgedSnapshotRefused(snap);
    }
    // Snapshot: the app images of a live two-app capture, forged ten
    // ways. Registration refuses an empty, repeated or oversubscribing
    // app and a share the VES cannot be built from, and interns each
    // name in the cluster; a VES holds a battery exactly when its share
    // has one, and its setters refuse negative and NaN rates. So no
    // valid writer emits any of these. Restoring one either failed
    // fatally after the cluster and earlier apps were restored or
    // recovered a world no run produced.
    enum class AppForgery
    {
        Repeated,
        Empty,
        NotInterned,
        BatteryFlipped,
        SolarOversubscribed,
        BatteryOversubscribed,
        NaNShare,
        NegativeGridLimit,
        NegativeChargeRate,
        NaNDischargeRate,
    };
    for (const AppForgery forgery :
         {AppForgery::Repeated, AppForgery::Empty, AppForgery::NotInterned,
          AppForgery::BatteryFlipped, AppForgery::SolarOversubscribed,
          AppForgery::BatteryOversubscribed, AppForgery::NaNShare,
          AppForgery::NegativeGridLimit, AppForgery::NegativeChargeRate,
          AppForgery::NaNDischargeRate}) {
        SCOPED_TRACE("app forgery " +
                     std::to_string(static_cast<int>(forgery)));
        Snapshot snap;
        {
            WorldHarness a(makeStateDir());
            ASSERT_TRUE(a.mgr.recover().ok());
            for (const char *app : {"t", "u"})
                ASSERT_TRUE(
                    a.rig.eco.tryAddApp(app, testutil::appShare(0.3, 100.0))
                        .ok());
            ASSERT_TRUE(a.rig.cluster.createContainer("t", 1.0));
            a.runTo(1);
            snap = captureSnapshot(a.world());
        }
        ASSERT_EQ(snap.eco.apps.size(), 2u);
        core::EcovisorImage::AppImage &app = snap.eco.apps[1];
        switch (forgery) {
          case AppForgery::Repeated:
            app.name = "t";
            break;
          case AppForgery::Empty:
            app.name.clear();
            break;
          case AppForgery::NotInterned:
            app.name = "v";
            break;
          case AppForgery::BatteryFlipped:
            app.ves.has_battery = false;
            break;
          case AppForgery::SolarOversubscribed:
            app.share.solar_fraction = 0.9;
            break;
          case AppForgery::BatteryOversubscribed:
            app.share.battery->capacity_wh = 1400.0; // bank: 1440 Wh
            break;
          case AppForgery::NaNShare:
            app.share.grid_max_w = std::nan("");
            break;
          case AppForgery::NegativeGridLimit:
            app.share.grid_max_w = -1.0;
            break;
          case AppForgery::NegativeChargeRate:
            app.ves.charge_rate_w = -5.0;
            break;
          case AppForgery::NaNDischargeRate:
            app.ves.max_discharge_w = std::nan("");
            break;
        }
        expectForgedSnapshotRefused(snap);
    }
    // Snapshot: slot 0's live flag, payload byte 28 after the magic,
    // version, tick, time and slot count, set to 2. Flags are written
    // as 0 or 1; a reader that took any nonzero byte as true restored
    // this one.
    {
        SCOPED_TRACE("live flag of 2");
        WorldHarness a(makeStateDir());
        ASSERT_TRUE(a.mgr.recover().ok());
        ASSERT_TRUE(
            a.rig.eco.tryAddApp("t", testutil::appShare(0.3, 100.0)).ok());
        ASSERT_TRUE(a.rig.cluster.createContainer("t", 1.0));
        a.runTo(1);
        std::vector<std::uint8_t> payload;
        encodeSnapshot(payload, captureSnapshot(a.world()));
        ASSERT_EQ(payload[28], 1);
        payload[28] = 2;
        expectForgedPayloadRefused(payload);
    }
    // Snapshot: armed fault ticks in a world with no injector to
    // restore them into, found only after the cluster and the
    // ecovisor had been restored.
    {
        SCOPED_TRACE("armed fault ticks without an injector");
        Snapshot snap;
        {
            WorldHarness a(makeStateDir());
            ASSERT_TRUE(a.mgr.recover().ok());
            ASSERT_TRUE(
                a.rig.eco.tryAddApp("t", testutil::appShare(0.3, 100.0))
                    .ok());
            ASSERT_TRUE(a.rig.cluster.createContainer("t", 1.0));
            a.runTo(1);
            snap = captureSnapshot(a.world());
        }
        snap.injector_armed_ticks = 3;
        expectForgedSnapshotRefused(snap);
    }
    // Snapshot: the emergency list, captured mid-outage with every
    // container of two registered apps shed (the app registered second
    // sorts first, so the list is not in id order), then forged four
    // ways. Capture reads the flags of registered apps' live
    // containers in settle order, so no valid writer emits any of
    // these; restoring one would flag a container no outage capped.
    enum class EmergencyForgery { DeadId, Repeated, Unregistered, IdOrder };
    for (const EmergencyForgery forgery :
         {EmergencyForgery::DeadId, EmergencyForgery::Repeated,
          EmergencyForgery::Unregistered, EmergencyForgery::IdOrder}) {
        SCOPED_TRACE("emergency forgery " +
                     std::to_string(static_cast<int>(forgery)));
        Snapshot snap;
        cop::ContainerId dead = cop::kInvalidContainer;
        cop::ContainerId ghost = cop::kInvalidContainer;
        {
            WorldHarness a(makeStateDir());
            ASSERT_TRUE(a.mgr.recover().ok());
            // No solar and no battery: an outage sheds everything.
            ASSERT_TRUE(a.rig.eco.tryAddApp("b", core::AppShareConfig{}).ok());
            ASSERT_TRUE(a.rig.eco.tryAddApp("a", core::AppShareConfig{}).ok());
            for (const char *app : {"b", "b", "a", "a"})
                a.rig.cluster.setDemand(
                    a.rig.cluster.createContainer(app, 1.0).value(), 1.0);
            dead = a.rig.cluster.createContainer("a", 1.0).value();
            a.rig.cluster.destroyContainer(dead);
            // Interned by the cluster, never registered as an app.
            ghost = a.rig.cluster.createContainer("z", 1.0).value();
            core::EnergyFaults outage;
            outage.grid_out = true;
            a.rig.eco.setEnergyFaults(outage);
            a.runTo(1);
            snap = captureSnapshot(a.world());
        }
        auto &list = snap.eco.emergency_capped;
        ASSERT_EQ(list, (std::vector<cop::ContainerId>{3, 4, 1, 2}));
        switch (forgery) {
          case EmergencyForgery::DeadId:
            list[1] = dead;
            break;
          case EmergencyForgery::Repeated:
            list.insert(list.begin() + 1, list[0]);
            break;
          case EmergencyForgery::Unregistered:
            list.push_back(ghost); // "z" sorts last: still in order
            break;
          case EmergencyForgery::IdOrder:
            std::sort(list.begin(), list.end());
            break;
        }
        expectForgedSnapshotRefused(snap);
    }
    // Snapshot: the values of a live two-app capture, forged out of
    // the ranges their writers keep. The COP setters store demand,
    // utilization cap and GPU utilization clamped to [0, 1] and refuse
    // NaN, and admit only a positive core count that fits a node; a
    // battery holds [0, its capacity] Wh, and a VES without one
    // captures 0. Each forgery recovered Ok before, and the NaN worlds
    // went on to read a NaN battery level or grid draw.
    enum class RangeForgery
    {
        DemandNaN,
        DemandAboveOne,
        UtilCapNaN,
        UtilCapNegative,
        GpuUtilNaN,
        GpuUtilAboveOne,
        CoresNegative,
        CoresNaN,
        CoresInfinite,
        BatteryNaN,
        BatteryNegative,
        BatteryAboveShare,
        BatteryWithoutShare,
        BankNaN,
        BankNegative,
        BankAboveCapacity,
    };
    for (const RangeForgery forgery :
         {RangeForgery::DemandNaN, RangeForgery::DemandAboveOne,
          RangeForgery::UtilCapNaN, RangeForgery::UtilCapNegative,
          RangeForgery::GpuUtilNaN, RangeForgery::GpuUtilAboveOne,
          RangeForgery::CoresNegative, RangeForgery::CoresNaN,
          RangeForgery::CoresInfinite, RangeForgery::BatteryNaN,
          RangeForgery::BatteryNegative, RangeForgery::BatteryAboveShare,
          RangeForgery::BatteryWithoutShare, RangeForgery::BankNaN,
          RangeForgery::BankNegative, RangeForgery::BankAboveCapacity}) {
        SCOPED_TRACE("range forgery " +
                     std::to_string(static_cast<int>(forgery)));
        Snapshot snap;
        {
            WorldHarness a(makeStateDir());
            ASSERT_TRUE(a.mgr.recover().ok());
            ASSERT_TRUE(
                a.rig.eco.tryAddApp("t", testutil::appShare(0.3, 100.0))
                    .ok());
            ASSERT_TRUE(a.rig.eco.tryAddApp("u", core::AppShareConfig{}).ok());
            a.rig.cluster.setDemand(
                a.rig.cluster.createContainer("t", 1.0).value(), 0.5);
            a.runTo(1);
            snap = captureSnapshot(a.world());
        }
        ASSERT_TRUE(snap.has_phys_battery);
        ASSERT_EQ(snap.eco.apps.size(), 2u);
        ASSERT_TRUE(snap.eco.apps[0].ves.has_battery);
        ASSERT_FALSE(snap.eco.apps[1].ves.has_battery);
        ASSERT_TRUE(snap.cluster.slots[0].live);
        cop::Container &slot = snap.cluster.slots[0].c;
        double &battery_wh = snap.eco.apps[0].ves.battery_energy_wh;
        const double nan = std::nan("");
        switch (forgery) {
          case RangeForgery::DemandNaN:
            slot.demand = nan;
            break;
          case RangeForgery::DemandAboveOne:
            slot.demand = 1.5;
            break;
          case RangeForgery::UtilCapNaN:
            slot.util_cap = nan;
            break;
          case RangeForgery::UtilCapNegative:
            slot.util_cap = -0.5;
            break;
          case RangeForgery::GpuUtilNaN:
            slot.gpu_util = nan;
            break;
          case RangeForgery::GpuUtilAboveOne:
            slot.gpu_util = 2.0;
            break;
          case RangeForgery::CoresNegative:
            slot.cores = -1.0;
            break;
          case RangeForgery::CoresNaN:
            slot.cores = nan;
            break;
          case RangeForgery::CoresInfinite:
            slot.cores = std::numeric_limits<double>::infinity();
            break;
          case RangeForgery::BatteryNaN:
            battery_wh = nan;
            break;
          case RangeForgery::BatteryNegative:
            battery_wh = -100.0;
            break;
          case RangeForgery::BatteryAboveShare:
            battery_wh = 1e6; // share: 100 Wh
            break;
          case RangeForgery::BatteryWithoutShare:
            snap.eco.apps[1].ves.battery_energy_wh = 5.0;
            break;
          case RangeForgery::BankNaN:
            snap.phys_battery_wh = nan;
            break;
          case RangeForgery::BankNegative:
            snap.phys_battery_wh = -1.0;
            break;
          case RangeForgery::BankAboveCapacity:
            snap.phys_battery_wh = 1e6; // bank: 1440 Wh
            break;
        }
        expectForgedSnapshotRefused(snap);
    }
    // WAL: same forgery as the first record of the log.
    {
        SCOPED_TRACE("forged WAL count");
        expectForgedWalRefused({forgedCountPayload(kWalMagic, kWalVersion)});
    }
    // WAL: a logged op re-encoded as a Ping. Only coalesced ops are
    // ever logged; replaying this one aborted the process.
    {
        SCOPED_TRACE("Ping op in the WAL");
        std::vector<std::vector<std::uint8_t>> recs;
        registeringWal(&recs);
        bool forged = false;
        for (auto &payload : recs) {
            TickRecord rec;
            ASSERT_TRUE(decodeTickRecord(payload, &rec).ok());
            if (forged || rec.ops.empty())
                continue;
            rec.ops[0].op = net::Opcode::Ping;
            payload.clear();
            encodeTickRecord(payload, rec.tick, rec.start_s, rec.events,
                             rec.ops);
            forged = true;
        }
        ASSERT_TRUE(forged);
        expectForgedWalRefused(recs);
    }
    // WAL: the battery flag of a logged RegisterApp share set to 2.
    {
        SCOPED_TRACE("share flag of 2 in the WAL");
        std::vector<std::vector<std::uint8_t>> recs;
        registeringWal(&recs);
        bool forged = false;
        for (auto &payload : recs) {
            TickRecord rec;
            ASSERT_TRUE(decodeTickRecord(payload, &rec).ok());
            if (rec.ops.empty() || rec.ops[0].op != net::Opcode::RegisterApp)
                continue;
            // Magic, version, tick, start, the counted events and the
            // op count; then the op's session, request id, opcode, id,
            // value and name, and the share's solar and grid fields.
            const std::size_t flag = 4 + 4 + 8 + 8 + 4 +
                                     13 * rec.events.size() + 4 + 4 + 4 +
                                     1 + 4 + 8 + 4 +
                                     rec.ops[0].reg.name.size() + 8 + 8;
            ASSERT_EQ(payload[flag], 1);
            payload[flag] = 2;
            forged = true;
        }
        ASSERT_TRUE(forged);
        expectForgedWalRefused(recs);
    }
}

TEST(CkptRecovery, WalThatCannotReplayIsDataLossAndMutatesNothing)
{
    // A CRC-valid WAL missing a middle record after the snapshot:
    // replay would reach the gap only after applying the snapshot and
    // the records before it.
    {
        const std::string dir = makeStateDir();
        {
            WorldHarness a(dir); // snapshots every 4 ticks
            ASSERT_TRUE(a.mgr.recover().ok());
            ASSERT_TRUE(
                a.rig.eco.tryAddApp("t", testutil::appShare(0.3, 100.0))
                    .ok());
            a.runTo(11); // snapshot at tick 8, WAL holds ticks 8..10
        }
        std::vector<std::vector<std::uint8_t>> recs;
        ASSERT_TRUE(readRecords(dir + "/wal.eckw", &recs).ok());
        ASSERT_EQ(recs.size(), 3u);
        RecordWriter wal;
        ASSERT_TRUE(wal.open(dir + "/wal.eckw", FsyncPolicy::Never).ok());
        ASSERT_TRUE(wal.reset().ok());
        ASSERT_TRUE(wal.append(recs[0]).ok());
        ASSERT_TRUE(wal.append(recs[2]).ok());
        wal.close();

        WorldHarness b(dir);
        api::Status st;
        EXPECT_NO_THROW(st = b.mgr.recover());
        EXPECT_EQ(st.code(), api::ErrorCode::DataLoss) << st.message();
        EXPECT_EQ(b.tickCount(), 0);
        EXPECT_EQ(b.rig.eco.appCount(), 0u);
    }
    // A leased world's WAL beside a snapshot a world without a
    // transport front-end can apply: the session traffic has nowhere
    // to replay.
    {
        const std::string dir = makeStateDir();
        {
            WorldHarness a(dir, /*every=*/1000);
            ASSERT_TRUE(a.mgr.recover().ok());
            net::LoopbackTransport lt(&a.server);
            lt.setIdleHandler([&] { a.tick(); });
            net::Client c(&lt);
            ASSERT_TRUE(c.beginSession().ok());
            auto app = c.registerApp("t", testutil::appShare(0.3, 100.0));
            ASSERT_TRUE(app.ok());
            ASSERT_TRUE(c.spawnContainer(app.value(), 1.0).ok());
            a.runTo(4);
        }
        testutil::Rig rig;
        sim::Simulation simul(60);
        rig.eco.attach(simul);
        World w;
        w.sim = &simul;
        w.eco = &rig.eco;
        w.cluster = &rig.cluster;
        w.phys = &rig.phys;
        w.grid = &rig.grid;
        {
            // Serverless and one app strong, at tick 0.
            testutil::Rig donor;
            sim::Simulation donor_sim(60);
            ASSERT_TRUE(
                donor.eco.tryAddApp("quiet", testutil::appShare(0.3, 100.0))
                    .ok());
            World dw = w;
            dw.sim = &donor_sim;
            dw.eco = &donor.eco;
            dw.cluster = &donor.cluster;
            dw.phys = &donor.phys;
            dw.grid = &donor.grid;
            std::vector<std::uint8_t> payload;
            encodeSnapshot(payload, captureSnapshot(dw));
            ASSERT_TRUE(publishRecordFile(dir + "/snapshot.eckp", payload,
                                          FsyncPolicy::Never)
                            .ok());
        }
        CheckpointManager mgr(w, WorldHarness::ckptOpts(dir, 1000));
        api::Status st;
        EXPECT_NO_THROW(st = mgr.recover());
        EXPECT_EQ(st.code(), api::ErrorCode::DataLoss) << st.message();
        EXPECT_EQ(simul.clock().tickCount(), 0);
        EXPECT_EQ(rig.eco.appCount(), 0u);
    }
}

TEST(CkptRecovery, WalRepeatingACommittedRequestIsFatal)
{
    // A CRC-valid WAL whose batch carries the same request id twice
    // cannot have come from the live front door, which swallows a
    // duplicate of a queued id. Replay must refuse it rather than
    // commit it twice.
    const std::string dir = makeStateDir();
    {
        WorldHarness a(dir, /*every=*/1000);
        ASSERT_TRUE(a.mgr.recover().ok());
        net::LoopbackTransport lt(&a.server);
        lt.setIdleHandler([&] { a.tick(); });
        net::Client c(&lt);
        ASSERT_TRUE(c.beginSession().ok());
        auto app = c.registerApp("t", testutil::appShare(0.3, 100.0));
        ASSERT_TRUE(app.ok());
        ASSERT_TRUE(c.spawnContainer(app.value(), 1.0).ok());
        a.runTo(4);
    }
    std::vector<std::vector<std::uint8_t>> recs;
    ASSERT_TRUE(readRecords(dir + "/wal.eckw", &recs).ok());
    const std::string forged = makeStateDir();
    RecordWriter wal;
    ASSERT_TRUE(wal.open(forged + "/wal.eckw", FsyncPolicy::Never).ok());
    bool duplicated = false;
    for (const auto &payload : recs) {
        TickRecord rec;
        ASSERT_TRUE(decodeTickRecord(payload, &rec).ok());
        if (!duplicated && !rec.ops.empty()) {
            rec.ops.push_back(rec.ops.back());
            duplicated = true;
        }
        std::vector<std::uint8_t> out;
        encodeTickRecord(out, rec.tick, rec.start_s, rec.events, rec.ops);
        ASSERT_TRUE(wal.append(out).ok());
    }
    wal.close();
    ASSERT_TRUE(duplicated);

    WorldHarness b(forged, /*every=*/1000);
    EXPECT_THROW((void)b.mgr.recover(), FatalError);
}

TEST(CkptRecovery, TornWalTailReplaysThePrefix)
{
    const std::string dir = makeStateDir();
    {
        WorldHarness a(dir, /*every=*/1000);
        ASSERT_TRUE(a.mgr.recover().ok());
        a.runTo(6); // WAL records for ticks 0..5
    }

    WorldHarness b(dir, /*every=*/1000);
    const std::size_t n = fileSize(b.mgr.walPath());
    ASSERT_GT(n, 3u);
    // A crash mid-append: the last record loses its final bytes. The
    // torn tick never happened; everything before it replays.
    ASSERT_EQ(::truncate(b.mgr.walPath().c_str(),
                         static_cast<off_t>(n - 3)),
              0);
    ASSERT_TRUE(b.mgr.recover().ok());
    EXPECT_EQ(b.mgr.recoveredTick(), 5);
    EXPECT_EQ(b.mgr.replayedTicks(), 5);

    // And the recovered world keeps running deterministically.
    b.runTo(8);
    EXPECT_EQ(b.tickCount(), 8);
}

} // namespace
} // namespace ecov::ckpt
