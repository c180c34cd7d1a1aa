/**
 * @file
 * Known answers for the session plane's durable bytes
 * (docs/CHECKPOINT.md): a seeded, leased world with a 4-entry dedup
 * window runs traffic that covers every mutating opcode and every
 * session-event kind — a disconnect and Resume (the DiscardVirgin
 * id hand-back), a takeover and a lease expiry — and the snapshot
 * digest at three ticks plus the FNV-1a 64 of every WAL record payload
 * must equal the values pinned here, and so must the FNV-1a 64 of the
 * raw WAL and snapshot files, whose record headers carry each payload's
 * CRC-32. A change to the request path, the session tables, the wire
 * writer or the checksum that moves one byte of a snapshot or the log
 * fails this suite, whatever the round trip still accepts.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ckpt/record_io.h"
#include "ckpt/snapshot.h"
#include "net/client.h"
#include "net/loopback.h"
#include "world_harness.h"

namespace ecov::ckpt {
namespace {

using testutil::WorldHarness;
using testutil::makeStateDir;
using testutil::slurp;

std::uint64_t
fnv1a64(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

/** A loopback tenant whose blocking calls settle one harness tick. */
struct Tenant
{
    std::unique_ptr<net::LoopbackTransport> transport;
    net::Client client;

    explicit Tenant(WorldHarness &h)
        : transport(std::make_unique<net::LoopbackTransport>(&h.server)),
          client(transport.get())
    {
        transport->setIdleHandler([&h] { h.tick(); });
    }

    /** A fresh connection for the same client (then resume()). */
    void
    reconnect(WorldHarness &h)
    {
        auto fresh = std::make_unique<net::LoopbackTransport>(&h.server);
        fresh->setIdleHandler([&h] { h.tick(); });
        client.bindTransport(fresh.get());
        transport = std::move(fresh);
    }
};

// The snapshot values are snapshot revision 2's, whose dedup windows
// keep replies as columns; the WAL values predate the flat session
// tables and the word-at-a-time wire writer. A change of layout must
// not move them.
constexpr std::array<std::uint64_t, 3> kDigests = {
    0x987ac855a7e4c86dull,
    0x5e2978ba8b289ad0ull,
    0x9840fb6efe4b0a2aull,
};
/** FNV-1a 64 of each WAL record payload, one per tick, in file order. */
constexpr std::array<std::uint64_t, 23> kWalRecords = {
    0x7328e1c79a2ff733ull, 0x4f7ef11257c5778eull,
    0x2426c555809869a0ull, 0x41a9e331c87a530bull,
    0xb659406d3355315full, 0x93785c5a0891348aull,
    0xbf558091b27d16a9ull, 0xa318faf8b97a79c8ull,
    0xe3f007cbb841ba24ull, 0x9ecf748ab7297decull,
    0x40c411fe7e2b6778ull, 0x9757dd1cf319a4d8ull,
    0x9883fe7e144fb5c4ull, 0x753e70cdc986065bull,
    0x464e85129111be1eull, 0xe87df270cbfc4c4cull,
    0xf21289cdb1b672c9ull, 0xcad71548f0307f10ull,
    0xcb0ab82cea499978ull, 0xf8a6d1141c44be49ull,
    0x8d1e998800b5d302ull, 0xffdd3d62d9229a57ull,
    0x2e1385e6b3b89dd7ull,
};
/** FNV-1a 64 of the whole files, 8-byte record headers included, as
 *  the slicing-by-8 checksum wrote them. */
constexpr std::uint64_t kWalFile = 0xaf7b96572baa4bfeull;
constexpr std::uint64_t kSnapshotFile = 0xf675d836b16cf618ull;

TEST(CkptGoldenBytes, SnapshotAndWalBytesArePinned)
{
    constexpr std::uint32_t kLease = 3;
    constexpr std::uint32_t kWindow = 4;
    const std::string dir = makeStateDir();
    // No snapshot cadence: the WAL keeps every record of the run.
    WorldHarness h(dir, /*every=*/1000, kLease, kWindow);
    ASSERT_TRUE(h.mgr.recover().ok());
    std::vector<std::uint64_t> digests;

    // Tenant a: every mutating opcode, 11 commits, so the 4-entry
    // window wraps and compacts.
    Tenant a(h);
    net::Client &ca = a.client;
    ASSERT_TRUE(ca.beginSession().ok());
    auto batt = ca.registerApp("golden-a", testutil::appShare(0.4, 300.0));
    core::AppShareConfig plain;
    plain.solar_fraction = 0.2;
    plain.grid_max_w = 50.0;
    auto bare = ca.registerApp("golden-a2", plain);
    ASSERT_TRUE(batt.ok());
    ASSERT_TRUE(bare.ok());
    auto c0 = ca.spawnContainer(batt.value(), 1.0);
    auto c1 = ca.spawnContainer(batt.value(), 2.0);
    auto c2 = ca.spawnContainer(bare.value(), 0.5);
    ASSERT_TRUE(c0.ok() && c1.ok() && c2.ok());
    ASSERT_TRUE(ca.setDemand(c0.value(), 0.75).ok());
    ASSERT_TRUE(ca.setContainerPowercap(c1.value(), 3.5).ok());
    ASSERT_TRUE(
        ca.applyCapBatch({{c0.value(), 2.0}, {c2.value(), 1.25}}).ok());
    ASSERT_TRUE(ca.setBatteryChargeRate(batt.value(), 20.0).ok());
    ASSERT_TRUE(ca.setBatteryMaxDischarge(batt.value(), 60.0).ok());
    ASSERT_TRUE(ca.destroyContainer(c2.value()).ok());

    // Tenant b opens after a; its ops reach the wire first in a shared
    // tick and still commit after a's.
    Tenant b(h);
    net::Client &cb = b.client;
    ASSERT_TRUE(cb.beginSession().ok());
    const std::uint32_t rb =
        cb.sendRegisterApp("golden-b", testutil::appShare(0.1, 120.0));
    const std::uint32_t ra1 = ca.sendSetDemand(c0.value(), 1.5);
    const std::uint32_t ra2 = ca.sendSetDemand(c1.value(), 0.25);
    auto app_b = cb.awaitApp(rb);
    ASSERT_TRUE(app_b.ok());
    ASSERT_TRUE(ca.await(ra1).ok());
    ASSERT_TRUE(ca.await(ra2).ok());
    auto cont_b = cb.spawnContainer(app_b.value(), 1.0);
    ASSERT_TRUE(cont_b.ok());
    digests.push_back(h.mgr.digest());

    // Tenant a disconnects (Detach), misses a tick, and resumes on a
    // fresh connection: the virgin session's id goes back to the
    // allocator (DiscardVirgin), then a mutates through its old ids.
    a.transport.reset();
    h.tick();
    a.reconnect(h);
    ASSERT_TRUE(ca.resume().ok());
    ASSERT_TRUE(ca.setDemand(c1.value(), 2.25).ok());

    // Tenant b's peer dies silently: a Resume from a fresh connection
    // takes the session over, and the transport closes the kicked
    // connection, destroying the empty shell it was handed.
    auto stale = std::move(b.transport);
    b.reconnect(h);
    ASSERT_TRUE(cb.resume().ok());
    const std::vector<net::ConnId> kicked = h.server.takeKicked();
    ASSERT_EQ(kicked.size(), 1u);
    h.server.closeConnection(kicked.front());
    stale.reset();
    ASSERT_TRUE(cb.setDemand(cont_b.value(), 0.5).ok());
    digests.push_back(h.mgr.digest());

    // Tenant c registers, spawns and vanishes; its lease runs out and
    // revocation destroys its container.
    {
        Tenant c(h);
        ASSERT_TRUE(c.client.beginSession().ok());
        auto app_c =
            c.client.registerApp("golden-c", testutil::appShare(0.1, 60.0));
        ASSERT_TRUE(app_c.ok());
        ASSERT_TRUE(c.client.spawnContainer(app_c.value(), 0.5).ok());
    }
    const std::uint64_t expired = h.server.stats().leases_expired;
    h.runTo(h.tickCount() + kLease + 1);
    ASSERT_EQ(h.server.stats().leases_expired, expired + 1);
    ASSERT_TRUE(ca.setDemand(c0.value(), 0.5).ok());
    digests.push_back(h.mgr.digest());

    // Every WAL record of the run, read back through the record layer;
    // together they must cover every mutating opcode and every
    // session-event kind.
    std::vector<std::vector<std::uint8_t>> recs;
    ASSERT_TRUE(readRecords(h.mgr.walPath(), &recs).ok());
    std::vector<std::uint64_t> wal;
    std::set<net::Opcode> ops;
    std::set<net::SessionEvent::Kind> kinds;
    bool bare_register = false;
    for (const auto &payload : recs) {
        wal.push_back(fnv1a64(payload));
        TickRecord rec;
        ASSERT_TRUE(decodeTickRecord(payload, &rec).ok());
        for (const auto &op : rec.ops) {
            ops.insert(op.op);
            bare_register |= op.op == net::Opcode::RegisterApp &&
                             !op.reg.share.battery.has_value();
        }
        for (const net::SessionEvent &ev : rec.events)
            kinds.insert(ev.kind);
    }
    EXPECT_EQ(ops.size(), 8u);
    EXPECT_TRUE(bare_register);
    EXPECT_EQ(kinds.size(), 5u);
    const std::uint64_t wal_file = fnv1a64(slurp(h.mgr.walPath()));

    // The snapshot file holds exactly the digested encoding.
    ASSERT_TRUE(h.mgr.writeSnapshot().ok());
    std::vector<std::vector<std::uint8_t>> snap;
    ASSERT_TRUE(readRecords(h.mgr.snapshotPath(), &snap).ok());
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(fnv1a64(snap[0]), digests.back());
    const std::uint64_t snapshot_file =
        fnv1a64(slurp(h.mgr.snapshotPath()));

    ASSERT_EQ(digests.size(), kDigests.size());
    for (std::size_t i = 0; i < kDigests.size(); ++i)
        EXPECT_EQ(digests[i], kDigests[i]) << "digest " << i;
    ASSERT_EQ(wal.size(), kWalRecords.size());
    for (std::size_t i = 0; i < kWalRecords.size(); ++i)
        EXPECT_EQ(wal[i], kWalRecords[i]) << "WAL record " << i;
    EXPECT_EQ(wal_file, kWalFile) << std::hex << wal_file;
    EXPECT_EQ(snapshot_file, kSnapshotFile) << std::hex << snapshot_file;
}

} // namespace
} // namespace ecov::ckpt
