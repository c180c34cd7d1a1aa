/**
 * @file
 * Replies replay byte for byte across a snapshot (docs/CHECKPOINT.md,
 * docs/FAULTS.md): a leased loopback world records every frame its
 * tenants receive, for traffic that covers all eight coalesced opcodes
 * with ok, id and error replies, one of them a DuplicateApp error
 * whose message needs both bytes of its u16 length. The world
 * snapshots, a fresh world recovers it, and each tenant resumes and
 * retransmits every request id still in its dedup window. Each
 * replayed frame must equal the recorded one. The suite drives the
 * server through raw frames only, so it holds whatever layout the
 * window keeps its replies in, in memory or on disk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/loopback.h"
#include "net/protocol.h"
#include "net/wire.h"
#include "world_harness.h"

namespace ecov::ckpt {
namespace {

using testutil::WorldHarness;
using testutil::makeStateDir;

constexpr std::uint32_t kWindow = 32;

/** One whole frame as the wire carries it, header included. */
using FrameBytes = std::vector<std::uint8_t>;

/** Split a byte stream into whole frames keyed by request id. */
void
splitFrames(const std::vector<std::uint8_t> &stream,
            std::vector<std::pair<std::uint32_t, FrameBytes>> *out)
{
    std::size_t off = 0;
    while (off < stream.size()) {
        ASSERT_GE(stream.size() - off, net::kFrameHeaderBytes);
        net::WireReader r(stream.data() + off, stream.size() - off);
        std::uint16_t magic = 0;
        std::uint8_t version = 0, opcode = 0;
        std::uint32_t id = 0, len = 0;
        ASSERT_TRUE(r.u16(magic) && r.u8(version) && r.u8(opcode) &&
                    r.u32(id) && r.u32(len));
        ASSERT_EQ(magic, net::kFrameMagic);
        ASSERT_LE(len, r.remaining());
        const std::size_t end = off + net::kFrameHeaderBytes + len;
        out->emplace_back(id, FrameBytes(stream.begin() + off,
                                         stream.begin() + end));
        off = end;
    }
}

/**
 * A tenant that speaks raw frames over a loopback connection: it keeps
 * each request frame it sent and each reply frame it received, by
 * request id.
 */
struct RawTenant
{
    std::unique_ptr<net::LoopbackTransport> transport;
    std::uint32_t next_id = 1;
    std::uint64_t token = 0;
    std::map<std::uint32_t, FrameBytes> requests;
    std::map<std::uint32_t, FrameBytes> replies;

    /** A fresh connection (the previous one, if any, closes). */
    void
    connect(net::ServerCore *server)
    {
        transport = std::make_unique<net::LoopbackTransport>(server);
    }

    /** Send one request that `encode` appends under a fresh id. */
    template <class Encode>
    std::uint32_t
    send(Encode encode)
    {
        const std::uint32_t id = next_id++;
        FrameBytes frame;
        encode(frame, id);
        EXPECT_TRUE(transport->send(frame.data(), frame.size()).ok());
        requests.emplace(id, std::move(frame));
        return id;
    }

    /** Every frame the server has queued for this connection. */
    std::vector<std::pair<std::uint32_t, FrameBytes>>
    receive()
    {
        std::vector<std::uint8_t> stream;
        EXPECT_TRUE(transport->receiveSome(stream).ok());
        std::vector<std::pair<std::uint32_t, FrameBytes>> frames;
        splitFrames(stream, &frames);
        return frames;
    }

    /** Record every reply queued so far; each id answers once. */
    void
    collect()
    {
        for (auto &[id, frame] : receive())
            EXPECT_TRUE(replies.emplace(id, std::move(frame)).second)
                << "request " << id << " answered twice";
    }
};

/** The u16 at `off` of a frame's payload. */
std::uint16_t
payloadU16(const FrameBytes &frame, std::size_t off)
{
    const std::size_t at = net::kFrameHeaderBytes + off;
    return static_cast<std::uint16_t>(frame[at] | frame[at + 1] << 8);
}

core::AppShareConfig
batteryShare()
{
    return testutil::appShare(0.2, 100.0);
}

core::AppShareConfig
plainShare()
{
    core::AppShareConfig s;
    s.solar_fraction = 0.1;
    s.grid_max_w = 40.0;
    return s;
}

TEST(CkptReplayBytes, RepliesReplayByteForByteAcrossASnapshot)
{
    using net::Opcode;
    const std::string dir = makeStateDir();
    const std::string long_name(net::kMaxAppNameBytes, 'n');
    std::vector<std::uint32_t> window_a, window_b;
    RawTenant a, b;

    {
        // No snapshot cadence: the one snapshot is the one forced below.
        WorldHarness h(dir, /*every=*/1000, /*lease_ticks=*/64, kWindow);
        ASSERT_TRUE(h.mgr.recover().ok());
        a.connect(&h.server);
        b.connect(&h.server);
        for (RawTenant *t : {&a, &b}) {
            t->send([](FrameBytes &f, std::uint32_t id) {
                net::encodeSessionInfo(f, id);
            });
            const auto frames = t->receive();
            ASSERT_EQ(frames.size(), 1u);
            const FrameBytes &info = frames[0].second;
            net::ResponseHead head;
            std::size_t at = 0;
            std::uint16_t version = 0;
            std::uint32_t lease = 0, window = 0;
            const std::uint8_t *payload =
                info.data() + net::kFrameHeaderBytes;
            const std::size_t len = info.size() - net::kFrameHeaderBytes;
            ASSERT_TRUE(net::decodeResponseHead(payload, len, &head, &at));
            ASSERT_TRUE(net::decodeSessionInfoResult(
                payload, len, at, &version, &t->token, &lease, &window));
            ASSERT_NE(t->token, 0u);
            ASSERT_EQ(window, kWindow);
            t->requests.clear();
        }
        const auto registerApp = [](const std::string &name,
                                    const core::AppShareConfig &share) {
            return [name, share](FrameBytes &f, std::uint32_t id) {
                net::encodeRegisterApp(f, id, {name, share});
            };
        };
        const auto idValue = [](Opcode op, std::uint32_t local, double v) {
            return [op, local, v](FrameBytes &f, std::uint32_t id) {
                net::encodeIdValue(f, op, id, {local, v});
            };
        };
        const auto destroy = [](std::uint32_t local) {
            return [local](FrameBytes &f, std::uint32_t id) {
                net::encodeIdOnly(f, Opcode::DestroyContainer, id, local);
            };
        };
        const auto capBatch = [](std::vector<net::CapEntry> caps) {
            return [caps](FrameBytes &f, std::uint32_t id) {
                net::encodeCapBatch(f, id, caps);
            };
        };

        // Tick 1: tenant a registers app 0 and spawns container 0.
        a.send(registerApp("replay-a", batteryShare()));
        a.send(idValue(Opcode::SpawnContainer, 0, 1.0));
        h.tick();
        a.collect();

        // Ticks 2-4: 60 demand changes, so a's window evicts and
        // compacts and the snapshot captures it from mid-storage.
        for (int t = 0; t < 3; ++t) {
            for (int i = 0; i < 20; ++i)
                a.send(idValue(Opcode::SetDemand, 0, 0.01 * (20 * t + i)));
            h.tick();
            a.collect();
        }

        // Tick 5: every coalesced opcode with an ok or id reply and
        // with an error reply. App 1 has no battery and is named with
        // the longest name a request may carry.
        a.send(registerApp(long_name, plainShare()));           // id
        a.send(idValue(Opcode::SpawnContainer, 0, 2.0));        // id
        a.send(idValue(Opcode::SpawnContainer, 9, 1.0));        // bad app
        a.send(idValue(Opcode::SpawnContainer, 0, -1.0));       // bad cores
        a.send(idValue(Opcode::SetDemand, 1, 0.5));             // ok
        a.send(idValue(Opcode::SetDemand, 99, 0.5));            // bad id
        a.send(idValue(Opcode::SetPowercap, 1, 3.0));           // ok
        a.send(idValue(Opcode::SetPowercap, 1, -1.0));          // refused
        a.send(capBatch({{0, 2.0}, {1, 2.5}}));                 // ok
        a.send(capBatch({{42, 1.0}}));                          // bad id
        a.send(idValue(Opcode::SetChargeRate, 0, 10.0));        // ok
        a.send(idValue(Opcode::SetChargeRate, 0, -1.0));        // negative
        a.send(idValue(Opcode::SetMaxDischarge, 0, 20.0));      // ok
        a.send(idValue(Opcode::SetMaxDischarge, 0, -5.0));      // negative
        a.send(destroy(1));                                     // ok
        a.send(destroy(1));                                     // gone
        a.send(destroy(7));                                     // bad id
        a.send(idValue(Opcode::SetDemand, 1, 0.5));             // gone
        b.send(registerApp("replay-b", batteryShare()));
        b.send(idValue(Opcode::SpawnContainer, 0, 1.5));
        h.tick();
        a.collect();
        b.collect();

        // Tick 6: tenant b registers a's long name (DuplicateApp, whose
        // message is over 255 bytes) and works its own container.
        b.send(registerApp(long_name, plainShare()));
        b.send(idValue(Opcode::SetDemand, 0, 0.25));
        b.send(idValue(Opcode::SetChargeRate, 0, 5.0));
        h.tick();
        b.collect();

        ASSERT_EQ(a.replies.size(), a.requests.size());
        ASSERT_EQ(b.replies.size(), b.requests.size());
        ASSERT_GT(a.requests.size(), 2 * kWindow);
        ASSERT_LT(b.requests.size(), kWindow);

        ASSERT_TRUE(h.mgr.writeSnapshot().ok());
        for (const RawTenant *t : {&a, &b}) {
            std::vector<std::uint32_t> &w = t == &a ? window_a : window_b;
            auto it = t->requests.begin();
            std::advance(it, t->requests.size() -
                                 std::min<std::size_t>(kWindow,
                                                       t->requests.size()));
            for (; it != t->requests.end(); ++it)
                w.push_back(it->first);
        }

        // What the replies in the windows cover: every coalesced
        // opcode, ok, id and error replies, and a message length over
        // 255.
        std::set<std::uint8_t> opcodes;
        bool ok = false, id_reply = false, error = false, long_msg = false;
        for (const RawTenant *t : {&a, &b}) {
            for (std::uint32_t id : t == &a ? window_a : window_b) {
                const FrameBytes &frame = t->replies.at(id);
                opcodes.insert(frame[3]);
                const std::size_t len =
                    frame.size() - net::kFrameHeaderBytes;
                const std::uint16_t status = payloadU16(frame, 0);
                ok |= status == 0 && len == 2;
                id_reply |= status == 0 && len == 6;
                if (status != 0) {
                    error = true;
                    long_msg |= payloadU16(frame, 2) > 255;
                }
            }
        }
        EXPECT_EQ(opcodes.size(), 8u);
        EXPECT_TRUE(ok);
        EXPECT_TRUE(id_reply);
        EXPECT_TRUE(error);
        EXPECT_TRUE(long_msg);
        a.transport.reset();
        b.transport.reset();
    }

    // A fresh world recovers the snapshot. Each tenant resumes on a new
    // connection and retransmits every id in its window.
    WorldHarness r(dir, /*every=*/1000, /*lease_ticks=*/64, kWindow);
    ASSERT_TRUE(r.mgr.recover().ok());
    ASSERT_EQ(r.server.detachedSessionCount(), 2u);
    for (RawTenant *t : {&a, &b}) {
        const std::vector<std::uint32_t> &w = t == &a ? window_a : window_b;
        SCOPED_TRACE(t == &a ? "tenant a" : "tenant b");
        t->connect(&r.server);
        FrameBytes resume;
        net::encodeResume(resume, t->next_id, t->token);
        ASSERT_TRUE(t->transport->send(resume.data(), resume.size()).ok());
        for (std::uint32_t id : w) {
            const FrameBytes &req = t->requests.at(id);
            ASSERT_TRUE(t->transport->send(req.data(), req.size()).ok());
        }
        const auto frames = t->receive();
        ASSERT_EQ(frames.size(), w.size() + 1);
        EXPECT_EQ(frames[0].first, t->next_id);
        EXPECT_EQ(payloadU16(frames[0].second, 0), 0u) << "resume";
        for (std::size_t k = 0; k < w.size(); ++k) {
            EXPECT_EQ(frames[k + 1].first, w[k]);
            EXPECT_EQ(frames[k + 1].second, t->replies.at(w[k]))
                << "request " << w[k];
        }
        t->transport.reset();
    }
    EXPECT_EQ(r.server.stats().duplicates_replayed,
              window_a.size() + window_b.size());
    EXPECT_EQ(r.server.stats().coalesced_committed, 0u);
}

} // namespace
} // namespace ecov::ckpt
