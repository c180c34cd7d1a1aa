/**
 * @file
 * The snapshot decoder is total (docs/CHECKPOINT.md): a seeded
 * mutation pass over a small leased world's snapshot payload — byte
 * flips, truncations and extensions — must get Ok or DataLoss from
 * `decodeSnapshot` for every input, and never a throw or an abort. An
 * input it accepts must encode back to itself, since every field has
 * one encoding. Only the decoder is fuzzed: `applySnapshot` checks the
 * world-dependent rules after it. Runs under asan+ubsan and TSan with
 * the other `ckpt` suites.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "net/client.h"
#include "net/loopback.h"
#include "world_harness.h"

namespace ecov::ckpt {
namespace {

using testutil::WorldHarness;
using testutil::makeStateDir;

/** splitmix64: a seeded stream that is the same on every library. */
struct Rng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform enough in [0, n) for a test's mutation choices. */
    std::size_t below(std::size_t n) { return next() % n; }
};

/**
 * Two leased tenants with windows of up to 8 entries: ok, id and error
 * replies, one error naming a 256-byte app, and one window wrapped so
 * that capture rebases it.
 */
std::vector<std::uint8_t>
smallWorldSnapshot()
{
    WorldHarness h(makeStateDir(), /*every=*/1000, /*lease_ticks=*/8,
                   /*dedup_window=*/8);
    EXPECT_TRUE(h.mgr.recover().ok());
    std::vector<std::unique_ptr<net::LoopbackTransport>> links;
    std::vector<std::unique_ptr<net::Client>> clients;
    for (int i = 0; i < 2; ++i) {
        links.push_back(std::make_unique<net::LoopbackTransport>(&h.server));
        links.back()->setIdleHandler([&h] { h.tick(); });
        clients.push_back(std::make_unique<net::Client>(links.back().get()));
        EXPECT_TRUE(clients.back()->beginSession().ok());
    }
    net::Client &a = *clients[0];
    net::Client &b = *clients[1];
    const std::string long_name(net::kMaxAppNameBytes, 'f');
    auto app = a.registerApp(long_name, testutil::appShare(0.3, 100.0));
    EXPECT_TRUE(app.ok());
    auto cont = a.spawnContainer(app.value(), 1.0);
    EXPECT_TRUE(cont.ok());
    for (int i = 0; i < 12; ++i)
        EXPECT_TRUE(a.setDemand(cont.value(), 0.05 * i).ok());
    EXPECT_FALSE(a.setBatteryChargeRate(app.value(), -1.0).ok());
    EXPECT_FALSE(b.registerApp(long_name, testutil::appShare(0.1, 50.0)).ok());
    auto app_b = b.registerApp("fuzz-b", testutil::appShare(0.1, 50.0));
    EXPECT_TRUE(app_b.ok());
    EXPECT_TRUE(b.spawnContainer(app_b.value(), 0.5).ok());
    std::vector<std::uint8_t> payload;
    encodeSnapshot(payload, captureSnapshot(h.world()));
    return payload;
}

TEST(CkptSnapshotFuzz, MutatedPayloadsDecodeOkOrDataLoss)
{
    const std::vector<std::uint8_t> clean = smallWorldSnapshot();
    ASSERT_FALSE(HasFailure());
    {
        Snapshot snap;
        ASSERT_TRUE(decodeSnapshot(clean, &snap).ok());
        ASSERT_EQ(snap.server.sessions.size(), 2u);
        EXPECT_EQ(snap.server.sessions[0].done.ids.size(), 8u);
    }

    Rng rng{0x5eedf00dull};
    std::size_t accepted = 0, refused = 0;
    for (int i = 0; i < 3000; ++i) {
        std::vector<std::uint8_t> input = clean;
        switch (i % 3) {
          case 0: { // flip one to four bytes
            const std::size_t flips = 1 + rng.below(4);
            for (std::size_t f = 0; f < flips; ++f)
                input[rng.below(input.size())] ^=
                    static_cast<std::uint8_t>(1 + rng.below(255));
            break;
          }
          case 1: // truncate
            input.resize(rng.below(input.size()));
            break;
          case 2: { // extend with random bytes
            const std::size_t more = 1 + rng.below(64);
            for (std::size_t k = 0; k < more; ++k)
                input.push_back(static_cast<std::uint8_t>(rng.next()));
            break;
          }
        }
        Snapshot snap;
        api::Status st;
        ASSERT_NO_THROW(st = decodeSnapshot(input, &snap)) << "input " << i;
        if (st.ok()) {
            ++accepted;
            std::vector<std::uint8_t> again;
            encodeSnapshot(again, snap);
            EXPECT_EQ(again, input) << "input " << i;
        } else {
            ++refused;
            EXPECT_EQ(st.code(), api::ErrorCode::DataLoss)
                << "input " << i << ": " << st.message();
        }
    }
    // Most flips land in doubles and decode; every truncation and
    // extension is refused.
    EXPECT_GT(accepted, 0u);
    EXPECT_GE(refused, 2000u);
}

} // namespace
} // namespace ecov::ckpt
