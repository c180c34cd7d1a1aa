/**
 * @file
 * SocketTransport's per-thread queues with more than one thread: two
 * client threads, each pipelining pings over two connections of its
 * own, against a TcpServer polled on a third. Each thread's waits
 * write only its own queues, so every frame must still be answered
 * and the server must decode exactly the frames sent. Labelled
 * `threads`, so CI's TSan leg runs it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rig.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"

namespace ecov::net {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

constexpr int kClientThreads = 2;
constexpr int kConnsPerThread = 2;
constexpr int kRounds = 50;
constexpr int kPingsPerRound = 20;
constexpr std::uint64_t kFrames = static_cast<std::uint64_t>(
    kClientThreads * kConnsPerThread * kRounds * kPingsPerRound);

/** One client thread: every round pipelines pings on both of its
 *  connections, then awaits them all. Returns the pings answered. */
int
pingRounds(std::uint16_t port)
{
    std::vector<std::unique_ptr<SocketTransport>> socks;
    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < kConnsPerThread; ++c) {
        auto sock = SocketTransport::connect("127.0.0.1", port);
        if (!sock.ok())
            return 0;
        socks.push_back(std::move(sock.value()));
        clients.push_back(std::make_unique<Client>(socks.back().get()));
        clients.back()->setCallTimeout(5000);
    }
    int answered = 0;
    std::vector<std::uint32_t> reqs;
    for (int round = 0; round < kRounds; ++round) {
        reqs.clear();
        for (int i = 0; i < kPingsPerRound; ++i)
            for (const auto &client : clients)
                reqs.push_back(client->sendPing());
        for (std::size_t i = 0; i < reqs.size(); ++i)
            answered +=
                clients[i % kConnsPerThread]->await(reqs[i]).ok() ? 1 : 0;
    }
    return answered;
}

TEST(SocketThreads, TwoClientThreadsOfTwoConnectionsEach)
{
    testutil::Rig rig;
    ServerCore core(&rig.eco);
    auto created = TcpServer::create(&core, TcpServerOptions{});
    ASSERT_TRUE(created.ok()) << created.status().message();
    TcpServer &tcp = *created.value();
    const std::uint16_t port = tcp.port();

    std::atomic<bool> stop{false};
    std::thread server([&] {
        while (!stop.load())
            if (!tcp.poll(Clock::now() + 1ms))
                return;
    });
    std::atomic<int> answered{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kClientThreads; ++t)
        clients.emplace_back([&] { answered += pingRounds(port); });
    for (std::thread &t : clients)
        t.join();
    stop = true;
    server.join();

    EXPECT_EQ(static_cast<std::uint64_t>(answered.load()), kFrames);
    EXPECT_EQ(core.stats().frames_decoded, kFrames);
    EXPECT_EQ(core.stats().immediate_replies, kFrames);
}

} // namespace
} // namespace ecov::net
