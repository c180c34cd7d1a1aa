/**
 * @file
 * The TCP layer over real loopback sockets: TcpServer's deadline wait
 * (an idle wait sleeps to its deadline at nanosecond precision and
 * costs one wakeup, a passed deadline never blocks, socket activity
 * ends the wait early), connection teardown on peer close, and the
 * client's call deadlines, which must never fire early.
 */

#include <gtest/gtest.h>

#include <time.h>

#include <chrono>
#include <memory>

#include "common/rig.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"

namespace ecov::net {
namespace {

using namespace std::chrono_literals;
using api::ErrorCode;
using testutil::Rig;
using Clock = std::chrono::steady_clock;

/** CPU time the whole process has used so far. */
std::chrono::nanoseconds
processCpu()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return std::chrono::seconds(ts.tv_sec) +
           std::chrono::nanoseconds(ts.tv_nsec);
}

/** A ServerCore behind a TcpServer on an OS-picked loopback port. The
 *  test thread is the daemon: nothing is served unless it polls. */
class TcpServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        auto created = TcpServer::create(&core_, TcpServerOptions{});
        ASSERT_TRUE(created.ok()) << created.status().message();
        tcp_ = std::move(created.value());
    }

    std::unique_ptr<SocketTransport>
    connect()
    {
        auto sock = SocketTransport::connect("127.0.0.1", tcp_->port());
        EXPECT_TRUE(sock.ok()) << sock.status().message();
        return sock.ok() ? std::move(sock.value()) : nullptr;
    }

    /** Serve until `done()` holds or `deadline` passes; returns done(). */
    template <class Done>
    bool
    serveUntil(Done done, Clock::time_point deadline)
    {
        while (!done() && Clock::now() < deadline)
            if (!tcp_->poll(deadline))
                return false;
        return done();
    }

    Rig rig_;
    ServerCore core_{&rig_.eco};
    std::unique_ptr<TcpServer> tcp_;
};

TEST_F(TcpServerTest, IdleWaitSleepsToTheDeadline)
{
    // A fractional-millisecond deadline: a wait that truncated to
    // whole milliseconds would spin through the last 0.9 ms.
    const std::chrono::nanoseconds cpu0 = processCpu();
    const Clock::time_point deadline = Clock::now() + 20900us;
    ASSERT_TRUE(tcp_->poll(deadline));
    const Clock::time_point woke = Clock::now();
    const std::chrono::nanoseconds cpu = processCpu() - cpu0;

    EXPECT_GE(woke, deadline);
    EXPECT_LT(cpu, 300us) << "an idle wait should cost one wakeup";
}

TEST_F(TcpServerTest, PassedDeadlineDoesNotBlock)
{
    const Clock::time_point start = Clock::now();
    EXPECT_TRUE(tcp_->poll(start - 10s));
    EXPECT_TRUE(tcp_->poll(Clock::time_point{}));
    EXPECT_LT(Clock::now() - start, 1s);
}

TEST_F(TcpServerTest, PingEndsTheWaitAndIsAnswered)
{
    auto sock = connect();
    ASSERT_NE(sock, nullptr);
    Client client(sock.get());
    const std::uint32_t req = client.sendPing();

    // One wait wakes for the connection, the next for the ping's
    // bytes; the reply is flushed in the same round it is read.
    const Clock::time_point start = Clock::now();
    ASSERT_TRUE(serveUntil(
        [&] { return core_.stats().immediate_replies == 1; },
        start + 1s));
    EXPECT_LT(Clock::now() - start, 500ms);

    client.setCallTimeout(1000);
    EXPECT_TRUE(client.await(req).ok());
}

TEST_F(TcpServerTest, PeerCloseDropsTheConnection)
{
    auto sock = connect();
    ASSERT_NE(sock, nullptr);
    ASSERT_TRUE(serveUntil([&] { return tcp_->connectionCount() == 1; },
                           Clock::now() + 1s));

    sock.reset();
    EXPECT_TRUE(serveUntil([&] { return tcp_->connectionCount() == 0; },
                           Clock::now() + 1s));
}

TEST_F(TcpServerTest, ClientCallDeadlineNeverFiresEarly)
{
    auto sock = connect();
    ASSERT_NE(sock, nullptr);
    Client client(sock.get());
    // A mutation is answered at the next tick's commit, and this
    // server never ticks: the request is read, queued, and never
    // answered.
    const std::uint32_t req =
        client.sendRegisterApp("silent", core::AppShareConfig{});
    ASSERT_TRUE(serveUntil([&] { return core_.stats().frames_decoded == 1; },
                           Clock::now() + 1s));

    for (const int ms : {1, 2, 5}) {
        client.setCallTimeout(ms);
        const Clock::time_point start = Clock::now();
        const api::Result<RemoteApp> app = client.awaitApp(req);
        const Clock::duration waited = Clock::now() - start;

        EXPECT_EQ(app.status().code(), ErrorCode::DeadlineExceeded)
            << "timeout " << ms << " ms";
        EXPECT_GE(waited, std::chrono::milliseconds(ms))
            << "timeout " << ms << " ms fired early";
        EXPECT_TRUE(client.connectionError().ok());
    }
}

} // namespace
} // namespace ecov::net
