/**
 * @file
 * The TCP layer over real loopback sockets: TcpServer's deadline wait
 * (an idle wait sleeps to its deadline at nanosecond precision and
 * costs one wakeup, a passed deadline never blocks, socket activity
 * ends the wait early), connection teardown on peer close, the
 * client's call deadlines, which must never fire early, and when a
 * client's queued frames leave: at its thread's first wait, once the
 * queue reaches 64 KiB, and when the transport is destroyed.
 */

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

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

/**
 * A plain listening socket on an OS-picked loopback port. Reading from
 * what it accepts runs none of the socket layer, so unlike a
 * TcpServer::poll it writes no client queue.
 */
class RawListener
{
  public:
    RawListener()
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof addr;
        EXPECT_EQ(::bind(fd_, reinterpret_cast<sockaddr *>(&addr), len), 0);
        EXPECT_EQ(::listen(fd_, 8), 0);
        EXPECT_EQ(
            ::getsockname(fd_, reinterpret_cast<sockaddr *>(&addr), &len),
            0);
        port_ = ntohs(addr.sin_port);
    }
    ~RawListener() { ::close(fd_); }
    RawListener(const RawListener &) = delete;
    RawListener &operator=(const RawListener &) = delete;

    /** A client connected to this listener. */
    std::unique_ptr<SocketTransport>
    connect()
    {
        auto sock = SocketTransport::connect("127.0.0.1", port_);
        EXPECT_TRUE(sock.ok()) << sock.status().message();
        return sock.ok() ? std::move(sock.value()) : nullptr;
    }

    /** The peer end of the oldest connection (connect() returned, so
     *  the kernel has it queued and this does not block). */
    int
    accept()
    {
        const int fd = ::accept(fd_, nullptr, nullptr);
        EXPECT_GE(fd, 0);
        return fd;
    }

  private:
    int fd_ = -1;
    std::uint16_t port_ = 0;
};

/** True when `fd` has bytes (or EOF) to read right now. */
bool
readable(int fd)
{
    pollfd p{fd, POLLIN, 0};
    return ::poll(&p, 1, 0) == 1;
}

/** What a peer read: bytes until `want`, EOF, or a second of silence. */
struct PeerRead
{
    std::size_t bytes = 0;
    bool eof = false;
};

PeerRead
readFor(int fd, std::size_t want)
{
    PeerRead got;
    std::vector<std::uint8_t> chunk(65536);
    while (got.bytes < want) {
        pollfd p{fd, POLLIN, 0};
        if (::poll(&p, 1, 1000) != 1)
            break;
        const ssize_t r = ::recv(fd, chunk.data(), chunk.size(), 0);
        if (r <= 0) {
            got.eof = r == 0;
            break;
        }
        got.bytes += static_cast<std::size_t>(r);
    }
    return got;
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

TEST_F(TcpServerTest, QueuedFramesLeaveAtTheThreadsFirstWait)
{
    auto a = connect();
    auto b = connect();
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_TRUE(serveUntil([&] { return tcp_->connectionCount() == 2; },
                           Clock::now() + 1s));
    Client ca(a.get()), cb(b.get());
    constexpr std::uint64_t kPings = 40;
    std::vector<std::uint32_t> reqs;
    for (std::uint64_t i = 0; i < kPings; ++i) {
        reqs.push_back(ca.sendPing());
        reqs.push_back(cb.sendPing());
    }

    // Another thread's wait writes that thread's queues, not these.
    std::thread([&] { EXPECT_TRUE(tcp_->poll(Clock::now())); }).join();
    EXPECT_EQ(core_.stats().frames_decoded, 0u);

    // This thread's first wait writes both: one read per connection.
    const TcpServerStats before = tcp_->stats();
    ASSERT_TRUE(serveUntil(
        [&] { return core_.stats().frames_decoded == 2 * kPings; },
        Clock::now() + 1s));
    EXPECT_EQ(tcp_->stats().reads - before.reads, 2u);
    EXPECT_EQ(tcp_->stats().writes - before.writes, 2u);

    ca.setCallTimeout(1000);
    cb.setCallTimeout(1000);
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_TRUE((i % 2 == 0 ? ca : cb).await(reqs[i]).ok()) << i;
}

TEST(SocketTransportTest, FullQueueLeavesWithoutAWait)
{
    RawListener peer;
    auto t = peer.connect();
    ASSERT_NE(t, nullptr);
    const int fd = peer.accept();
    const std::vector<std::uint8_t> chunk(1024, 0x5A);
    const std::size_t chunks = SocketTransport::kMaxQueuedBytes / chunk.size();

    for (std::size_t i = 0; i + 1 < chunks; ++i)
        ASSERT_TRUE(t->send(chunk.data(), chunk.size()).ok());
    EXPECT_FALSE(readable(fd)) << "under 64 KiB waits for a wait";
    ASSERT_TRUE(t->send(chunk.data(), chunk.size()).ok());
    EXPECT_EQ(readFor(fd, SocketTransport::kMaxQueuedBytes).bytes,
              SocketTransport::kMaxQueuedBytes);
    ::close(fd);
}

TEST(SocketTransportTest, DestroyDeliversTheQueueThenEof)
{
    RawListener peer;
    auto t = peer.connect();
    ASSERT_NE(t, nullptr);
    const int fd = peer.accept();
    const std::vector<std::uint8_t> frame(300, 0x11);
    ASSERT_TRUE(t->send(frame.data(), frame.size()).ok());
    EXPECT_FALSE(readable(fd));

    t.reset();
    const PeerRead got = readFor(fd, SIZE_MAX);
    EXPECT_EQ(got.bytes, frame.size());
    EXPECT_TRUE(got.eof);
    ::close(fd);
}

TEST(SocketTransportTest, FailedFlushStaysOnItsTransport)
{
    RawListener peer;
    auto a = peer.connect();
    ASSERT_NE(a, nullptr);
    const int fa = peer.accept();
    auto b = peer.connect();
    ASSERT_NE(b, nullptr);
    const int fb = peer.accept();
    // Linger 0: the close resets b's connection. b's receive, with
    // nothing queued, waits for the reset to land.
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(fb, SOL_SOCKET, SO_LINGER, &reset, sizeof reset),
              0);
    ::close(fb);
    std::vector<std::uint8_t> buf;
    ASSERT_EQ(b->receiveSome(buf, 5000).code(), ErrorCode::Unavailable);

    const std::uint8_t frame[16] = {};
    ASSERT_TRUE(b->send(frame, sizeof frame).ok()) << "only queued";
    ASSERT_TRUE(a->send(frame, sizeof frame).ok());

    // a's wait writes b's queue too; b's write fails, and a's wait
    // still waits.
    EXPECT_EQ(a->receiveSome(buf, 5).code(), ErrorCode::DeadlineExceeded);
    EXPECT_EQ(readFor(fa, sizeof frame).bytes, sizeof frame);

    // b's next call returns the failure, and so does every later one.
    const api::Status st = b->send(frame, sizeof frame);
    EXPECT_EQ(st.code(), ErrorCode::Unavailable);
    EXPECT_EQ(st.message().rfind("send: ", 0), 0u) << st.message();
    EXPECT_EQ(b->receiveSome(buf, 5).message(), st.message());
    EXPECT_TRUE(a->send(frame, sizeof frame).ok());
    ::close(fa);
}

TEST(SocketTransportDeathTest, DestroyOnAnotherThreadIsFatal)
{
    EXPECT_DEATH(
        {
            RawListener peer;
            auto t = peer.connect();
            const std::uint8_t frame[16] = {};
            (void)t->send(frame, sizeof frame);
            std::thread([&] { t.reset(); }).join();
        },
        "second thread");
}

} // namespace
} // namespace ecov::net
