#include "net/socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace ecov::net {

namespace {

using Clock = std::chrono::steady_clock;

api::Status
sysError(const char *what)
{
    return api::Status::error(api::ErrorCode::Unavailable,
                              std::string(what) + ": " +
                                  std::strerror(errno));
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/**
 * The socket layer's one wait: ppoll(2) on `fds` until `deadline`, at
 * nanosecond precision. The time left is clamped at zero, so a passed
 * deadline polls without blocking. Returns what ppoll returns.
 */
int
pollUntil(pollfd *fds, std::size_t n, Clock::time_point deadline)
{
    const Clock::duration left =
        std::max(deadline - Clock::now(), Clock::duration::zero());
    const auto whole = std::chrono::floor<std::chrono::seconds>(left);
    timespec ts{};
    ts.tv_sec = static_cast<std::time_t>(whole.count());
    ts.tv_nsec = static_cast<long>(
        std::chrono::nanoseconds(left - whole).count());
    return ::ppoll(fds, static_cast<nfds_t>(n), &ts, nullptr);
}

} // namespace

// ----------------------------------------------------------------------
// SocketTransport (client side).
// ----------------------------------------------------------------------

api::Result<std::unique_ptr<SocketTransport>>
SocketTransport::connect(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    const std::string ip = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1)
        return api::Status::error(api::ErrorCode::InvalidArgument,
                                  "not an IPv4 address: " + host);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return sysError("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const api::Status st = sysError("connect");
        ::close(fd);
        return st;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return std::unique_ptr<SocketTransport>(new SocketTransport(fd));
}

SocketTransport::~SocketTransport()
{
    if (fd_ >= 0)
        ::close(fd_);
}

api::Status
SocketTransport::send(const std::uint8_t *data, std::size_t n)
{
    std::size_t off = 0;
    while (off < n) {
        const ssize_t w = ::send(fd_, data + off, n - off,
                                 MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return sysError("send");
        }
        off += static_cast<std::size_t>(w);
    }
    return api::Status::okStatus();
}

api::Status
SocketTransport::receiveSome(std::vector<std::uint8_t> &buf)
{
    std::uint8_t chunk[65536];
    for (;;) {
        const ssize_t r = ::recv(fd_, chunk, sizeof chunk, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            return sysError("recv");
        }
        if (r == 0)
            return api::Status::error(api::ErrorCode::Unavailable,
                                      "connection closed by server");
        buf.insert(buf.end(), chunk, chunk + r);
        return api::Status::okStatus();
    }
}

api::Status
SocketTransport::receiveSome(std::vector<std::uint8_t> &buf,
                             int timeout_ms)
{
    if (timeout_ms <= 0)
        return receiveSome(buf);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    pollfd pfd{fd_, POLLIN, 0};
    for (;;) {
        const int n = pollUntil(&pfd, 1, deadline);
        if (n < 0) {
            if (errno == EINTR)
                continue; // waits only for the time left
            return sysError("ppoll");
        }
        if (n == 0)
            return api::Status::error(
                api::ErrorCode::DeadlineExceeded,
                "receive deadline elapsed");
        // Readable (or HUP/ERR, which recv() will report): one recv.
        return receiveSome(buf);
    }
}

// ----------------------------------------------------------------------
// TcpServer.
// ----------------------------------------------------------------------

api::Result<std::unique_ptr<TcpServer>>
TcpServer::create(ServerCore *core, const TcpServerOptions &options)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return sysError("socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    // Loopback only: ecovisord has no authentication story yet, so it
    // never listens on a routable interface (docs/ECOVISORD.md).
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0) {
        const api::Status st = sysError("bind");
        ::close(fd);
        return st;
    }
    if (::listen(fd, options.backlog) != 0) {
        const api::Status st = sysError("listen");
        ::close(fd);
        return st;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &len) != 0) {
        const api::Status st = sysError("getsockname");
        ::close(fd);
        return st;
    }
    if (!setNonBlocking(fd)) {
        const api::Status st = sysError("fcntl");
        ::close(fd);
        return st;
    }
    return std::unique_ptr<TcpServer>(
        new TcpServer(core, fd, ntohs(bound.sin_port)));
}

TcpServer::~TcpServer()
{
    shutdownAll();
}

bool
TcpServer::poll(Clock::time_point deadline)
{
    if (listen_fd_ < 0)
        return false;

    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 1);
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto &[fd, conn] : conns_) {
        short events = POLLIN;
        if (!core_->outbox(conn).empty())
            events |= POLLOUT;
        fds.push_back({fd, events, 0});
    }

    const int n = pollUntil(fds.data(), fds.size(), deadline);
    if (n < 0)
        return errno == EINTR; // interrupted by a signal: not fatal
    if (n == 0)
        return true;

    if (fds[0].revents & POLLIN) {
        for (;;) {
            const int cfd = ::accept(listen_fd_, nullptr, nullptr);
            if (cfd < 0)
                break;
            if (!setNonBlocking(cfd)) {
                ::close(cfd);
                continue;
            }
            const int one = 1;
            ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof one);
            conns_[cfd] = core_->openConnection();
        }
    }

    std::vector<int> to_drop;
    for (std::size_t i = 1; i < fds.size(); ++i) {
        const int fd = fds[i].fd;
        auto it = conns_.find(fd);
        if (it == conns_.end())
            continue;
        const ConnId conn = it->second;
        bool dead = false;

        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
            std::uint8_t chunk[65536];
            for (;;) {
                const ssize_t r = ::recv(fd, chunk, sizeof chunk, 0);
                if (r > 0) {
                    if (!core_->onBytes(
                            conn, chunk,
                            static_cast<std::size_t>(r))) {
                        // Protocol error: the ProtocolError frame is
                        // queued; flush it on the way out.
                        dead = true;
                        break;
                    }
                    continue;
                }
                if (r == 0) {
                    dead = true; // peer closed
                    break;
                }
                if (errno == EINTR)
                    continue;
                if (errno != EAGAIN && errno != EWOULDBLOCK)
                    dead = true;
                break;
            }
        }
        if (!flushOutbox(fd, conn))
            dead = true; // write-side peer death, not backpressure
        if (dead)
            to_drop.push_back(fd);
    }
    for (int fd : to_drop)
        drop(fd);

    // Connections forcibly unbound by a Resume takeover: flush the
    // kick notice, then close. The fd may already be gone if the
    // same poll round also saw it die naturally.
    for (const ConnId kicked : core_->takeKicked()) {
        for (const auto &[fd, conn] : conns_) {
            if (conn != kicked)
                continue;
            flushOutbox(fd, conn);
            drop(fd);
            break;
        }
    }
    return true;
}

bool
TcpServer::flushOutbox(int fd, ConnId conn)
{
    if (!core_->connectionOpen(conn))
        return true;
    std::vector<std::uint8_t> &out = core_->outbox(conn);
    std::size_t off = 0;
    bool alive = true;
    while (off < out.size()) {
        const ssize_t w = ::send(fd, out.data() + off,
                                 out.size() - off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            // Backpressure and peer death are different conditions:
            // a full socket buffer means retry next poll; any other
            // errno (EPIPE, ECONNRESET, ...) means the peer is gone
            // and the caller must drop the connection — which, under
            // leases, is what starts the session's lease clock
            // deterministically instead of leaving a zombie stream.
            if (errno != EAGAIN && errno != EWOULDBLOCK)
                alive = false;
            break;
        }
        off += static_cast<std::size_t>(w);
    }
    out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(off));
    return alive;
}

void
TcpServer::drop(int fd)
{
    auto it = conns_.find(fd);
    if (it == conns_.end())
        return;
    core_->closeConnection(it->second);
    ::close(fd);
    conns_.erase(it);
}

void
TcpServer::shutdownAll()
{
    for (const auto &[fd, conn] : conns_) {
        flushOutbox(fd, conn);
        core_->closeConnection(conn);
        ::close(fd);
    }
    conns_.clear();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }
}

} // namespace ecov::net
