/**
 * @file
 * TCP plumbing for ecovisord: a blocking client-side transport and a
 * single-threaded ppoll(2) server loop that drives a ServerCore.
 *
 * The server never spawns a thread: accept, read, and write all
 * happen on the daemon's one thread, interleaved with tick stepping
 * by the main loop (ecovisord_main.cc). With commit order fixed by
 * (session id, request id), the kernel's arrival interleaving has no
 * say in simulation state — the threadless design is what makes that
 * trivially race-free.
 *
 * POSIX only (Linux CI); the library's simulation layers have no
 * socket dependency — everything OS-facing lives in this pair. Both
 * sides wait with ppoll(2) (Linux, the BSDs, POSIX.1-2024), which
 * keeps a deadline to the nanosecond.
 */

#ifndef ECOV_NET_SOCKET_H
#define ECOV_NET_SOCKET_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "net/server.h"
#include "net/transport.h"

namespace ecov::net {

/** Blocking TCP byte stream for net::Client. */
class SocketTransport : public Transport
{
  public:
    /** Connect to host:port (dotted quad or "localhost"). */
    static api::Result<std::unique_ptr<SocketTransport>>
    connect(const std::string &host, std::uint16_t port);

    ~SocketTransport() override;

    SocketTransport(const SocketTransport &) = delete;
    SocketTransport &operator=(const SocketTransport &) = delete;

    api::Status send(const std::uint8_t *data, std::size_t n) override;
    api::Status receiveSome(std::vector<std::uint8_t> &buf) override;
    /** Timed receive: wait until timeout_ms after entry,
     *  DeadlineExceeded when nothing arrives (timeout_ms <= 0 blocks
     *  forever). A signal does not restart the budget. */
    api::Status receiveSome(std::vector<std::uint8_t> &buf,
                            int timeout_ms) override;

  private:
    explicit SocketTransport(int fd) : fd_(fd) {}
    int fd_;
};

/** TCP front-end options. */
struct TcpServerOptions
{
    /** Port to bind on 127.0.0.1; 0 lets the OS pick (smoke tests). */
    std::uint16_t port = 0;
};

/**
 * Loopback-bound TCP listener feeding a ServerCore. The owner calls
 * poll() from its main loop; everything else is internal.
 */
class TcpServer
{
  public:
    static api::Result<std::unique_ptr<TcpServer>>
    create(ServerCore *core, const TcpServerOptions &options);

    ~TcpServer();

    TcpServer(const TcpServer &) = delete;
    TcpServer &operator=(const TcpServer &) = delete;

    /** The bound port (resolved when options.port was 0). */
    std::uint16_t port() const { return port_; }

    /**
     * Wait until `deadline` or socket activity, whichever comes
     * first, then accept new connections, read request bytes into
     * the core, and flush outboxes. A deadline already passed does
     * not block. A signal ends the wait early and returns true, so
     * the caller can check its stop flag. Returns false only on a
     * fatal listener error.
     */
    bool poll(std::chrono::steady_clock::time_point deadline);

    /** Flush every outbox and close every connection + the listener. */
    void shutdownAll();

    std::size_t connectionCount() const { return conns_.size(); }

  private:
    TcpServer(ServerCore *core, int listen_fd, std::uint16_t port)
        : core_(core), listen_fd_(listen_fd), port_(port)
    {}

    /** Write as much pending output as the socket accepts. False
     *  when the write side reports the peer dead (not backpressure):
     *  the caller must drop the connection. */
    bool flushOutbox(int fd, ConnId conn);

    /** Close one connection (socket + core namespace). */
    void drop(int fd);

    ServerCore *core_;
    int listen_fd_;
    std::uint16_t port_;
    std::map<int, ConnId> conns_; ///< fd -> connection id
};

} // namespace ecov::net

#endif // ECOV_NET_SOCKET_H
