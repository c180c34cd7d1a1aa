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
 * A client's frames leave in bursts. SocketTransport::send() queues
 * the frame, and the thread's queues are written, one send(2) per
 * transport, when it next blocks in this layer. A pipelined tick of
 * 66 frames on one connection is then one segment for the daemon to
 * read, not 66 (docs/PERF.md §16).
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

class PendingWrites;

/**
 * Blocking TCP byte stream for net::Client.
 *
 * send() appends to the transport's queue. The queue leaves in one
 * send(2):
 *  - when the thread that queued it blocks in the socket layer (either
 *    receiveSome(), connect(), or TcpServer::poll()), which first
 *    writes every transport that thread has queued on;
 *  - at once, when it reaches kMaxQueuedBytes;
 *  - when the transport is destroyed;
 *  - when the thread exits.
 * A write that fails, whichever transport's wait made it, stays on
 * this transport: its every later send and receive returns it.
 *
 * Queued bytes belong to the thread that queued them until that
 * thread next waits. Using or destroying the transport on another
 * thread before then is a fatal() error (client.h: one Client per
 * Transport per thread). Like stdio's buffers, a fork() copies them:
 * a child that leaves through exit(), not exec or _exit(), writes
 * them a second time.
 */
class SocketTransport : public Transport
{
  public:
    /** A queue this long is written without waiting for a wait. */
    static constexpr std::size_t kMaxQueuedBytes = 64 * 1024;

    /** Connect to host:port (dotted quad or "localhost"). */
    static api::Result<std::unique_ptr<SocketTransport>>
    connect(const std::string &host, std::uint16_t port);

    ~SocketTransport() override;

    SocketTransport(const SocketTransport &) = delete;
    SocketTransport &operator=(const SocketTransport &) = delete;

    /** Queue n bytes (see the class comment for when they leave). */
    api::Status send(const std::uint8_t *data, std::size_t n) override;
    api::Status receiveSome(std::vector<std::uint8_t> &buf) override;
    /** Timed receive: wait until timeout_ms after entry,
     *  DeadlineExceeded when nothing arrives (timeout_ms <= 0 blocks
     *  forever). A signal does not restart the budget. */
    api::Status receiveSome(std::vector<std::uint8_t> &buf,
                            int timeout_ms) override;

  private:
    friend class PendingWrites;

    explicit SocketTransport(int fd) : fd_(fd) {}

    /** fatal() unless the queue is empty or this thread's. */
    void checkThread() const;

    /** Write this thread's queues; this transport's write status. */
    api::Status flushBeforeWait();

    /** Write and empty the queue; a failure goes to write_error_. */
    void writeQueue();

    int fd_;
    std::vector<std::uint8_t> queue_;
    /** The list of the thread that queued; null while queue_ is empty. */
    PendingWrites *pending_ = nullptr;
    api::Status write_error_;
};

/** What the server's socket layer has done (the daemon's exit line). */
struct TcpServerStats
{
    std::uint64_t reads = 0;   ///< recv(2) calls that returned bytes
    std::uint64_t writes = 0;  ///< send(2) calls that wrote bytes
    std::uint64_t wakeups = 0; ///< ppoll(2) returns with fds ready
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

    const TcpServerStats &stats() const { return stats_; }

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
    TcpServerStats stats_;
};

} // namespace ecov::net

#endif // ECOV_NET_SOCKET_H
