/**
 * @file
 * Byte transport abstraction under net::Client.
 *
 * The client is transport-agnostic: tests and benches run hundreds of
 * tenants over LoopbackTransport (loopback.h) — fully in-process,
 * deterministic, no sockets — while real deployments use
 * SocketTransport (socket.h) over TCP. Both present the same blocking
 * byte-stream contract.
 */

#ifndef ECOV_NET_TRANSPORT_H
#define ECOV_NET_TRANSPORT_H

#include <cstdint>
#include <vector>

#include "api/status.h"

namespace ecov::net {

class Transport
{
  public:
    virtual ~Transport() = default;

    /** Hand n bytes to the peer, in order; Unavailable once the
     *  connection is gone. The loopback delivers them before it
     *  returns. SocketTransport queues them until the calling thread
     *  next blocks in the socket layer, or one of its other write
     *  points (socket.h), and a failed write is returned by a later
     *  call. */
    virtual api::Status send(const std::uint8_t *data,
                             std::size_t n) = 0;

    /**
     * Append at least one received byte to `buf`, blocking until data
     * is available; Unavailable when the peer closed (or, for the
     * loopback, when no data can ever arrive without driver action).
     */
    virtual api::Status receiveSome(std::vector<std::uint8_t> &buf) = 0;

    /**
     * Deadline-aware receive: like receiveSome(buf), but return
     * DeadlineExceeded if no byte arrives within timeout_ms
     * (timeout_ms <= 0 blocks forever). Transports that cannot wait
     * with a bound — the loopback never blocks at all — fall back to
     * the blocking form; SocketTransport polls the socket. The
     * client's per-call deadline (Client::setCallTimeout) rides on
     * this entry point.
     */
    virtual api::Status
    receiveSome(std::vector<std::uint8_t> &buf, int timeout_ms)
    {
        (void)timeout_ms;
        return receiveSome(buf);
    }
};

} // namespace ecov::net

#endif // ECOV_NET_TRANSPORT_H
