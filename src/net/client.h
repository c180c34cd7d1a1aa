/**
 * @file
 * C++ client for ecovisord — the remote mirror of the in-process v2
 * surface (and of EcoLib's setup calls) over any net::Transport.
 *
 * Two call styles:
 *
 *  - Synchronous: registerApp(), setContainerPowercap(), ... — send,
 *    then block until the response arrives. Because mutating requests
 *    are answered at the server's per-tick commit point, a sync
 *    mutating call returns after the next tick settles (the loopback
 *    transport's idle handler, or real time on the TCP daemon).
 *
 *  - Pipelined: sendX() returns the request id immediately; awaitX()
 *    blocks for that specific response later. This is how a tenant
 *    batches many requests into one tick window — and how the
 *    equality suite and scale_rpc drive shuffled interleavings.
 *
 * Remote ids (RemoteApp / RemoteContainer) are *connection-local*:
 * dense indices in this connection's server-side namespace, worthless
 * on any other connection. That is the isolation property — there is
 * no global handle a tenant could forge.
 *
 * Reconnect-and-resume (docs/FAULTS.md): beginSession() asks the
 * server for this connection's resume token and lease length. While a
 * lease is active the client keeps every request it has sent but not
 * yet seen answered. After the transport dies, bindTransport() swaps
 * in a fresh connection and resume() re-binds the server-side session
 * by token, then retransmits the unacknowledged requests in request-id
 * order — the server's dedup window makes the retries commit exactly
 * once. If resume() is refused (lease expired, server restarted), the
 * caller abandons the session and re-registers from scratch.
 *
 * Deadlines: setCallTimeout() bounds every blocking await. A call
 * that exhausts its budget returns DeadlineExceeded without latching
 * a connection error — the reply may still arrive later and can be
 * awaited again.
 *
 * The client is single-threaded like the rest of the tenant surface;
 * one Client per Transport per thread.
 */

#ifndef ECOV_NET_CLIENT_H
#define ECOV_NET_CLIENT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/snapshot.h"
#include "api/status.h"
#include "core/virtual_energy_system.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/transport.h"

namespace ecov::net {

/** Connection-local app id. */
struct RemoteApp
{
    std::uint32_t id = UINT32_MAX;
    bool valid() const { return id != UINT32_MAX; }
};

/** Connection-local container id. */
struct RemoteContainer
{
    std::uint32_t id = UINT32_MAX;
    bool valid() const { return id != UINT32_MAX; }
};

/** One entry of a remote cap batch. */
struct RemoteCap
{
    RemoteContainer container;
    double cap_w = 0.0;
};

class Client
{
  public:
    /** @param transport borrowed; must outlive the client. */
    explicit Client(Transport *transport) : transport_(transport) {}

    // ------------------------------------------------------------------
    // Synchronous surface (send + await in one call).
    // ------------------------------------------------------------------

    api::Status ping();
    api::Result<RemoteApp>
    registerApp(const std::string &name,
                const core::AppShareConfig &share);
    api::Result<RemoteContainer> spawnContainer(RemoteApp app,
                                                double cores);
    api::Status destroyContainer(RemoteContainer c);
    api::Status setContainerPowercap(RemoteContainer c, double cap_w);
    api::Status applyCapBatch(const std::vector<RemoteCap> &caps);
    api::Status setBatteryChargeRate(RemoteApp app, double rate_w);
    api::Status setBatteryMaxDischarge(RemoteApp app, double rate_w);
    api::Status setDemand(RemoteContainer c, double demand);
    api::Result<api::EnergySnapshot> getEnergySnapshot(RemoteApp app);

    // ------------------------------------------------------------------
    // Pipelined surface. Each sendX() transmits immediately and
    // returns the request id to pass to the matching awaitX().
    // ------------------------------------------------------------------

    std::uint32_t sendPing();
    std::uint32_t sendRegisterApp(const std::string &name,
                                  const core::AppShareConfig &share);
    std::uint32_t sendSpawnContainer(RemoteApp app, double cores);
    std::uint32_t sendDestroyContainer(RemoteContainer c);
    std::uint32_t sendSetContainerPowercap(RemoteContainer c,
                                           double cap_w);
    std::uint32_t sendApplyCapBatch(const std::vector<RemoteCap> &caps);
    std::uint32_t sendSetBatteryChargeRate(RemoteApp app,
                                           double rate_w);
    std::uint32_t sendSetBatteryMaxDischarge(RemoteApp app,
                                             double rate_w);
    std::uint32_t sendSetDemand(RemoteContainer c, double demand);
    std::uint32_t sendGetSnapshot(RemoteApp app);

    /** Await a status-only response. */
    api::Status await(std::uint32_t request_id);
    /** Await a RegisterApp response. */
    api::Result<RemoteApp> awaitApp(std::uint32_t request_id);
    /** Await a SpawnContainer response. */
    api::Result<RemoteContainer>
    awaitContainer(std::uint32_t request_id);
    /** Await a GetSnapshot response. */
    api::Result<api::EnergySnapshot>
    awaitSnapshot(std::uint32_t request_id);

    /** True when the response is already buffered (non-blocking). */
    bool replyReady(std::uint32_t request_id) const;

    // ------------------------------------------------------------------
    // Deadlines and session leases.
    // ------------------------------------------------------------------

    /**
     * Bound every subsequent blocking await: when no reply arrives
     * within `ms` milliseconds the await returns DeadlineExceeded
     * (transient — the connection is not latched and the reply can
     * still be awaited again), never before `ms` have passed. 0
     * (default) blocks forever.
     */
    void setCallTimeout(int ms) { call_timeout_ms_ = ms; }
    int callTimeout() const { return call_timeout_ms_; }

    /**
     * Fetch this connection's resume token and lease length from the
     * server (Opcode::SessionInfo). When the server runs with leases
     * enabled this also arms client-side tracking of unacknowledged
     * requests for retransmission after resume().
     */
    api::Status beginSession();

    /** Resume token from beginSession(); 0 when none / disabled. */
    std::uint64_t sessionToken() const { return token_; }

    /** Server lease length from beginSession(); 0 when disabled. */
    std::uint32_t leaseTicks() const { return lease_ticks_; }

    /** Server dedup-window size from beginSession(); 0 when leases
     *  are disabled or the server predates the field. While nonzero,
     *  the client refuses to push more than this many requests
     *  unacknowledged — a retry from beyond the window could not be
     *  replayed and would break exactly-once. */
    std::uint32_t dedupWindow() const { return dedup_window_; }

    /**
     * Swap in a fresh transport after the old one died: clears the
     * latched connection error and resets framing state. Buffered
     * replies and unacknowledged-request tracking survive — follow
     * with resume() to re-bind the server-side session.
     */
    void bindTransport(Transport *transport);

    /**
     * Re-bind the leased server-side session over a fresh transport:
     * sends Opcode::Resume with the stored token (first frame on the
     * new stream, as the server requires), and on acceptance
     * retransmits every unacknowledged request in request-id order.
     * A non-ok return (expired lease, restarted server) leaves the
     * connection usable — abandonSession() and re-register.
     */
    api::Status resume();

    /**
     * Adopt a resume token obtained out of band (e.g. persisted by a
     * previous process incarnation whose daemon checkpointed the
     * session). Arms tracking and lets resume() re-bind the session;
     * the Resume response's committed watermark then realigns this
     * client's request-id counter past everything already committed.
     * Follow with beginSession() after resume() to refresh the lease
     * grant fields (it re-reads the same session's token).
     */
    void adoptSession(std::uint64_t token);

    /** Drop the session lease state (token, tracked requests). */
    void abandonSession();

    /** Requests sent but not yet seen answered (0 when tracking is
     *  off). */
    std::size_t unackedCount() const { return unacked_.size(); }

    /**
     * Latched connection-fatal error (transport failure, server
     * ProtocolError, malformed response); Ok while healthy. Once
     * latched, every await returns it.
     */
    const api::Status &connectionError() const { return conn_error_; }

    std::uint64_t requestsSent() const { return requests_sent_; }

  private:
    /** A parsed response parked until its awaitX(). */
    struct Reply
    {
        std::uint8_t opcode = 0;
        ResponseHead head;
        std::vector<std::uint8_t> result; ///< fields after the status
    };

    /** Transmit tx_ and count (and possibly track) the request. */
    std::uint32_t finishSend(std::uint32_t req_id);

    /** One receive; parses every complete frame. `timeout_ms <= 0`
     *  blocks forever; a positive budget may return a transient
     *  DeadlineExceeded (not latched). */
    api::Status pump(int timeout_ms);

    /** Block (up to the call timeout) until request_id's reply is
     *  buffered; pops it. */
    api::Status take(std::uint32_t request_id, Reply *out);

    void latch(api::Status status);

    Transport *transport_;
    std::vector<std::uint8_t> tx_;
    std::vector<CapEntry> batch_scratch_;
    std::vector<std::uint8_t> rx_scratch_;
    FrameDecoder decoder_;
    std::map<std::uint32_t, Reply> replies_;
    /** Request id -> encoded frame, kept until the reply is seen;
     *  retransmitted by resume(). Only while tracking is armed. */
    std::map<std::uint32_t, std::vector<std::uint8_t>> unacked_;
    std::uint32_t next_req_ = 1;
    std::uint64_t requests_sent_ = 0;
    int call_timeout_ms_ = 0;
    std::uint64_t token_ = 0;
    std::uint32_t lease_ticks_ = 0;
    std::uint32_t dedup_window_ = 0;
    bool track_ = false;
    api::Status conn_error_;
};

} // namespace ecov::net

#endif // ECOV_NET_CLIENT_H
