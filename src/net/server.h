/**
 * @file
 * Transport-agnostic core of `ecovisord` (docs/ECOVISORD.md).
 *
 * ServerCore owns everything protocol-level about serving remote
 * tenants and nothing socket-level: a transport (loopback.h for
 * in-process tests/benches, socket.h for the TCP daemon) feeds it
 * received bytes per connection and drains per-connection outboxes.
 * That split keeps the interesting logic — handle namespaces,
 * per-tick coalescing, admission control, session leases —
 * deterministic and testable without a kernel socket in sight.
 *
 * Connections vs sessions: a *connection* is one transport byte
 * stream; a *session* is a tenant's handle namespace (apps,
 * containers, queued requests, response history). With leases
 * disabled (the default) the two are one-to-one and disconnect
 * destroys the session immediately. With `lease_ticks > 0`,
 * disconnect merely *detaches* the session: it survives for up to
 * `lease_ticks` tick settlements, and a reconnecting client can
 * re-bind it by presenting the session's resume token (Opcode::Resume
 * as the first frame on the fresh connection). A valid token also
 * rebinds a session that still *looks* bound: after a silent peer
 * death (host crash, partition) no FIN ever reaches the server, so
 * the token holder — the session's rightful owner, tokens being OS
 * entropy — forcibly takes the session over and the stale connection
 * is kicked (the transport learns via takeKicked()). Only when the
 * lease expires does the existing revocation path run — the session's
 * containers are destroyed in local-id order, bumping COP slot
 * generations so every leaked capability goes stale.
 *
 * Per-connection handle namespaces: requests address apps and
 * containers by *local ids*, dense indices into the issuing
 * session's own tables, mapped server-side to api::AppHandle /
 * api::ContainerHandle. A connection can therefore never name another
 * tenant's state — isolation is structural, not checked.
 *
 * Coalescing: mutating requests are not applied at arrival. They are
 * queued and committed in one batch at the next tick settlement via
 * Ecovisor::setPreSettleHook, sorted canonically by (session id,
 * request id), equal keys in arrival order. The batch is sorted once
 * per tick and the WAL record, the commit and a drain all use that
 * one order. The settled simulation is therefore bit-identical
 * regardless of how request arrivals interleaved on the network — the
 * docs/ARCHITECTURE.md determinism contract extended across the wire.
 * Read-only requests (Ping, GetSnapshot, SessionInfo) answer
 * immediately: they observe state, never change it.
 *
 * Tables: open connections sit in a flat hash table keyed by ConnId
 * (net/id_table.h), and each connection points straight at its bound
 * session, so no frame, receive or commit searches for a session.
 * Sessions sit in one vector in ascending id order, which is the
 * order capture, recovery detach, lease expiry and drain revocation
 * walk them in. Both tables hold live entries only.
 *
 * Exactly-once mutations under retry: when leases are enabled each
 * session keeps a bounded request-id dedup window. A retransmitted
 * mutation whose original already committed gets the *stored*
 * response bytes replayed verbatim; one still queued is swallowed
 * (its reply arrives at commit). A client that retransmits everything
 * unacknowledged after a reconnect therefore commits each mutation
 * exactly once, in canonical order (docs/FAULTS.md). The window is
 * backed by a committed-request-id watermark: a retransmit whose
 * stored response was already evicted answers Unavailable rather
 * than re-committing, and the SessionInfo grant advertises the
 * window size so a well-behaved client never outruns it.
 *
 * Admission control: a bounded per-session inflight count plus a
 * global queue budget. Requests over either bound are answered
 * ResourceExhausted on the spot — the tick loop never stalls, and a
 * hostile tenant cannot grow server memory without bound. beginDrain()
 * (shutdown) answers everything queued or subsequent with Unavailable.
 */

#ifndef ECOV_NET_SERVER_H
#define ECOV_NET_SERVER_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/handle.h"
#include "core/ecovisor.h"
#include "net/frame.h"
#include "net/id_table.h"
#include "net/protocol.h"
#include "util/units.h"

namespace ecov::net {

/** Connection identifier: monotonically assigned, never reused. */
using ConnId = std::uint32_t;

/**
 * Session identifier, assigned in open order. The one id ever handed
 * back is a Resume's discarded virgin session's (SessionEvent::
 * DiscardVirgin), which the next open reuses.
 */
using SessionId = std::uint32_t;

/** Admission-control and lease bounds. */
struct ServerCoreOptions
{
    /** Coalesced requests one session may have awaiting commit. */
    std::uint32_t max_inflight_per_conn = 128;
    /** Coalesced requests queued across all sessions. */
    std::uint32_t max_pending_total = 65536;
    /**
     * Ticks a disconnected session survives awaiting Resume before
     * its containers are revoked. 0 (default) disables leases:
     * disconnect revokes immediately, exactly the pre-lease
     * behaviour, and no token/dedup state is kept at all.
     */
    std::uint32_t lease_ticks = 0;
    /** Committed responses remembered per session for duplicate
     *  replay (ignored when leases are disabled). The window size is
     *  advertised in the SessionInfo lease grant so clients stop
     *  sending before they could outrun it. */
    std::uint32_t dedup_window = 1024;
    /**
     * 0 (default): resume tokens are drawn from OS entropy
     * (getrandom), so a token is a real capability — no tenant can
     * derive another session's token. Tests and benches that need
     * reproducible tokens inject a nonzero seed here and get the
     * deterministic splitmix64 derivation instead; that path is for
     * single-trust-domain harnesses only, since a seeded token
     * sequence is computable by anyone who knows the seed.
     */
    std::uint64_t token_seed = 0;
};

/**
 * Sentinel ConnId marking a session as "bound" during WAL replay or
 * right after a snapshot restore, when no transport connection exists
 * yet. Nonzero (so lease aging skips it, exactly as for a live
 * binding); never allocated to a real connection (next_conn_ would
 * have to wrap). Recovery ends with detachAllForRecovery(), which
 * turns every sentinel binding into a fresh detached lease so real
 * clients re-bind via Resume.
 */
inline constexpr ConnId kRecoveryBound = 0xffffffffu;

/**
 * One session-lifecycle transition, recorded (when event recording is
 * armed) for the write-ahead log so recovery can replay the session
 * plane deterministically (src/ckpt/, docs/CHECKPOINT.md). Events are
 * emitted at the exact mutation sites — open, lease detach, destroy,
 * resume rebind — and drained once per tick into the tick's WAL
 * record, in occurrence order.
 */
struct SessionEvent
{
    enum class Kind : std::uint8_t
    {
        Open = 0,    ///< fresh session created (token when leased)
        Detach = 1,  ///< connection closed; session leased
        Destroy = 2, ///< session revoked (close without lease / kick)
        Rebind = 3,  ///< Resume attached the session to a connection
        /**
         * Resume discarded the connection's auto-created virgin
         * session and returned its id to the allocator. The virgin
         * session was never observable (Resume must be the stream's
         * first frame, so its token was never granted and it owned
         * nothing), so reclaiming the id keeps a resumed world
         * field-identical to one that never disconnected — the
         * checkpoint digest compares next_session too.
         */
        DiscardVirgin = 4,
    };
    Kind kind = Kind::Open;
    SessionId session = 0;
    std::uint64_t token = 0; ///< Open only; 0 otherwise
};

/**
 * Committed responses remembered for duplicate replay, in flat
 * storage (docs/PERF.md §7): request ids strictly ascending, and
 * response k's bytes at [start(k), ends[k]) of one arena.
 * Appending an entry allocates nothing once the vectors have reached
 * their steady-state capacity.
 */
struct DedupWindow
{
    std::vector<std::uint32_t> ids;
    std::vector<std::uint32_t> ends;
    std::vector<std::uint8_t> bytes;

    /** Offset of entry k's first response byte. */
    std::uint32_t start(std::size_t k) const
    {
        return k == 0 ? 0 : ends[k - 1];
    }
};

/**
 * Transport-free image of one session for snapshot capture/restore.
 * Everything that determines future committed state is here: the
 * handle namespace, the lease position, and the dedup window.
 * Deliberately absent: the outbox (undelivered bytes die with the
 * connection anyway), inflight/queued (capture happens at a tick
 * boundary where both are empty), and connection ids (restore leaves
 * every bound session on the kRecoveryBound sentinel).
 */
struct SessionImage
{
    SessionId id = 0;
    std::uint64_t token = 0;
    bool bound = false;
    std::uint32_t lease_left = 0;
    std::uint32_t committed_max = 0;
    /** Local app id -> AppHandle index, in local-id order. */
    std::vector<std::int32_t> apps;
    /** Local container id -> slab ref, in local-id order. */
    std::vector<cop::ContainerRef> containers;
    /** Dedup window in commit order, oldest entry first; every id is
     *  at or below `committed_max`. */
    DedupWindow done;
};

/** Full session-plane image (sessions in id order + id allocator). */
struct ServerCoreImage
{
    SessionId next_session = 1;
    std::vector<SessionImage> sessions;
};

/** Running totals (bench/smoke visibility; all monotonic). */
struct ServerStats
{
    std::uint64_t frames_decoded = 0;
    std::uint64_t immediate_replies = 0;
    std::uint64_t coalesced_committed = 0;
    std::uint64_t admission_rejects = 0;
    std::uint64_t protocol_errors = 0;
    std::uint64_t leases_started = 0;     ///< disconnects that detached
    std::uint64_t leases_resumed = 0;     ///< successful Resume binds
    std::uint64_t leases_expired = 0;     ///< leases that revoked
    std::uint64_t duplicates_replayed = 0; ///< dedup-window replays
    std::uint64_t resume_takeovers = 0;   ///< Resumes that kicked a
                                          ///< still-bound connection
};

class ServerCore
{
  public:
    /**
     * @param eco borrowed supervisor; must outlive the core. The
     *        core installs itself as the ecovisor's pre-settle hook
     *        (sole consumer) and uninstalls on destruction.
     */
    explicit ServerCore(core::Ecovisor *eco,
                        ServerCoreOptions options = {});
    ~ServerCore();

    ServerCore(const ServerCore &) = delete;
    ServerCore &operator=(const ServerCore &) = delete;

    /** Open a connection (with a fresh session); ids are assigned in
     *  call order. */
    ConnId openConnection();

    /**
     * Close a connection. With leases disabled — or for a draining
     * server or a connection that broke protocol — the session dies
     * with it: queued requests are dropped and its live containers
     * are destroyed in local-id order (the generation-counter
     * revocation path). With leases enabled the session detaches
     * instead and survives `lease_ticks` settlements awaiting Resume;
     * its queued mutations still commit (exactly once) while
     * detached.
     */
    void closeConnection(ConnId conn);

    /** True while the connection is open. */
    bool connectionOpen(ConnId conn) const;

    /**
     * Feed bytes received on a connection. Complete frames are
     * processed in order: reads answered immediately, mutations
     * queued for the next commit. Returns false on a protocol error —
     * a ProtocolError frame (request id 0) is then the outbox tail
     * and the transport must flush it and closeConnection().
     */
    bool onBytes(ConnId conn, const std::uint8_t *data, std::size_t n);

    /** The connection's pending output; the transport drains it. */
    std::vector<std::uint8_t> &outbox(ConnId conn);

    /**
     * Apply every queued mutating request in canonical (session id,
     * request id) order, then age detached sessions' leases (expiry
     * runs revocation). Installed as the ecovisor's pre-settle hook,
     * so it runs exactly once per tick at the commit point; callable
     * directly by tests.
     */
    void commitCoalesced(TimeS start_s, TimeS dt_s);

    /** Age detached sessions by one tick; called by the pre-settle
     *  hook after the commit. Public for tests. */
    void tickLeases();

    /**
     * Enter shutdown drain: everything queued is answered Unavailable
     * (canonical order), as is every request that arrives afterwards.
     * Detached sessions are revoked immediately — no one can resume
     * into a server that is going away.
     */
    void beginDrain();

    /** True once beginDrain() has run. */
    bool draining() const { return draining_; }

    /** Coalesced requests currently awaiting commit. */
    std::size_t pendingCount() const { return pending_.size(); }

    /** Open-connection count. */
    std::size_t connectionCount() const { return conns_.size(); }

    /** Slots the connection table holds, live and empty
     *  (diagnostics): at least eight and twice connectionCount(), and
     *  halved whenever fewer than one in eight is live. */
    std::size_t connectionSlots() const { return conns_.slots(); }

    /** Live sessions (bound + detached). */
    std::size_t sessionCount() const { return sessions_.size(); }

    /** Sessions currently disconnected but within their lease. */
    std::size_t detachedSessionCount() const { return detached_; }

    /**
     * Connections forcibly unbound by a Resume takeover since the
     * last call. Each has a kick notice (ProtocolError frame) as its
     * outbox tail; the transport should flush and close them. The
     * internal list is cleared by this call.
     */
    std::vector<ConnId> takeKicked();

    const ServerStats &stats() const { return stats_; }

    /** The supervised ecovisor (tests, daemon wiring). */
    core::Ecovisor &ecovisor() { return *eco_; }

    /** A mutating request parked until the next commit point. Public
     *  so the checkpoint subsystem can serialise the per-tick batch
     *  (src/ckpt/wal.h). */
    struct PendingOp
    {
        SessionId session = 0;
        std::uint32_t req_id = 0;
        Opcode op = Opcode::Ping;
        std::uint32_t id = 0; ///< local app/container id operand
        double value = 0.0;   ///< scalar operand
        RegisterAppReq reg;   ///< RegisterApp only
        std::vector<CapEntry> caps; ///< ApplyCapBatch only
    };

    // ------------------------------------------------------------------
    // Checkpoint/restore surface (src/ckpt/, docs/CHECKPOINT.md).
    // ------------------------------------------------------------------

    /**
     * Arm (or disarm) session-event recording. While armed, every
     * session-plane transition appends a SessionEvent; the WAL writer
     * drains them once per tick. Off by default — a server without a
     * checkpoint manager pays nothing.
     */
    void enableEventRecording(bool on) { record_events_ = on; }

    /** Events recorded since the last drain, in occurrence order;
     *  clears the internal list. */
    std::vector<SessionEvent> drainSessionEvents();

    /**
     * Sort the pending batch into canonical (session id, request id)
     * order in place, equal keys in arrival order, and return it: the
     * exact batch, in the exact order, commitCoalesced applies this
     * tick. The batch stays sorted until the next admission, so the
     * commit does not sort it again. The WAL writer encodes it where
     * it lies, immediately before the tick settles.
     */
    const std::vector<PendingOp> &canonicalBatch();

    /**
     * Re-queue one logged request during WAL replay, bypassing the
     * dedup/admission front door: the log only ever contains requests
     * that were admitted live, and replaying them through the normal
     * commit path regenerates responses — and dedup state —
     * bit-identically.
     */
    void enqueueForReplay(PendingOp op);

    /** Re-apply one logged session-plane transition during replay. */
    void applySessionEvent(const SessionEvent &ev);

    /**
     * Finish recovery: every session still on the kRecoveryBound
     * sentinel detaches with a fresh full lease (outbox cleared), so
     * surviving clients can Resume into the restarted server before
     * their lease runs out.
     */
    void detachAllForRecovery();

    /**
     * Capture the session plane at a tick boundary. Fatal when called
     * with requests still pending — the snapshot point is immediately
     * after a commit, where inflight and queued are empty by
     * construction.
     */
    ServerCoreImage captureSessions() const;

    /**
     * Restore the session plane from a snapshot image. Existing
     * sessions are discarded; every restored bound session sits on
     * the kRecoveryBound sentinel until detachAllForRecovery(). Fatal
     * with a connection open, or for an image whose session ids do not
     * strictly ascend or whose tokens repeat (decodeSnapshot rejects
     * both as DataLoss).
     */
    void restoreSessions(const ServerCoreImage &image);

  private:
    struct Session;

    /** One transport byte stream. */
    struct Conn
    {
        FrameDecoder decoder;
        /** The bound session; never null while the connection is
         *  open. */
        Session *session = nullptr;
        /** True until the first frame is processed; Resume is only
         *  legal on a virgin connection. */
        bool virgin = true;
        /** Set when the stream broke framing: close must revoke, not
         *  lease — the peer is faulty, not the network. */
        bool poisoned = false;
    };

    /** One tenant's namespace, buffers, and lease/dedup state. */
    struct Session
    {
        SessionId id = 0;
        /** Local app id -> handle; grows only. */
        std::vector<api::AppHandle> apps;
        /** Local container id -> handle; destroyed entries go stale
         *  in place (generation mismatch), ids are never reused. */
        std::vector<api::ContainerHandle> containers;
        std::vector<std::uint8_t> outbox;
        /** Ops this session has in the pending batch. */
        std::uint32_t inflight = 0;
        /** Connection currently bound to this session; 0 = detached. */
        ConnId bound = 0;
        /** Remaining lease ticks while detached; unused when bound. */
        std::uint32_t lease_left = 0;
        /** Resume token (0 when leases are disabled). */
        std::uint64_t token = 0;
        /** Committed responses, replayed verbatim on duplicate
         *  receipt. Entries before `done_head` are evicted and wait
         *  for compaction; the live window is [done_head, size). */
        DedupWindow done;
        std::size_t done_head = 0;
        /** Request ids queued but not yet committed, ascending
         *  (duplicates of these are swallowed; the commit produces the
         *  reply). At most max_inflight_per_conn long. */
        std::vector<std::uint32_t> queued;
        /** Highest request id ever committed. Every stored id is at or
         *  below it and every queued id above it. Client request ids
         *  are monotone per session, so any arriving id at or below
         *  this watermark is a retransmit — even one already evicted
         *  from the `done` window, which must never re-commit. */
        std::uint32_t committed_max = 0;
    };

    /** Live sessions in ascending id order. Each is heap-held, so a
     *  connection's pointer survives other sessions' comings and
     *  goings. */
    using SessionTable = std::vector<std::unique_ptr<Session>>;

    /** Process one decoded frame; false latches a protocol error. */
    bool handleFrame(ConnId conn, Conn &c, const Frame &f);

    /** Dedup-window front door for mutating requests: replay or
     *  swallow duplicates, otherwise admit. */
    void admitDeduped(Session &s, PendingOp &&op);

    /** Queue a mutating request, or reject it at admission; true
     *  when the op was queued. */
    bool admit(Session &s, PendingOp &&op);

    /** Append to the pending batch, noting whether it is still in
     *  canonical order. */
    void queue(PendingOp &&op);

    /** Put the pending batch in canonical order (no-op when it is):
     *  one sort of (key, arrival) pairs, then each op moves once. */
    void sortPending();

    /** Apply one queued request against the v2 surface. */
    void apply(const PendingOp &op, Session &s);

    /** Record a committed response for duplicate replay, advancing
     *  the watermark and trimming the window. */
    void recordDone(Session &s, std::uint32_t req_id,
                    const std::uint8_t *bytes, std::size_t n);

    /** First position in sessions_ at or after `from` whose id is
     *  not below `sid` (sessions_ ascends by id). */
    SessionTable::iterator sessionAt(SessionId sid,
                                     SessionTable::iterator from);

    /** The live session `sid`, or nullptr. */
    Session *findSession(SessionId sid);

    /** Revoke a session without erasing its table entry: drop its
     *  queued ops, destroy its containers in local-id order, erase
     *  its token. */
    void revoke(Session &s);

    /** Revoke and erase session `sid` (no-op when not live). */
    void destroySession(SessionId sid);

    /** Create a fresh session (with token when leases are on). */
    Session &newSession(ConnId bound_to);

    /** Revoke every detached session `expire` selects, in ascending
     *  id order, and erase them; returns how many. */
    template <typename Pred>
    std::size_t revokeDetached(Pred expire);

    /** Resolve a session-local container id (nullptr = bad id). */
    const api::ContainerHandle *localContainer(const Session &s,
                                               std::uint32_t id) const;

    core::Ecovisor *eco_;
    ServerCoreOptions options_;
    IdTable<Conn> conns_;
    SessionTable sessions_;
    /** Resume token -> session (leases enabled only). */
    std::map<std::uint64_t, SessionId> tokens_;
    /** Mutations awaiting the next commit: arrival order until
     *  sortPending() runs, then canonical order. */
    std::vector<PendingOp> pending_;
    /** True while pending_ is in canonical order. */
    bool pending_sorted_ = true;
    /** sortPending() scratch, kept to reuse its capacity. */
    struct SortKey
    {
        std::uint64_t key; ///< session id << 32 | request id
        std::uint32_t arrival;
    };
    std::vector<SortKey> sort_keys_;
    std::vector<PendingOp> sorted_;
    /** Connections unbound by Resume takeover, awaiting transport
     *  close (drained by takeKicked()). */
    std::vector<ConnId> kicked_;
    ConnId next_conn_ = 1;
    SessionId next_session_ = 1;
    std::size_t detached_ = 0;
    bool draining_ = false;
    /** Session-event recording for the WAL (enableEventRecording). */
    bool record_events_ = false;
    std::vector<SessionEvent> session_events_;
    ServerStats stats_;
};

} // namespace ecov::net

#endif // ECOV_NET_SERVER_H
