#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <cmath>

#include <sys/random.h>

#include "util/logging.h"

namespace ecov::net {

namespace {

api::Status
err(api::ErrorCode code, const char *msg)
{
    return api::Status::error(code, msg);
}

/**
 * Deterministic token derivation (splitmix64 finalizer over the
 * injected seed and the session id) — the test/bench path only.
 * splitmix64 is invertible and the inputs are guessable, so a token
 * from this path is NOT a secret; production tokens come from
 * entropyToken() below.
 */
std::uint64_t
mixToken(std::uint64_t seed, std::uint64_t sid)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (sid + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z ? z : 1; // 0 means "no token"
}

/**
 * A resume token is a bearer capability for a tenant's whole
 * namespace, so it must be unguessable by other tenants: 64 bits of
 * OS entropy. Token values never influence simulation state (they
 * are lookup keys only), so this is the one permitted use of real
 * randomness in the server — determinism of settled state is
 * untouched.
 */
std::uint64_t
entropyToken()
{
    std::uint64_t t = 0;
    std::size_t got = 0;
    while (got < sizeof t) {
        const ssize_t r =
            ::getrandom(reinterpret_cast<std::uint8_t *>(&t) + got,
                        sizeof t - got, 0);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            fatal("getrandom failed for resume token");
        }
        got += static_cast<std::size_t>(r);
    }
    return t ? t : 1; // 0 means "no token"
}

} // namespace

ServerCore::ServerCore(core::Ecovisor *eco, ServerCoreOptions options)
    : eco_(eco), options_(options)
{
    eco_->setPreSettleHook(
        [this](TimeS start_s, TimeS dt_s) {
            commitCoalesced(start_s, dt_s);
        });
}

ServerCore::~ServerCore()
{
    eco_->setPreSettleHook(nullptr);
}

ServerCore::Session &
ServerCore::newSession(ConnId bound_to)
{
    // Every live id is below next_session_, so the new session goes
    // at the end of the id-ordered table.
    const SessionId sid = next_session_++;
    if (!sessions_.empty() && sessions_.back()->id >= sid)
        panic("ServerCore::newSession: id allocator behind the table");
    Session &s = *sessions_.emplace_back(std::make_unique<Session>());
    s.id = sid;
    s.bound = bound_to;
    if (options_.lease_ticks > 0) {
        std::uint64_t token =
            options_.token_seed != 0
                ? mixToken(options_.token_seed, sid)
                : entropyToken();
        while (tokens_.count(token) != 0)
            ++token; // astronomically rare; keep tokens unique
        s.token = token;
        tokens_[token] = sid;
    }
    if (record_events_)
        session_events_.push_back(
            {SessionEvent::Kind::Open, sid, s.token});
    return s;
}

ConnId
ServerCore::openConnection()
{
    const ConnId conn = next_conn_++;
    Conn &c = conns_.insert(conn);
    c.session = &newSession(conn);
    return conn;
}

ServerCore::SessionTable::iterator
ServerCore::sessionAt(SessionId sid, SessionTable::iterator from)
{
    if (from != sessions_.end() && (*from)->id == sid)
        return from; // consecutive ops of one session
    return std::lower_bound(from, sessions_.end(), sid,
                            [](const std::unique_ptr<Session> &s,
                               SessionId id) { return s->id < id; });
}

ServerCore::Session *
ServerCore::findSession(SessionId sid)
{
    const auto it = sessionAt(sid, sessions_.begin());
    return it != sessions_.end() && (*it)->id == sid ? it->get()
                                                     : nullptr;
}

void
ServerCore::revoke(Session &s)
{
    // Queued requests die with the session: no one is left to read
    // the responses, and committing them would let a revoked tenant
    // keep mutating the sim. Removal keeps the batch's order.
    if (s.inflight != 0)
        pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                      [&s](const PendingOp &op) {
                                          return op.session == s.id;
                                      }),
                       pending_.end());

    // Revocation: destroy the tenant's live containers in local-id
    // order (deterministic). The destroy bumps each slot's
    // generation, so any handle that escaped this namespace is now
    // stale everywhere — the existing COP revocation semantics.
    cop::Cluster &cluster = eco_->cluster();
    for (const api::ContainerHandle &h : s.containers)
        if (const cop::ContainerId id = cluster.idOf(h.ref());
            id != cop::kInvalidContainer)
            cluster.destroyContainer(id);

    if (s.token != 0)
        tokens_.erase(s.token);
}

void
ServerCore::destroySession(SessionId sid)
{
    const auto it = sessionAt(sid, sessions_.begin());
    if (it == sessions_.end() || (*it)->id != sid)
        return;
    revoke(**it);
    sessions_.erase(it);
}

template <typename Pred>
std::size_t
ServerCore::revokeDetached(Pred expire)
{
    // Ascending id order, so revocation is deterministic across runs
    // and thread counts; the table is compacted once afterwards.
    std::size_t n = 0;
    for (std::unique_ptr<Session> &s : sessions_) {
        if (s->bound != 0 || !expire(*s))
            continue;
        revoke(*s);
        s.reset();
        ++n;
    }
    if (n != 0)
        sessions_.erase(
            std::remove(sessions_.begin(), sessions_.end(), nullptr),
            sessions_.end());
    return n;
}

void
ServerCore::closeConnection(ConnId conn)
{
    const Conn *c = conns_.find(conn);
    if (!c)
        return;
    Session &s = *c->session;
    const bool poisoned = c->poisoned;
    conns_.erase(conn);
    kicked_.erase(std::remove(kicked_.begin(), kicked_.end(), conn),
                  kicked_.end());

    // Lease-ineligible closes revoke immediately: leases disabled,
    // server draining (nothing to resume into), or the peer broke
    // protocol (its fault, not the network's).
    if (options_.lease_ticks == 0 || draining_ || poisoned) {
        if (record_events_)
            session_events_.push_back(
                {SessionEvent::Kind::Destroy, s.id, 0});
        destroySession(s.id);
        return;
    }
    if (record_events_)
        session_events_.push_back(
            {SessionEvent::Kind::Detach, s.id, 0});

    // Detach: the session survives `lease_ticks` settlements awaiting
    // Resume. Undelivered output is gone with the connection — the
    // client retransmits what it never saw acknowledged, and the
    // dedup window replays anything that already committed.
    s.bound = 0;
    s.lease_left = options_.lease_ticks;
    s.outbox.clear();
    ++detached_;
    ++stats_.leases_started;
}

bool
ServerCore::connectionOpen(ConnId conn) const
{
    return conns_.find(conn) != nullptr;
}

std::vector<ConnId>
ServerCore::takeKicked()
{
    std::vector<ConnId> out;
    out.swap(kicked_);
    return out;
}

std::vector<std::uint8_t> &
ServerCore::outbox(ConnId conn)
{
    Conn *c = conns_.find(conn);
    if (!c)
        fatal("ServerCore::outbox: unknown connection");
    return c->session->outbox;
}

bool
ServerCore::onBytes(ConnId conn, const std::uint8_t *data,
                    std::size_t n)
{
    Conn *cp = conns_.find(conn);
    if (!cp)
        fatal("ServerCore::onBytes: unknown connection");
    Conn &c = *cp;

    // A kicked (or already-errored) connection is served nothing
    // more; its outbox tail is the notice explaining why.
    if (c.poisoned)
        return false;

    c.decoder.feed(data, n);
    for (;;) {
        Frame f;
        switch (c.decoder.next(&f)) {
          case DecodeStatus::NeedMore:
            return true;
          case DecodeStatus::Error:
            ++stats_.protocol_errors;
            c.poisoned = true;
            encodeErrorResponse(c.session->outbox, Opcode::ProtocolError,
                                0,
                                err(api::ErrorCode::InvalidArgument,
                                    c.decoder.error().c_str()));
            return false;
          case DecodeStatus::Frame:
            ++stats_.frames_decoded;
            if (!handleFrame(conn, c, f)) {
                ++stats_.protocol_errors;
                c.poisoned = true;
                encodeErrorResponse(
                    c.session->outbox, Opcode::ProtocolError, 0,
                    err(api::ErrorCode::InvalidArgument,
                        "unknown request opcode or resume misuse"));
                return false;
            }
            break;
        }
    }
}

bool
ServerCore::handleFrame(ConnId conn, Conn &c, const Frame &f)
{
    // An opcode this build does not serve (including a response
    // opcode echoed back at us) means the peer is not speaking this
    // protocol: connection-fatal, like bad framing.
    if (!validOpcode(f.opcode))
        return false;
    const auto op = static_cast<Opcode>(f.opcode);

    const bool virgin = c.virgin;
    c.virgin = false;
    Session *s = c.session;

    if (draining_) {
        encodeErrorResponse(s->outbox, op, f.request_id,
                            err(api::ErrorCode::Unavailable,
                                "server draining"));
        return true;
    }

    // Malformed payloads on a well-framed request are request-scoped:
    // the frame boundary is intact, so the stream stays in sync and
    // the connection survives.
    const auto bad_payload = [&] {
        encodeErrorResponse(s->outbox, op, f.request_id,
                            err(api::ErrorCode::InvalidArgument,
                                "malformed request payload"));
        return true;
    };

    switch (op) {
      case Opcode::Ping: {
        if (f.payload_len != 0)
            return bad_payload();
        ++stats_.immediate_replies;
        encodeOkResponse(s->outbox, op, f.request_id);
        return true;
      }
      case Opcode::SessionInfo: {
        if (f.payload_len != 0)
            return bad_payload();
        ++stats_.immediate_replies;
        encodeSessionInfoResponse(
            s->outbox, f.request_id, s->token, options_.lease_ticks,
            options_.lease_ticks > 0 ? options_.dedup_window : 0);
        return true;
      }
      case Opcode::Resume: {
        std::uint64_t token = 0;
        if (!decodeResume(f.payload, f.payload_len, &token))
            return bad_payload();
        // Resume anywhere but the head of a fresh stream means the
        // peer is confused about its own state: connection-fatal.
        if (!virgin)
            return false;
        ++stats_.immediate_replies;
        if (options_.lease_ticks == 0) {
            encodeErrorResponse(s->outbox, op, f.request_id,
                                err(api::ErrorCode::Unavailable,
                                    "session leases disabled"));
            return true;
        }
        auto tit = tokens_.find(token);
        if (tit == tokens_.end()) {
            encodeErrorResponse(s->outbox, op, f.request_id,
                                err(api::ErrorCode::InvalidHandle,
                                    "unknown or expired resume "
                                    "token"));
            return true;
        }
        Session *found = findSession(tit->second);
        if (!found)
            fatal("ServerCore: resume token without session");
        Session &target = *found;
        Session &fresh = *c.session;
        if (target.bound != 0) {
            // Still bound — but the server only notices a dead peer
            // through read/write errors, so after a silent peer death
            // (host crash, partition) the old connection looks alive
            // forever. The token is the session's bearer capability:
            // its holder wins. Kick the stale connection by handing
            // it this connection's fresh (virgin, hence empty)
            // session, queue a kick notice for it, and let the
            // transport close it (takeKicked()).
            const ConnId old_conn = target.bound;
            Conn *old = conns_.find(old_conn);
            if (!old)
                fatal("ServerCore: bound session without connection");
            old->session = &fresh;
            old->poisoned = true; // close revokes, not leases
            fresh.bound = old_conn;
            encodeErrorResponse(fresh.outbox, Opcode::ProtocolError, 0,
                                err(api::ErrorCode::Unavailable,
                                    "session resumed from another "
                                    "connection"));
            kicked_.push_back(old_conn);
            // Undelivered output belonged to the dead stream and may
            // end mid-frame on the old socket; the retransmit+dedup
            // path recovers anything lost.
            target.outbox.clear();
            // Normalise the (unused-while-bound) lease counter so a
            // taken-over session is field-identical to a resumed one
            // — the checkpoint digest compares it.
            target.lease_left = 0;
            ++stats_.resume_takeovers;
        } else {
            // Re-bind: discard this connection's fresh session and
            // attach the leased one in its place. The virgin session
            // was never observable, so its id goes back to the
            // allocator — a resumed world stays field-identical to a
            // never-disconnected one (the checkpoint digest compares
            // next_session).
            const SessionId virgin_id = fresh.id;
            if (record_events_)
                session_events_.push_back(
                    {SessionEvent::Kind::DiscardVirgin, virgin_id, 0});
            destroySession(virgin_id);
            if (next_session_ == virgin_id + 1)
                next_session_ = virgin_id;
            target.lease_left = 0;
            --detached_;
        }
        if (record_events_)
            session_events_.push_back(
                {SessionEvent::Kind::Rebind, target.id, 0});
        c.session = &target;
        target.bound = conn;
        ++stats_.leases_resumed;
        // The committed watermark rides on the grant: a client that
        // lost its own request-id counter (fresh process adopting a
        // checkpointed session) restarts above everything committed.
        encodeResumeResponse(target.outbox, f.request_id,
                             target.committed_max);
        return true;
      }
      case Opcode::GetSnapshot: {
        std::uint32_t id = 0;
        if (!decodeIdOnly(f.payload, f.payload_len, &id))
            return bad_payload();
        ++stats_.immediate_replies;
        if (id >= s->apps.size()) {
            encodeErrorResponse(s->outbox, op, f.request_id,
                                err(api::ErrorCode::InvalidHandle,
                                    "unknown local app id"));
            return true;
        }
        auto snap = eco_->getEnergySnapshot(s->apps[id]);
        if (!snap.ok())
            encodeErrorResponse(s->outbox, op, f.request_id,
                                snap.status());
        else
            encodeSnapshotResponse(s->outbox, f.request_id,
                                   snap.value());
        return true;
      }
      case Opcode::RegisterApp: {
        PendingOp p;
        if (!decodeRegisterApp(f.payload, f.payload_len, &p.reg))
            return bad_payload();
        p.session = s->id;
        p.req_id = f.request_id;
        p.op = op;
        admitDeduped(*s, std::move(p));
        return true;
      }
      case Opcode::ApplyCapBatch: {
        PendingOp p;
        if (!decodeCapBatch(f.payload, f.payload_len, &p.caps))
            return bad_payload();
        p.session = s->id;
        p.req_id = f.request_id;
        p.op = op;
        admitDeduped(*s, std::move(p));
        return true;
      }
      case Opcode::DestroyContainer: {
        PendingOp p;
        if (!decodeIdOnly(f.payload, f.payload_len, &p.id))
            return bad_payload();
        p.session = s->id;
        p.req_id = f.request_id;
        p.op = op;
        admitDeduped(*s, std::move(p));
        return true;
      }
      case Opcode::SpawnContainer:
      case Opcode::SetPowercap:
      case Opcode::SetChargeRate:
      case Opcode::SetMaxDischarge:
      case Opcode::SetDemand: {
        IdValueReq req;
        if (!decodeIdValue(f.payload, f.payload_len, &req))
            return bad_payload();
        PendingOp p;
        p.session = s->id;
        p.req_id = f.request_id;
        p.op = op;
        p.id = req.id;
        p.value = req.value;
        admitDeduped(*s, std::move(p));
        return true;
      }
      case Opcode::ProtocolError:
        break; // filtered by validOpcode above
    }
    return false;
}

void
ServerCore::admitDeduped(Session &s, PendingOp &&op)
{
    if (options_.lease_ticks > 0) {
        // Request ids are monotone per session, so an id at or below
        // the committed watermark is a retransmit, and every stored
        // id lies at or below it: a fresh request never searches the
        // window. A retransmit whose reply is still stored gets it
        // again, in the frame it first went out in: the header is
        // rebuilt from the stored opcode and the request id around the
        // stored payload. One already evicted must NOT re-commit (that
        // would break exactly-once); the original response is
        // unrecoverable, so say so instead of lying with a fresh
        // apply.
        if (op.req_id <= s.committed_max) {
            ++stats_.duplicates_replayed;
            const DedupWindow &w = s.done;
            const auto first =
                w.ids.begin() + static_cast<std::ptrdiff_t>(s.done_head);
            const auto it = std::lower_bound(first, w.ids.end(), op.req_id);
            if (it != w.ids.end() && *it == op.req_id) {
                const auto k =
                    static_cast<std::size_t>(it - w.ids.begin());
                const std::size_t off =
                    beginFrame(s.outbox, w.opcodes[k], op.req_id);
                s.outbox.insert(s.outbox.end(),
                                w.bytes.begin() + w.start(k),
                                w.bytes.begin() + w.ends[k]);
                endFrame(s.outbox, off);
                return;
            }
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::Unavailable,
                                    "request already committed; "
                                    "response evicted from the "
                                    "replay window"));
            return;
        }
        // Above the watermark: a duplicate of a still-queued id is
        // swallowed (the commit will answer it).
        const auto pos = std::lower_bound(s.queued.begin(),
                                          s.queued.end(), op.req_id);
        if (pos != s.queued.end() && *pos == op.req_id)
            return;
        const auto at = pos - s.queued.begin();
        const std::uint32_t req_id = op.req_id;
        if (admit(s, std::move(op)))
            s.queued.insert(s.queued.begin() + at, req_id);
        return;
    }
    admit(s, std::move(op));
}

bool
ServerCore::admit(Session &s, PendingOp &&op)
{
    if (s.inflight >= options_.max_inflight_per_conn) {
        ++stats_.admission_rejects;
        encodeErrorResponse(s.outbox, op.op, op.req_id,
                            err(api::ErrorCode::ResourceExhausted,
                                "per-connection inflight budget "
                                "exceeded"));
        return false;
    }
    if (pending_.size() >= options_.max_pending_total) {
        ++stats_.admission_rejects;
        encodeErrorResponse(s.outbox, op.op, op.req_id,
                            err(api::ErrorCode::ResourceExhausted,
                                "global request queue budget "
                                "exceeded"));
        return false;
    }
    ++s.inflight;
    queue(std::move(op));
    return true;
}

namespace {

/** The canonical order's key: session id, then request id. */
std::uint64_t
canonicalKey(const ServerCore::PendingOp &op)
{
    return std::uint64_t{op.session} << 32 | op.req_id;
}

} // namespace

void
ServerCore::queue(PendingOp &&op)
{
    if (pending_.empty())
        pending_sorted_ = true;
    else if (canonicalKey(op) < canonicalKey(pending_.back()))
        pending_sorted_ = false;
    pending_.push_back(std::move(op));
}

void
ServerCore::sortPending()
{
    if (pending_sorted_)
        return;
    // Canonical order: (session id, request id). Session ids are
    // assigned in open order and survive reconnects, and request ids
    // are client-chosen, so for any fixed logical schedule this order
    // — and therefore every downstream settled value — is independent
    // of how the requests' bytes interleaved in flight, or of how many
    // times the connection dropped. A leaseless client may reuse a
    // request id; the arrival index breaks such ties, so equal keys
    // keep arrival order (what a stable sort gives) and the order is
    // unique whatever algorithm std::sort uses. Sorting small keys and
    // then moving each op once beats sorting the ops themselves.
    sort_keys_.clear();
    for (std::size_t i = 0; i < pending_.size(); ++i)
        sort_keys_.push_back(
            {canonicalKey(pending_[i]), static_cast<std::uint32_t>(i)});
    std::sort(sort_keys_.begin(), sort_keys_.end(),
              [](const SortKey &a, const SortKey &b) {
                  return a.key != b.key ? a.key < b.key
                                        : a.arrival < b.arrival;
              });
    sorted_.reserve(pending_.size());
    for (const SortKey &k : sort_keys_)
        sorted_.push_back(std::move(pending_[k.arrival]));
    pending_.swap(sorted_);
    sorted_.clear();
    pending_sorted_ = true;
}

void
ServerCore::recordDone(Session &s, std::uint32_t req_id,
                       const std::uint8_t *frame, std::size_t n)
{
    // Commit order is ascending per session and every admitted id lies
    // above the watermark, so the window stays sorted by construction.
    if (req_id <= s.committed_max)
        panic("ServerCore::recordDone: request id " +
              std::to_string(req_id) + " not above the committed "
              "watermark " + std::to_string(s.committed_max));
    s.committed_max = req_id;
    DedupWindow &w = s.done;
    w.ids.push_back(req_id);
    w.opcodes.push_back(frame[3]); // the header's opcode byte
    w.bytes.insert(w.bytes.end(), frame + kFrameHeaderBytes, frame + n);
    w.ends.push_back(static_cast<std::uint32_t>(w.bytes.size()));

    // Evict down to the window; a restored window larger than it
    // shrinks here in one step.
    std::size_t live = w.ids.size() - s.done_head;
    if (live > options_.dedup_window) {
        s.done_head += live - options_.dedup_window;
        live = options_.dedup_window;
    }
    // Compact once the evicted prefix is as long as the live window:
    // the move costs O(live), paid for by the `live` evictions since
    // the last compaction, and storage stays within twice the window.
    if (s.done_head == 0 || s.done_head < live)
        return;
    const auto head = static_cast<std::ptrdiff_t>(s.done_head);
    const std::uint32_t base = w.start(s.done_head);
    w.ids.erase(w.ids.begin(), w.ids.begin() + head);
    w.ends.erase(w.ends.begin(), w.ends.begin() + head);
    w.opcodes.erase(w.opcodes.begin(), w.opcodes.begin() + head);
    for (std::uint32_t &end : w.ends)
        end -= base;
    w.bytes.erase(w.bytes.begin(), w.bytes.begin() + base);
    s.done_head = 0;
}

void
ServerCore::commitCoalesced(TimeS start_s, TimeS dt_s)
{
    (void)start_s;
    (void)dt_s;
    if (!pending_.empty()) {
        sortPending();
        // The batch and the table both ascend by session id, so the
        // session lookup only ever moves forward.
        auto sit = sessions_.begin();
        for (const PendingOp &op : pending_) {
            sit = sessionAt(op.session, sit);
            if (sit == sessions_.end() || (*sit)->id != op.session)
                continue; // session revoked while queued
            Session &s = **sit;
            const std::size_t before = s.outbox.size();
            apply(op, s);
            --s.inflight;
            ++stats_.coalesced_committed;
            if (options_.lease_ticks > 0) {
                // This batch commits every op the session queued.
                s.queued.clear();
                recordDone(s, op.req_id, s.outbox.data() + before,
                           s.outbox.size() - before);
                // A detached session has no stream to deliver on;
                // the stored copy is replayed when the client
                // retransmits after Resume.
                if (s.bound == 0)
                    s.outbox.resize(before);
            }
        }
        pending_.clear();
    }

    tickLeases();
}

void
ServerCore::tickLeases()
{
    if (detached_ == 0)
        return;
    const std::size_t expired = revokeDetached([](Session &s) {
        if (s.lease_left > 0)
            --s.lease_left;
        return s.lease_left == 0;
    });
    detached_ -= expired;
    stats_.leases_expired += expired;
}

const api::ContainerHandle *
ServerCore::localContainer(const Session &s, std::uint32_t id) const
{
    if (id >= s.containers.size())
        return nullptr;
    return &s.containers[id];
}

void
ServerCore::apply(const PendingOp &op, Session &s)
{
    switch (op.op) {
      case Opcode::RegisterApp: {
        auto h = eco_->tryAddApp(op.reg.name, op.reg.share);
        if (!h.ok()) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                h.status());
            return;
        }
        const auto local =
            static_cast<std::uint32_t>(s.apps.size());
        s.apps.push_back(h.value());
        encodeIdResponse(s.outbox, op.op, op.req_id, local);
        return;
      }
      case Opcode::SpawnContainer: {
        if (op.id >= s.apps.size()) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::InvalidHandle,
                                    "unknown local app id"));
            return;
        }
        const double cores = op.value;
        if (!std::isfinite(cores) || cores <= 0.0) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::InvalidArgument,
                                    "cores must be finite and "
                                    "positive"));
            return;
        }
        auto name = eco_->appName(s.apps[op.id]);
        if (!name.ok()) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                name.status());
            return;
        }
        auto id = eco_->cluster().createContainer(name.value(), cores);
        if (!id) {
            // The cluster is full, not the request malformed — the
            // same admission-style answer a saturated queue gives.
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::ResourceExhausted,
                                    "no node can host the container"));
            return;
        }
        const auto local =
            static_cast<std::uint32_t>(s.containers.size());
        s.containers.push_back(api::handleOf(eco_->cluster(), *id));
        encodeIdResponse(s.outbox, op.op, op.req_id, local);
        return;
      }
      case Opcode::DestroyContainer: {
        const api::ContainerHandle *h = localContainer(s, op.id);
        if (!h) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::InvalidHandle,
                                    "unknown local container id"));
            return;
        }
        const cop::ContainerId id = eco_->cluster().idOf(h->ref());
        if (id == cop::kInvalidContainer) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::UnknownContainer,
                                    "container already destroyed"));
            return;
        }
        eco_->cluster().destroyContainer(id);
        encodeOkResponse(s.outbox, op.op, op.req_id);
        return;
      }
      case Opcode::SetPowercap: {
        const api::ContainerHandle *h = localContainer(s, op.id);
        if (!h) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::InvalidHandle,
                                    "unknown local container id"));
            return;
        }
        auto st = eco_->setContainerPowercap(*h, op.value);
        if (!st.ok())
            encodeErrorResponse(s.outbox, op.op, op.req_id, st);
        else
            encodeOkResponse(s.outbox, op.op, op.req_id);
        return;
      }
      case Opcode::ApplyCapBatch: {
        api::CapBatch batch;
        for (const CapEntry &e : op.caps) {
            const api::ContainerHandle *h =
                localContainer(s, e.container);
            if (!h) {
                // All-or-nothing, like the underlying call: one bad
                // local id rejects the whole batch untouched.
                encodeErrorResponse(
                    s.outbox, op.op, op.req_id,
                    err(api::ErrorCode::InvalidHandle,
                        "unknown local container id in batch"));
                return;
            }
            batch.add(*h, e.cap_w);
        }
        auto st = eco_->applyCapBatch(batch);
        if (!st.ok())
            encodeErrorResponse(s.outbox, op.op, op.req_id, st);
        else
            encodeOkResponse(s.outbox, op.op, op.req_id);
        return;
      }
      case Opcode::SetChargeRate:
      case Opcode::SetMaxDischarge: {
        if (op.id >= s.apps.size()) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::InvalidHandle,
                                    "unknown local app id"));
            return;
        }
        auto st = op.op == Opcode::SetChargeRate
                      ? eco_->setBatteryChargeRate(s.apps[op.id],
                                                   op.value)
                      : eco_->setBatteryMaxDischarge(s.apps[op.id],
                                                     op.value);
        if (!st.ok())
            encodeErrorResponse(s.outbox, op.op, op.req_id, st);
        else
            encodeOkResponse(s.outbox, op.op, op.req_id);
        return;
      }
      case Opcode::SetDemand: {
        const api::ContainerHandle *h = localContainer(s, op.id);
        if (!h) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::InvalidHandle,
                                    "unknown local container id"));
            return;
        }
        if (std::isnan(op.value)) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::InvalidArgument,
                                    "demand must not be NaN"));
            return;
        }
        const cop::ContainerId id = eco_->cluster().idOf(h->ref());
        if (id == cop::kInvalidContainer) {
            encodeErrorResponse(s.outbox, op.op, op.req_id,
                                err(api::ErrorCode::UnknownContainer,
                                    "container destroyed"));
            return;
        }
        eco_->cluster().setDemand(id, op.value);
        encodeOkResponse(s.outbox, op.op, op.req_id);
        return;
      }
      case Opcode::Ping:
      case Opcode::GetSnapshot:
      case Opcode::Resume:
      case Opcode::SessionInfo:
      case Opcode::ProtocolError:
        break; // never queued
    }
    panic("ServerCore::apply: non-coalesced opcode queued");
}

// ---------------------------------------------------------------------
// Checkpoint/restore surface (src/ckpt/, docs/CHECKPOINT.md).
// ---------------------------------------------------------------------

std::vector<SessionEvent>
ServerCore::drainSessionEvents()
{
    std::vector<SessionEvent> out;
    out.swap(session_events_);
    return out;
}

const std::vector<ServerCore::PendingOp> &
ServerCore::canonicalBatch()
{
    sortPending();
    return pending_;
}

void
ServerCore::enqueueForReplay(PendingOp op)
{
    Session *sp = findSession(op.session);
    if (!sp)
        fatal("ServerCore::enqueueForReplay: unknown session "
              "(corrupt WAL?)");
    Session &s = *sp;
    if (options_.lease_ticks > 0) {
        // The log holds each tick's batch in canonical order, every id
        // above its session's watermark: the commit's window invariant.
        const std::uint32_t last =
            s.queued.empty() ? s.committed_max : s.queued.back();
        if (op.req_id <= last)
            fatal("ServerCore::enqueueForReplay: request id " +
                  std::to_string(op.req_id) + " not above " +
                  std::to_string(last) + " (corrupt WAL?)");
        s.queued.push_back(op.req_id);
    }
    ++s.inflight;
    queue(std::move(op));
}

void
ServerCore::applySessionEvent(const SessionEvent &ev)
{
    switch (ev.kind) {
      case SessionEvent::Kind::Open: {
        // Mirror newSession with the *logged* identity: the sid keeps
        // the canonical commit order, the token keeps resumability.
        const auto at = sessionAt(ev.session, sessions_.begin());
        if (ev.session == 0 ||
            (at != sessions_.end() && (*at)->id == ev.session))
            fatal("ServerCore::applySessionEvent: session " +
                  std::to_string(ev.session) +
                  " opened twice (corrupt WAL?)");
        Session &s = **sessions_.insert(at, std::make_unique<Session>());
        s.id = ev.session;
        s.bound = kRecoveryBound;
        if (ev.token != 0) {
            s.token = ev.token;
            tokens_[ev.token] = ev.session;
        }
        if (next_session_ <= ev.session)
            next_session_ = ev.session + 1;
        return;
      }
      case SessionEvent::Kind::Detach: {
        Session *s = findSession(ev.session);
        if (!s)
            return;
        s->bound = 0;
        s->lease_left = options_.lease_ticks;
        s->outbox.clear();
        ++detached_;
        return;
      }
      case SessionEvent::Kind::Destroy: {
        // Recorded only for bound-session closes (lease-ineligible
        // and takeover-kick paths), so detached_ is untouched — the
        // same bookkeeping the live path did.
        destroySession(ev.session);
        return;
      }
      case SessionEvent::Kind::Rebind: {
        Session *s = findSession(ev.session);
        if (!s)
            return;
        if (s->bound == 0)
            --detached_; // live detached-resume decremented here
        s->bound = kRecoveryBound;
        s->lease_left = 0;
        s->outbox.clear();
        return;
      }
      case SessionEvent::Kind::DiscardVirgin: {
        // Mirror the live Resume re-bind: destroy the discarded
        // virgin session and return its id to the allocator.
        destroySession(ev.session);
        if (next_session_ == ev.session + 1)
            next_session_ = ev.session;
        return;
      }
    }
}

void
ServerCore::detachAllForRecovery()
{
    for (const std::unique_ptr<Session> &s : sessions_) {
        if (s->bound == 0)
            continue;
        s->bound = 0;
        s->lease_left = options_.lease_ticks;
        s->outbox.clear();
        ++detached_;
        ++stats_.leases_started;
    }
}

ServerCoreImage
ServerCore::captureSessions() const
{
    // The snapshot point is immediately after a commit: nothing
    // pending, nothing queued, every inflight counter zero. Anything
    // else means the caller snapshotted mid-tick.
    if (!pending_.empty())
        fatal("ServerCore::captureSessions: requests still pending "
              "(snapshot only at a tick boundary)");
    ServerCoreImage image;
    image.next_session = next_session_;
    image.sessions.reserve(sessions_.size());
    for (const std::unique_ptr<Session> &sp : sessions_) {
        const Session &s = *sp;
        SessionImage img;
        img.id = s.id;
        img.token = s.token;
        img.bound = s.bound != 0;
        // lease_left is "unused when bound" (it is re-armed on every
        // detach), so normalise it out of the image: an uninterrupted
        // run's bound session and a crashed-resumed one must encode —
        // and therefore digest — identically.
        img.lease_left = s.bound != 0 ? 0 : s.lease_left;
        img.committed_max = s.committed_max;
        img.apps.reserve(s.apps.size());
        for (const api::AppHandle &h : s.apps)
            img.apps.push_back(h.index());
        img.containers.reserve(s.containers.size());
        for (const api::ContainerHandle &h : s.containers)
            img.containers.push_back(h.ref());
        // The live window, rebased so the image starts at offset 0.
        const DedupWindow &w = s.done;
        const auto head = static_cast<std::ptrdiff_t>(s.done_head);
        const std::uint32_t base = w.start(s.done_head);
        img.done.ids.assign(w.ids.begin() + head, w.ids.end());
        img.done.ends.assign(w.ends.begin() + head, w.ends.end());
        for (std::uint32_t &end : img.done.ends)
            end -= base;
        img.done.opcodes.assign(w.opcodes.begin() + head, w.opcodes.end());
        img.done.bytes.assign(w.bytes.begin() + base, w.bytes.end());
        image.sessions.push_back(std::move(img));
    }
    return image;
}

void
ServerCore::restoreSessions(const ServerCoreImage &image)
{
    if (conns_.size() != 0)
        fatal("ServerCore::restoreSessions: connections are open "
              "(restore before the transport accepts any)");
    sessions_.clear();
    tokens_.clear();
    pending_.clear();
    pending_sorted_ = true;
    kicked_.clear();
    session_events_.clear();
    detached_ = 0;
    next_session_ = image.next_session;
    sessions_.reserve(image.sessions.size());
    for (const SessionImage &img : image.sessions) {
        if (img.id == 0 ||
            (!sessions_.empty() && img.id <= sessions_.back()->id))
            fatal("ServerCore::restoreSessions: session ids not "
                  "strictly ascending from 1");
        Session &s = *sessions_.emplace_back(std::make_unique<Session>());
        s.id = img.id;
        s.token = img.token;
        if (img.token != 0 && !tokens_.emplace(img.token, img.id).second)
            fatal("ServerCore::restoreSessions: resume token shared by "
                  "two sessions");
        s.bound = img.bound ? kRecoveryBound : 0;
        s.lease_left = img.lease_left;
        s.committed_max = img.committed_max;
        if (!img.bound)
            ++detached_;
        s.apps.reserve(img.apps.size());
        for (std::int32_t idx : img.apps)
            s.apps.push_back(api::AppHandle(idx));
        s.containers.reserve(img.containers.size());
        for (const cop::ContainerRef &ref : img.containers)
            s.containers.push_back(api::ContainerHandle(ref));
        s.done = img.done;
        if (next_session_ <= img.id)
            next_session_ = img.id + 1;
    }
}

void
ServerCore::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    sortPending();
    auto sit = sessions_.begin();
    for (const PendingOp &op : pending_) {
        sit = sessionAt(op.session, sit);
        if (sit == sessions_.end() || (*sit)->id != op.session)
            continue;
        Session &s = **sit;
        encodeErrorResponse(s.outbox, op.op, op.req_id,
                            err(api::ErrorCode::Unavailable,
                                "server draining"));
        --s.inflight;
        s.queued.clear();
    }
    pending_.clear();

    // No one can resume into a server that is going away: revoke
    // every detached session now, in id order.
    if (detached_ != 0) {
        const std::size_t orphans =
            revokeDetached([](const Session &) { return true; });
        detached_ -= orphans;
        stats_.leases_expired += orphans;
    }
}

} // namespace ecov::net
