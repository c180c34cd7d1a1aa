#include "net/client.h"

#include <chrono>

namespace ecov::net {

namespace {

api::Status
opcodeMismatch()
{
    return api::Status::error(api::ErrorCode::Unavailable,
                              "response opcode does not match the "
                              "request — stream desynchronised");
}

} // namespace

// ----------------------------------------------------------------------
// Pipelined sends.
// ----------------------------------------------------------------------

std::uint32_t
Client::finishSend(std::uint32_t req_id)
{
    ++requests_sent_;
    // Never push past the server's replay window: a retry of a
    // request the window has already evicted cannot be answered and
    // must not re-commit, so the send is refused locally instead.
    // The caller's await sees the rejection; pumping replies shrinks
    // the backlog and unblocks further sends.
    if (track_ && dedup_window_ > 0 &&
        unacked_.size() >= dedup_window_) {
        Reply r;
        r.head.code = api::ErrorCode::ResourceExhausted;
        r.head.message =
            "unacknowledged-request backlog reached the server's "
            "replay window; pump replies before sending more";
        replies_[req_id] = std::move(r);
        return req_id;
    }
    // Track before transmitting: a frame that dies with the
    // transport is exactly the one resume() must retransmit.
    if (track_)
        unacked_[req_id] = tx_;
    if (conn_error_.ok()) {
        api::Status st =
            transport_->send(tx_.data(), tx_.size());
        if (!st.ok())
            latch(std::move(st));
    }
    return req_id;
}

std::uint32_t
Client::sendPing()
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    encodePing(tx_, req);
    return finishSend(req);
}

std::uint32_t
Client::sendRegisterApp(const std::string &name,
                        const core::AppShareConfig &share)
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    RegisterAppReq r;
    r.name = name;
    r.share = share;
    encodeRegisterApp(tx_, req, r);
    return finishSend(req);
}

std::uint32_t
Client::sendSpawnContainer(RemoteApp app, double cores)
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    encodeIdValue(tx_, Opcode::SpawnContainer, req,
                  {app.id, cores});
    return finishSend(req);
}

std::uint32_t
Client::sendDestroyContainer(RemoteContainer c)
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    encodeIdOnly(tx_, Opcode::DestroyContainer, req, c.id);
    return finishSend(req);
}

std::uint32_t
Client::sendSetContainerPowercap(RemoteContainer c, double cap_w)
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    encodeIdValue(tx_, Opcode::SetPowercap, req, {c.id, cap_w});
    return finishSend(req);
}

std::uint32_t
Client::sendApplyCapBatch(const std::vector<RemoteCap> &caps)
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    batch_scratch_.clear();
    for (const RemoteCap &c : caps)
        batch_scratch_.push_back({c.container.id, c.cap_w});
    encodeCapBatch(tx_, req, batch_scratch_);
    return finishSend(req);
}

std::uint32_t
Client::sendSetBatteryChargeRate(RemoteApp app, double rate_w)
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    encodeIdValue(tx_, Opcode::SetChargeRate, req, {app.id, rate_w});
    return finishSend(req);
}

std::uint32_t
Client::sendSetBatteryMaxDischarge(RemoteApp app, double rate_w)
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    encodeIdValue(tx_, Opcode::SetMaxDischarge, req,
                  {app.id, rate_w});
    return finishSend(req);
}

std::uint32_t
Client::sendSetDemand(RemoteContainer c, double demand)
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    encodeIdValue(tx_, Opcode::SetDemand, req, {c.id, demand});
    return finishSend(req);
}

std::uint32_t
Client::sendGetSnapshot(RemoteApp app)
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    encodeIdOnly(tx_, Opcode::GetSnapshot, req, app.id);
    return finishSend(req);
}

// ----------------------------------------------------------------------
// Receive path.
// ----------------------------------------------------------------------

void
Client::latch(api::Status status)
{
    if (conn_error_.ok())
        conn_error_ = std::move(status);
}

api::Status
Client::pump(int timeout_ms)
{
    if (!conn_error_.ok())
        return conn_error_;
    rx_scratch_.clear();
    api::Status st = transport_->receiveSome(rx_scratch_, timeout_ms);
    if (!st.ok()) {
        // A spent receive budget is transient: the reply may still
        // arrive, so the connection must not latch.
        if (st.code() == api::ErrorCode::DeadlineExceeded)
            return st;
        latch(st);
        return conn_error_;
    }
    decoder_.feed(rx_scratch_.data(), rx_scratch_.size());
    for (;;) {
        Frame f;
        switch (decoder_.next(&f)) {
          case DecodeStatus::NeedMore:
            return api::Status::okStatus();
          case DecodeStatus::Error:
            latch(api::Status::error(api::ErrorCode::Unavailable,
                                     "malformed response stream: " +
                                         decoder_.error()));
            return conn_error_;
          case DecodeStatus::Frame: {
            Reply reply;
            reply.opcode = f.opcode;
            std::size_t consumed = 0;
            if (!decodeResponseHead(f.payload, f.payload_len,
                                    &reply.head, &consumed)) {
                latch(api::Status::error(
                    api::ErrorCode::Unavailable,
                    "malformed response payload"));
                return conn_error_;
            }
            reply.result.assign(f.payload + consumed,
                                f.payload + f.payload_len);
            const std::uint8_t protocol_error_resp =
                static_cast<std::uint8_t>(Opcode::ProtocolError) |
                kResponseBit;
            if (f.opcode == protocol_error_resp) {
                // Server-initiated: the connection is about to die.
                latch(api::Status::error(
                    api::ErrorCode::Unavailable,
                    "server reported a protocol error: " +
                        reply.head.message));
                return conn_error_;
            }
            unacked_.erase(f.request_id);
            replies_[f.request_id] = std::move(reply);
            break;
          }
        }
    }
}

bool
Client::replyReady(std::uint32_t request_id) const
{
    return replies_.count(request_id) != 0;
}

api::Status
Client::take(std::uint32_t request_id, Reply *out)
{
    using Clock = std::chrono::steady_clock;
    const bool limited = call_timeout_ms_ > 0;
    const Clock::time_point deadline =
        limited ? Clock::now() +
                      std::chrono::milliseconds(call_timeout_ms_)
                : Clock::time_point();
    for (;;) {
        auto it = replies_.find(request_id);
        if (it != replies_.end()) {
            *out = std::move(it->second);
            replies_.erase(it);
            return api::Status::okStatus();
        }
        if (!conn_error_.ok())
            return conn_error_;
        int budget_ms = 0;
        if (limited) {
            const Clock::duration left = deadline - Clock::now();
            if (left <= Clock::duration::zero())
                return api::Status::error(
                    api::ErrorCode::DeadlineExceeded,
                    "call deadline elapsed awaiting the reply");
            // Rounded up, so the receive never gives up before the
            // deadline; a fraction of a millisecond left still waits.
            budget_ms = static_cast<int>(
                std::chrono::ceil<std::chrono::milliseconds>(left)
                    .count());
        }
        api::Status st = pump(budget_ms);
        if (!st.ok()) {
            // A timed-out receive is not the call's deadline: go round
            // and let the clock check above decide.
            if (limited && st.code() == api::ErrorCode::DeadlineExceeded)
                continue;
            return st;
        }
    }
}

// ----------------------------------------------------------------------
// Awaits.
// ----------------------------------------------------------------------

api::Status
Client::await(std::uint32_t request_id)
{
    Reply r;
    api::Status st = take(request_id, &r);
    if (!st.ok())
        return st;
    if (r.head.code != api::ErrorCode::Ok)
        return api::Status::error(r.head.code,
                                  std::move(r.head.message));
    return api::Status::okStatus();
}

api::Result<RemoteApp>
Client::awaitApp(std::uint32_t request_id)
{
    Reply r;
    api::Status st = take(request_id, &r);
    if (!st.ok())
        return st;
    if (r.head.code != api::ErrorCode::Ok)
        return api::Status::error(r.head.code,
                                  std::move(r.head.message));
    if (r.opcode !=
        (static_cast<std::uint8_t>(Opcode::RegisterApp) |
         kResponseBit))
        return opcodeMismatch();
    RemoteApp app;
    if (!decodeIdResult(r.result.data(), r.result.size(), 0, &app.id))
        return api::Status::error(api::ErrorCode::Unavailable,
                                  "malformed register_app response");
    return app;
}

api::Result<RemoteContainer>
Client::awaitContainer(std::uint32_t request_id)
{
    Reply r;
    api::Status st = take(request_id, &r);
    if (!st.ok())
        return st;
    if (r.head.code != api::ErrorCode::Ok)
        return api::Status::error(r.head.code,
                                  std::move(r.head.message));
    if (r.opcode !=
        (static_cast<std::uint8_t>(Opcode::SpawnContainer) |
         kResponseBit))
        return opcodeMismatch();
    RemoteContainer c;
    if (!decodeIdResult(r.result.data(), r.result.size(), 0, &c.id))
        return api::Status::error(
            api::ErrorCode::Unavailable,
            "malformed spawn_container response");
    return c;
}

api::Result<api::EnergySnapshot>
Client::awaitSnapshot(std::uint32_t request_id)
{
    Reply r;
    api::Status st = take(request_id, &r);
    if (!st.ok())
        return st;
    if (r.head.code != api::ErrorCode::Ok)
        return api::Status::error(r.head.code,
                                  std::move(r.head.message));
    if (r.opcode !=
        (static_cast<std::uint8_t>(Opcode::GetSnapshot) |
         kResponseBit))
        return opcodeMismatch();
    api::EnergySnapshot snap;
    if (!decodeSnapshotResult(r.result.data(), r.result.size(), 0,
                              &snap))
        return api::Status::error(api::ErrorCode::Unavailable,
                                  "malformed snapshot response");
    return snap;
}

// ----------------------------------------------------------------------
// Session leases (docs/FAULTS.md).
// ----------------------------------------------------------------------

api::Status
Client::beginSession()
{
    const std::uint32_t req = next_req_++;
    tx_.clear();
    encodeSessionInfo(tx_, req);
    finishSend(req);
    Reply r;
    api::Status st = take(req, &r);
    if (!st.ok())
        return st;
    if (r.head.code != api::ErrorCode::Ok)
        return api::Status::error(r.head.code,
                                  std::move(r.head.message));
    if (r.opcode !=
        (static_cast<std::uint8_t>(Opcode::SessionInfo) |
         kResponseBit))
        return opcodeMismatch();
    std::uint16_t version = 0;
    if (!decodeSessionInfoResult(r.result.data(), r.result.size(), 0,
                                 &version, &token_, &lease_ticks_,
                                 &dedup_window_))
        return api::Status::error(api::ErrorCode::Unavailable,
                                  "malformed session_info response");
    // A server more than one revision ahead may have changed payload
    // layouts we cannot decode; name the mismatch instead of failing
    // later with a misleading "malformed response".
    if (version > kPayloadVersion)
        return api::Status::error(
            api::ErrorCode::Unavailable,
            "protocol version mismatch: server speaks v" +
                std::to_string(version) + ", client speaks v" +
                std::to_string(kPayloadVersion));
    track_ = lease_ticks_ > 0;
    return api::Status::okStatus();
}

void
Client::bindTransport(Transport *transport)
{
    transport_ = transport;
    conn_error_ = api::Status::okStatus();
    decoder_.reset();
    rx_scratch_.clear();
}

api::Status
Client::resume()
{
    if (token_ == 0)
        return api::Status::error(api::ErrorCode::InvalidArgument,
                                  "no leased session to resume "
                                  "(beginSession first)");
    if (!conn_error_.ok())
        return conn_error_;

    // Resume must be the first frame on the fresh stream; requests
    // queued while disconnected were tracked but never transmitted,
    // so nothing has raced ahead of us here.
    const std::uint32_t req = next_req_++;
    tx_.clear();
    encodeResume(tx_, req, token_);
    api::Status st = transport_->send(tx_.data(), tx_.size());
    if (!st.ok()) {
        latch(std::move(st));
        return conn_error_;
    }
    Reply r;
    st = take(req, &r);
    if (!st.ok())
        return st;
    if (r.head.code != api::ErrorCode::Ok)
        return api::Status::error(r.head.code,
                                  std::move(r.head.message));
    if (r.opcode != (static_cast<std::uint8_t>(Opcode::Resume) |
                     kResponseBit))
        return opcodeMismatch();

    // The server reports the session's committed-request-id watermark
    // so a client with no memory of its own counter (a fresh process
    // adopting a persisted session) never reuses an id that already
    // committed. Older servers omit the field (watermark 0).
    std::uint32_t watermark = 0;
    if (!decodeResumeResult(r.result.data(), r.result.size(), 0,
                            &watermark))
        return api::Status::error(api::ErrorCode::Unavailable,
                                  "malformed resume response");
    if (watermark >= next_req_)
        next_req_ = watermark + 1;

    // Retransmit everything unacknowledged in request-id order. The
    // server's dedup window replays what already committed and
    // swallows what is still queued — each mutation lands exactly
    // once regardless of where the old connection died.
    for (const auto &[id, frame] : unacked_) {
        (void)id;
        st = transport_->send(frame.data(), frame.size());
        if (!st.ok()) {
            latch(std::move(st));
            return conn_error_;
        }
    }
    return api::Status::okStatus();
}

void
Client::adoptSession(std::uint64_t token)
{
    token_ = token;
    track_ = token != 0;
}

void
Client::abandonSession()
{
    unacked_.clear();
    token_ = 0;
    lease_ticks_ = 0;
    dedup_window_ = 0;
    track_ = false;
}

// ----------------------------------------------------------------------
// Synchronous wrappers.
// ----------------------------------------------------------------------

api::Status
Client::ping()
{
    return await(sendPing());
}

api::Result<RemoteApp>
Client::registerApp(const std::string &name,
                    const core::AppShareConfig &share)
{
    return awaitApp(sendRegisterApp(name, share));
}

api::Result<RemoteContainer>
Client::spawnContainer(RemoteApp app, double cores)
{
    return awaitContainer(sendSpawnContainer(app, cores));
}

api::Status
Client::destroyContainer(RemoteContainer c)
{
    return await(sendDestroyContainer(c));
}

api::Status
Client::setContainerPowercap(RemoteContainer c, double cap_w)
{
    return await(sendSetContainerPowercap(c, cap_w));
}

api::Status
Client::applyCapBatch(const std::vector<RemoteCap> &caps)
{
    return await(sendApplyCapBatch(caps));
}

api::Status
Client::setBatteryChargeRate(RemoteApp app, double rate_w)
{
    return await(sendSetBatteryChargeRate(app, rate_w));
}

api::Status
Client::setBatteryMaxDischarge(RemoteApp app, double rate_w)
{
    return await(sendSetBatteryMaxDischarge(app, rate_w));
}

api::Status
Client::setDemand(RemoteContainer c, double demand)
{
    return await(sendSetDemand(c, demand));
}

api::Result<api::EnergySnapshot>
Client::getEnergySnapshot(RemoteApp app)
{
    return awaitSnapshot(sendGetSnapshot(app));
}

} // namespace ecov::net
