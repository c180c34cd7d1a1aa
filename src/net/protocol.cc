#include "net/protocol.h"

#include <algorithm>
#include <iterator>

#include "net/frame.h"
#include "net/wire.h"

namespace ecov::net {

bool
validOpcode(std::uint8_t raw)
{
    switch (static_cast<Opcode>(raw)) {
      case Opcode::Ping:
      case Opcode::RegisterApp:
      case Opcode::SpawnContainer:
      case Opcode::DestroyContainer:
      case Opcode::SetPowercap:
      case Opcode::ApplyCapBatch:
      case Opcode::SetChargeRate:
      case Opcode::SetMaxDischarge:
      case Opcode::GetSnapshot:
      case Opcode::SetDemand:
      case Opcode::Resume:
      case Opcode::SessionInfo:
        return true;
      case Opcode::ProtocolError:
        return false; // server-initiated only, never a request
    }
    return false;
}

bool
isCoalesced(Opcode op)
{
    switch (op) {
      case Opcode::RegisterApp:
      case Opcode::SpawnContainer:
      case Opcode::DestroyContainer:
      case Opcode::SetPowercap:
      case Opcode::ApplyCapBatch:
      case Opcode::SetChargeRate:
      case Opcode::SetMaxDischarge:
      case Opcode::SetDemand:
        return true;
      case Opcode::Ping:
      case Opcode::GetSnapshot:
      case Opcode::Resume:
      case Opcode::SessionInfo:
      case Opcode::ProtocolError:
        return false; // session-scoped / read-only: answered at arrival
    }
    return false;
}

namespace {

/** api::ErrorCode by its stable wire value: append only, never
 *  renumber, so old clients keep decoding new servers' errors. */
constexpr api::ErrorCode kWireErrorCodes[] = {
    api::ErrorCode::Ok,
    api::ErrorCode::InvalidArgument,
    api::ErrorCode::InvalidHandle,
    api::ErrorCode::UnknownApp,
    api::ErrorCode::DuplicateApp,
    api::ErrorCode::UnknownContainer,
    api::ErrorCode::ShareViolation,
    api::ErrorCode::NoBattery,
    api::ErrorCode::NoSolar,
    api::ErrorCode::ResourceExhausted,
    api::ErrorCode::Unavailable,
    api::ErrorCode::DeadlineExceeded,
    api::ErrorCode::DataLoss,
};

// The least a share and a cap entry take, which bounds forged counts.
static_assert(minBytes<core::AppShareConfig>(shareFields) == 17);
static_assert(minBytes<CapEntry>(capEntryFields) == 12);

} // namespace

std::uint16_t
wireErrorCode(api::ErrorCode code)
{
    const auto *it = std::find(std::begin(kWireErrorCodes),
                               std::end(kWireErrorCodes), code);
    if (it == std::end(kWireErrorCodes))
        return 1; // unknown code degrades to invalid_argument
    return static_cast<std::uint16_t>(it - std::begin(kWireErrorCodes));
}

bool
errorCodeFromWire(std::uint16_t wire, api::ErrorCode *out)
{
    if (wire >= std::size(kWireErrorCodes))
        return false;
    *out = kWireErrorCodes[wire];
    return true;
}

void
encodeRegisterApp(std::vector<std::uint8_t> &out,
                  std::uint32_t request_id, const RegisterAppReq &req)
{
    const std::size_t off = beginFrame(
        out, static_cast<std::uint8_t>(Opcode::RegisterApp),
        request_id);
    WireWriter w(&out);
    w.u16(static_cast<std::uint16_t>(req.name.size()));
    w.bytes(req.name);
    shareFields(w, req.share);
    endFrame(out, off);
}

bool
decodeRegisterApp(const std::uint8_t *payload, std::size_t len,
                  RegisterAppReq *req)
{
    WireReader r(payload, len);
    std::uint16_t name_len = 0;
    std::string_view name;
    if (!r.u16(name_len) || name_len > kMaxAppNameBytes ||
        !r.bytes(name, name_len))
        return false;
    req->name.assign(name);
    return shareFields(r, req->share) && r.done();
}

void
encodeIdOnly(std::vector<std::uint8_t> &out, Opcode op,
             std::uint32_t request_id, std::uint32_t id)
{
    const std::size_t off =
        beginFrame(out, static_cast<std::uint8_t>(op), request_id);
    WireWriter w(&out);
    w.u32(id);
    endFrame(out, off);
}

bool
decodeIdOnly(const std::uint8_t *payload, std::size_t len,
             std::uint32_t *id)
{
    WireReader r(payload, len);
    return r.u32(*id) && r.done();
}

void
encodePing(std::vector<std::uint8_t> &out, std::uint32_t request_id)
{
    const std::size_t off = beginFrame(
        out, static_cast<std::uint8_t>(Opcode::Ping), request_id);
    endFrame(out, off);
}

void
encodeIdValue(std::vector<std::uint8_t> &out, Opcode op,
              std::uint32_t request_id, const IdValueReq &req)
{
    const std::size_t off =
        beginFrame(out, static_cast<std::uint8_t>(op), request_id);
    WireWriter w(&out);
    w.u32(req.id);
    w.f64(req.value);
    endFrame(out, off);
}

bool
decodeIdValue(const std::uint8_t *payload, std::size_t len,
              IdValueReq *req)
{
    WireReader r(payload, len);
    return r.u32(req->id) && r.f64(req->value) && r.done();
}

void
encodeCapBatch(std::vector<std::uint8_t> &out,
               std::uint32_t request_id,
               const std::vector<CapEntry> &entries)
{
    const std::size_t off = beginFrame(
        out, static_cast<std::uint8_t>(Opcode::ApplyCapBatch),
        request_id);
    WireWriter w(&out);
    w.list(entries, capEntryFields);
    endFrame(out, off);
}

bool
decodeCapBatch(const std::uint8_t *payload, std::size_t len,
               std::vector<CapEntry> *entries)
{
    WireReader r(payload, len);
    return r.list(*entries, capEntryFields) && r.done() &&
           entries->size() <= kMaxCapBatchEntries;
}

void
encodeResume(std::vector<std::uint8_t> &out, std::uint32_t request_id,
             std::uint64_t token)
{
    const std::size_t off = beginFrame(
        out, static_cast<std::uint8_t>(Opcode::Resume), request_id);
    WireWriter w(&out);
    w.u64(token);
    endFrame(out, off);
}

bool
decodeResume(const std::uint8_t *payload, std::size_t len,
             std::uint64_t *token)
{
    WireReader r(payload, len);
    return r.u64(*token) && r.done();
}

void
encodeSessionInfo(std::vector<std::uint8_t> &out,
                  std::uint32_t request_id)
{
    const std::size_t off = beginFrame(
        out, static_cast<std::uint8_t>(Opcode::SessionInfo),
        request_id);
    endFrame(out, off);
}

namespace {

std::size_t
beginResponse(std::vector<std::uint8_t> &out, Opcode op,
              std::uint32_t request_id)
{
    return beginFrame(
        out, static_cast<std::uint8_t>(op) | kResponseBit, request_id);
}

} // namespace

void
encodeOkResponse(std::vector<std::uint8_t> &out, Opcode op,
                 std::uint32_t request_id)
{
    const std::size_t off = beginResponse(out, op, request_id);
    WireWriter w(&out);
    w.u16(0);
    endFrame(out, off);
}

void
encodeIdResponse(std::vector<std::uint8_t> &out, Opcode op,
                 std::uint32_t request_id, std::uint32_t id)
{
    const std::size_t off = beginResponse(out, op, request_id);
    WireWriter w(&out);
    w.u16(0);
    w.u32(id);
    endFrame(out, off);
}

void
encodeSnapshotResponse(std::vector<std::uint8_t> &out,
                       std::uint32_t request_id,
                       const api::EnergySnapshot &snap)
{
    const std::size_t off =
        beginResponse(out, Opcode::GetSnapshot, request_id);
    WireWriter w(&out);
    w.u16(0);
    w.f64(snap.solar_w);
    w.f64(snap.grid_w);
    w.f64(snap.grid_carbon_g_per_kwh);
    w.f64(snap.battery_discharge_w);
    w.f64(snap.battery_charge_level_wh);
    // Flags byte (added with the fault plane): bit0 = stale, i.e. the
    // readings are last-settled values served through a sensor
    // blackout. Remaining bits are reserved and must be zero, so the
    // byte is a flag.
    w.flag(snap.stale);
    endFrame(out, off);
}

void
encodeErrorResponse(std::vector<std::uint8_t> &out, Opcode op,
                    std::uint32_t request_id, const api::Status &status)
{
    const std::size_t off = beginResponse(out, op, request_id);
    WireWriter w(&out);
    w.u16(wireErrorCode(status.code()));
    std::string_view msg = status.message();
    if (msg.size() > kMaxErrorMessageBytes)
        msg = msg.substr(0, kMaxErrorMessageBytes);
    w.u16(static_cast<std::uint16_t>(msg.size()));
    w.bytes(msg);
    endFrame(out, off);
}

bool
decodeResponseHead(const std::uint8_t *payload, std::size_t len,
                   ResponseHead *head, std::size_t *consumed)
{
    WireReader r(payload, len);
    std::uint16_t wire = 0;
    if (!r.u16(wire))
        return false;
    if (!errorCodeFromWire(wire, &head->code))
        return false;
    head->message.clear();
    *consumed = 2;
    if (head->code != api::ErrorCode::Ok) {
        std::uint16_t msg_len = 0;
        std::string_view msg;
        if (!r.u16(msg_len) || !r.bytes(msg, msg_len) || !r.done())
            return false;
        head->message.assign(msg);
        *consumed = len;
    }
    return true;
}

bool
decodeIdResult(const std::uint8_t *payload, std::size_t len,
               std::size_t offset, std::uint32_t *id)
{
    if (offset > len)
        return false;
    WireReader r(payload + offset, len - offset);
    return r.u32(*id) && r.done();
}

bool
decodeSnapshotResult(const std::uint8_t *payload, std::size_t len,
                     std::size_t offset, api::EnergySnapshot *snap)
{
    if (offset > len)
        return false;
    WireReader r(payload + offset, len - offset);
    if (!(r.f64(snap->solar_w) && r.f64(snap->grid_w) &&
          r.f64(snap->grid_carbon_g_per_kwh) &&
          r.f64(snap->battery_discharge_w) &&
          r.f64(snap->battery_charge_level_wh)))
        return false;
    // Version skew tolerance: a v1 peer's payload ends here (no flags
    // byte); readings from a server that cannot mark staleness are
    // taken at face value.
    if (r.done()) {
        snap->stale = false;
        return true;
    }
    return r.flag(snap->stale) && r.done();
}

bool
decodeSessionInfoResult(const std::uint8_t *payload, std::size_t len,
                        std::size_t offset, std::uint16_t *version,
                        std::uint64_t *token,
                        std::uint32_t *lease_ticks,
                        std::uint32_t *dedup_window)
{
    if (offset > len)
        return false;
    WireReader r(payload + offset, len - offset);
    // A v1 lease grant is exactly token + ticks (12 bytes); the v2
    // layout leads with a u16 version and appends the dedup window.
    // The lengths differ, so the two parses cannot be confused.
    if (r.remaining() == 12) {
        *version = 1;
        *dedup_window = 0; // unknown: the client cannot enforce it
        return r.u64(*token) && r.u32(*lease_ticks) && r.done();
    }
    return r.u16(*version) && r.u64(*token) && r.u32(*lease_ticks) &&
           r.u32(*dedup_window) && r.done();
}

void
encodeResumeResponse(std::vector<std::uint8_t> &out,
                     std::uint32_t request_id,
                     std::uint32_t committed_max)
{
    const std::size_t off =
        beginResponse(out, Opcode::Resume, request_id);
    WireWriter w(&out);
    w.u16(0);
    w.u32(committed_max);
    endFrame(out, off);
}

bool
decodeResumeResult(const std::uint8_t *payload, std::size_t len,
                   std::size_t offset, std::uint32_t *committed_max)
{
    if (offset > len)
        return false;
    WireReader r(payload + offset, len - offset);
    // Version skew tolerance: a pre-checkpoint server's Resume
    // response carries no result fields — report watermark 0 (the
    // client then trusts only its own request-id counter).
    if (r.done()) {
        *committed_max = 0;
        return true;
    }
    return r.u32(*committed_max) && r.done();
}

void
encodeSessionInfoResponse(std::vector<std::uint8_t> &out,
                          std::uint32_t request_id,
                          std::uint64_t token,
                          std::uint32_t lease_ticks,
                          std::uint32_t dedup_window)
{
    const std::size_t off =
        beginResponse(out, Opcode::SessionInfo, request_id);
    WireWriter w(&out);
    w.u16(0);
    w.u16(kPayloadVersion);
    w.u64(token);
    w.u32(lease_ticks);
    w.u32(dedup_window);
    endFrame(out, off);
}

} // namespace ecov::net
