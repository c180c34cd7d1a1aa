/**
 * @file
 * Opcode set and payload codecs for the ecovisord protocol.
 *
 * Each opcode maps 1:1 onto a v2 Ecovisor call (docs/ECOVISORD.md has
 * the full table). Handles never travel on the wire: requests carry
 * *local ids* — dense indices into the issuing connection's own handle
 * namespace (net::ServerCore) — so one tenant can never name, let
 * alone forge, another tenant's app or container.
 *
 * Responses echo the request id, set bit 7 of the opcode, and start
 * with a u16 wire status code (stable values below, independent of
 * the api::ErrorCode enum order). A non-ok status is followed by a
 * length-prefixed message; an ok status by the opcode's result
 * fields.
 */

#ifndef ECOV_NET_PROTOCOL_H
#define ECOV_NET_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "api/snapshot.h"
#include "api/status.h"
#include "core/virtual_energy_system.h"

namespace ecov::net {

/** Request opcodes. Responses are `opcode | kResponseBit`. */
enum class Opcode : std::uint8_t
{
    Ping = 0x01,             ///< liveness / round-trip probe
    RegisterApp = 0x02,      ///< Ecovisor::tryAddApp
    SpawnContainer = 0x03,   ///< Cluster::createContainer (own app)
    DestroyContainer = 0x04, ///< Cluster::destroyContainer (own)
    SetPowercap = 0x05,      ///< Ecovisor::setContainerPowercap
    ApplyCapBatch = 0x06,    ///< Ecovisor::applyCapBatch
    SetChargeRate = 0x07,    ///< Ecovisor::setBatteryChargeRate
    SetMaxDischarge = 0x08,  ///< Ecovisor::setBatteryMaxDischarge
    GetSnapshot = 0x09,      ///< Ecovisor::getEnergySnapshot
    SetDemand = 0x0A,        ///< Cluster::setDemand (own container)
    /** Re-bind a leased session after reconnect. Must be the first
     *  frame on a fresh connection; carries the u64 resume token
     *  handed out by SessionInfo (docs/ECOVISORD.md "Session
     *  leases"). */
    Resume = 0x0B,
    /** Query the connection's resume token and lease length in
     *  ticks (0 when the server runs without leases). */
    SessionInfo = 0x0C,
    /** Server-initiated: sent with request id 0 just before the
     *  server closes a connection that broke framing. */
    ProtocolError = 0x7F,
};

inline constexpr std::uint8_t kResponseBit = 0x80;

/**
 * Protocol revision advertised in the SessionInfo response. Version 1
 * was the pre-fault-plane wire (no snapshot flags byte, no lease
 * grant fields beyond token + ticks); version 2 added the snapshot
 * staleness flags byte and the dedup-window field of the lease grant.
 * Decoders accept the previous revision's payloads (a missing flags
 * byte means "not stale", a short lease grant means "window
 * unknown"), so a one-revision skew yields degraded metadata, never a
 * connection-fatal "malformed response".
 */
inline constexpr std::uint16_t kPayloadVersion = 2;

/** True for a known request opcode value. */
bool validOpcode(std::uint8_t raw);

/**
 * True when the opcode mutates simulation state and must therefore be
 * coalesced to the per-tick commit point rather than applied at
 * arrival (docs/ECOVISORD.md "Coalescing").
 */
bool isCoalesced(Opcode op);

/**
 * Stable wire value for an api::ErrorCode. Values are part of the
 * protocol and never renumbered, so old clients keep decoding new
 * servers' errors correctly.
 */
std::uint16_t wireErrorCode(api::ErrorCode code);

/** Decode a wire status value; false for values this build doesn't
 *  know (the caller should treat the call as failed). */
bool errorCodeFromWire(std::uint16_t wire, api::ErrorCode *out);

// ----------------------------------------------------------------------
// Request payloads. Encoders append a complete frame (header +
// payload) to `out`; decoders parse a payload byte range and return
// false on malformed input (short, trailing bytes, oversize name).
// ----------------------------------------------------------------------

/** Bound on RegisterApp name length (sanity, not a resource limit). */
inline constexpr std::size_t kMaxAppNameBytes = 256;

/** Bound on ApplyCapBatch entry count per request. */
inline constexpr std::uint32_t kMaxCapBatchEntries = 4096;

struct RegisterAppReq
{
    std::string name;
    core::AppShareConfig share;
};

struct CapEntry
{
    std::uint32_t container = 0; ///< connection-local container id
    double cap_w = 0.0;
};

// Field lists (net/wire.h) of the two records that RegisterApp,
// ApplyCapBatch, the snapshot and the WAL all carry.

inline constexpr auto batteryFields = [](auto &io, auto &b) {
    return io.f64(b.capacity_wh) && io.f64(b.soc_floor) &&
           io.f64(b.soc_ceiling) && io.f64(b.max_charge_w) &&
           io.f64(b.max_discharge_w) && io.f64(b.efficiency) &&
           io.f64(b.initial_soc);
};

/** An app's share: solar fraction, grid limit, then the battery share
 *  behind its presence flag. */
inline constexpr auto shareFields = [](auto &io, auto &s) {
    return io.f64(s.solar_fraction) && io.f64(s.grid_max_w) &&
           io.opt(s.battery, batteryFields);
};

inline constexpr auto capEntryFields = [](auto &io, auto &e) {
    return io.u32(e.container) && io.f64(e.cap_w);
};

/** Operand layout shared by every handle+scalar request. */
struct IdValueReq
{
    std::uint32_t id = 0; ///< connection-local app or container id
    double value = 0.0;
};

void encodeRegisterApp(std::vector<std::uint8_t> &out,
                       std::uint32_t request_id,
                       const RegisterAppReq &req);
bool decodeRegisterApp(const std::uint8_t *payload, std::size_t len,
                       RegisterAppReq *req);

/** Ping / GetSnapshot / DestroyContainer: a bare u32 (or nothing). */
void encodeIdOnly(std::vector<std::uint8_t> &out, Opcode op,
                  std::uint32_t request_id, std::uint32_t id);
bool decodeIdOnly(const std::uint8_t *payload, std::size_t len,
                  std::uint32_t *id);

void encodePing(std::vector<std::uint8_t> &out,
                std::uint32_t request_id);

/** SpawnContainer / SetPowercap / SetChargeRate / SetMaxDischarge /
 *  SetDemand: u32 local id + f64 operand. */
void encodeIdValue(std::vector<std::uint8_t> &out, Opcode op,
                   std::uint32_t request_id, const IdValueReq &req);
bool decodeIdValue(const std::uint8_t *payload, std::size_t len,
                   IdValueReq *req);

void encodeCapBatch(std::vector<std::uint8_t> &out,
                    std::uint32_t request_id,
                    const std::vector<CapEntry> &entries);
bool decodeCapBatch(const std::uint8_t *payload, std::size_t len,
                    std::vector<CapEntry> *entries);

/** Resume: the u64 resume token from SessionInfo. */
void encodeResume(std::vector<std::uint8_t> &out,
                  std::uint32_t request_id, std::uint64_t token);
bool decodeResume(const std::uint8_t *payload, std::size_t len,
                  std::uint64_t *token);

/** SessionInfo: no payload. */
void encodeSessionInfo(std::vector<std::uint8_t> &out,
                       std::uint32_t request_id);

// ----------------------------------------------------------------------
// Response payloads.
// ----------------------------------------------------------------------

/** An error reply's message is cut to this many bytes. */
inline constexpr std::size_t kMaxErrorMessageBytes = 512;

/**
 * Append a complete response frame: ok status + writer-provided
 * result fields, or error status + message.
 */
void encodeOkResponse(std::vector<std::uint8_t> &out, Opcode op,
                      std::uint32_t request_id);
void encodeIdResponse(std::vector<std::uint8_t> &out, Opcode op,
                      std::uint32_t request_id, std::uint32_t id);
void encodeSnapshotResponse(std::vector<std::uint8_t> &out,
                            std::uint32_t request_id,
                            const api::EnergySnapshot &snap);
void encodeErrorResponse(std::vector<std::uint8_t> &out, Opcode op,
                         std::uint32_t request_id,
                         const api::Status &status);
/** Resume result: u32 committed-request-id watermark. A client that
 *  lost its own counter (fresh process resuming a persisted session)
 *  restarts request ids above it; older servers omit the field and
 *  decode as watermark 0. */
void encodeResumeResponse(std::vector<std::uint8_t> &out,
                          std::uint32_t request_id,
                          std::uint32_t committed_max);
bool decodeResumeResult(const std::uint8_t *payload, std::size_t len,
                        std::size_t offset,
                        std::uint32_t *committed_max);
/** SessionInfo result: u16 protocol version + u64 resume token +
 *  u32 lease ticks + u32 dedup window (0 = leases disabled). */
void encodeSessionInfoResponse(std::vector<std::uint8_t> &out,
                               std::uint32_t request_id,
                               std::uint64_t token,
                               std::uint32_t lease_ticks,
                               std::uint32_t dedup_window);

/** Decoded common prefix of any response payload. */
struct ResponseHead
{
    api::ErrorCode code = api::ErrorCode::Ok;
    std::string message; ///< empty on ok
};

/**
 * Parse a response payload's status prefix; on success `*consumed`
 * is the offset of the result fields. False on malformed payloads
 * (including unknown wire status values).
 */
bool decodeResponseHead(const std::uint8_t *payload, std::size_t len,
                        ResponseHead *head, std::size_t *consumed);

bool decodeIdResult(const std::uint8_t *payload, std::size_t len,
                    std::size_t offset, std::uint32_t *id);
/** Accepts both the v2 layout (five f64 + flags byte) and the legacy
 *  v1 layout without the flags byte (decoded as `stale = false`). */
bool decodeSnapshotResult(const std::uint8_t *payload, std::size_t len,
                          std::size_t offset,
                          api::EnergySnapshot *snap);
/** Accepts both the v2 layout (version + token + ticks + window) and
 *  the legacy v1 layout (token + ticks), reported as `*version = 1`
 *  with `*dedup_window = 0` (unknown). */
bool decodeSessionInfoResult(const std::uint8_t *payload,
                             std::size_t len, std::size_t offset,
                             std::uint16_t *version,
                             std::uint64_t *token,
                             std::uint32_t *lease_ticks,
                             std::uint32_t *dedup_window);

} // namespace ecov::net

#endif // ECOV_NET_PROTOCOL_H
