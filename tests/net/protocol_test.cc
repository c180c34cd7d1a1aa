/**
 * @file
 * Payload codec round trips and the stable wire error-code mapping,
 * including malformed-payload rejection (short, trailing bytes,
 * forged counts) — the request-scoped robustness layer above framing —
 * and the known-answer bytes of every frame layout.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/wire.h"

namespace ecov::net {
namespace {

using api::ErrorCode;

/** Decode the single frame an encoder emitted. */
Frame
frameOf(FrameDecoder &d, const std::vector<std::uint8_t> &bytes)
{
    d.reset();
    d.feed(bytes.data(), bytes.size());
    Frame f;
    EXPECT_EQ(d.next(&f), DecodeStatus::Frame);
    return f;
}

TEST(Protocol, ErrorCodeWireRoundTrip)
{
    const ErrorCode codes[] = {
        ErrorCode::Ok,
        ErrorCode::InvalidArgument,
        ErrorCode::InvalidHandle,
        ErrorCode::UnknownApp,
        ErrorCode::DuplicateApp,
        ErrorCode::UnknownContainer,
        ErrorCode::ShareViolation,
        ErrorCode::NoBattery,
        ErrorCode::NoSolar,
        ErrorCode::ResourceExhausted,
        ErrorCode::Unavailable,
        ErrorCode::DeadlineExceeded,
        ErrorCode::DataLoss,
    };
    for (ErrorCode c : codes) {
        ErrorCode back = ErrorCode::Ok;
        ASSERT_TRUE(errorCodeFromWire(wireErrorCode(c), &back))
            << static_cast<int>(c);
        EXPECT_EQ(back, c) << static_cast<int>(c);
    }
    // The new admission/drain codes have the documented stable values.
    EXPECT_EQ(wireErrorCode(ErrorCode::ResourceExhausted), 9);
    EXPECT_EQ(wireErrorCode(ErrorCode::Unavailable), 10);
    // Deadline expiry (docs/FAULTS.md) rides the same table.
    EXPECT_EQ(wireErrorCode(ErrorCode::DeadlineExceeded), 11);
    ErrorCode back = ErrorCode::Ok;
    ASSERT_TRUE(errorCodeFromWire(11, &back));
    EXPECT_EQ(back, ErrorCode::DeadlineExceeded);
    // Checkpoint corruption (docs/CHECKPOINT.md) is code 12, forever.
    EXPECT_EQ(wireErrorCode(ErrorCode::DataLoss), 12);
    ASSERT_TRUE(errorCodeFromWire(12, &back));
    EXPECT_EQ(back, ErrorCode::DataLoss);
    ErrorCode out;
    EXPECT_FALSE(errorCodeFromWire(999, &out));
}

TEST(Protocol, RegisterAppRoundTripWithBattery)
{
    RegisterAppReq req;
    req.name = "tenant-42";
    req.share.solar_fraction = 0.25;
    req.share.grid_max_w = 123.5;
    energy::BatteryConfig b;
    b.capacity_wh = 360.0;
    b.soc_floor = 0.25;
    b.soc_ceiling = 0.95;
    b.max_charge_w = 90.0;
    b.max_discharge_w = 360.0;
    b.efficiency = 0.97;
    b.initial_soc = 0.5;
    req.share.battery = b;

    std::vector<std::uint8_t> bytes;
    encodeRegisterApp(bytes, 7, req);
    FrameDecoder d;
    const Frame f = frameOf(d, bytes);
    EXPECT_EQ(f.opcode,
              static_cast<std::uint8_t>(Opcode::RegisterApp));
    EXPECT_EQ(f.request_id, 7u);

    RegisterAppReq back;
    ASSERT_TRUE(decodeRegisterApp(f.payload, f.payload_len, &back));
    EXPECT_EQ(back.name, "tenant-42");
    EXPECT_EQ(back.share.solar_fraction, 0.25);
    EXPECT_EQ(back.share.grid_max_w, 123.5);
    ASSERT_TRUE(back.share.battery.has_value());
    EXPECT_EQ(back.share.battery->capacity_wh, 360.0);
    EXPECT_EQ(back.share.battery->efficiency, 0.97);
    EXPECT_EQ(back.share.battery->initial_soc, 0.5);
}

TEST(Protocol, RegisterAppRoundTripWithoutBattery)
{
    RegisterAppReq req;
    req.name = "n";
    req.share.solar_fraction = 1.0;
    std::vector<std::uint8_t> bytes;
    encodeRegisterApp(bytes, 1, req);
    FrameDecoder d;
    const Frame f = frameOf(d, bytes);
    RegisterAppReq back;
    ASSERT_TRUE(decodeRegisterApp(f.payload, f.payload_len, &back));
    EXPECT_EQ(back.name, "n");
    EXPECT_FALSE(back.share.battery.has_value());
}

TEST(Protocol, NaNSurvivesTheWireBitExactly)
{
    // NaN share parameters must reach the server's validation intact
    // (the server rejects them; the wire must not mangle them into
    // something that passes).
    RegisterAppReq req;
    req.name = "x";
    req.share.solar_fraction = std::nan("");
    std::vector<std::uint8_t> bytes;
    encodeRegisterApp(bytes, 1, req);
    FrameDecoder d;
    const Frame f = frameOf(d, bytes);
    RegisterAppReq back;
    ASSERT_TRUE(decodeRegisterApp(f.payload, f.payload_len, &back));
    EXPECT_TRUE(std::isnan(back.share.solar_fraction));
}

TEST(Protocol, MalformedRegisterAppRejected)
{
    RegisterAppReq req;
    req.name = "abc";
    req.share.solar_fraction = 0.5;
    std::vector<std::uint8_t> bytes;
    encodeRegisterApp(bytes, 1, req);
    FrameDecoder d;
    const Frame f = frameOf(d, bytes);

    RegisterAppReq back;
    // Every strict prefix of the payload is malformed.
    for (std::uint32_t len = 0; len < f.payload_len; ++len)
        EXPECT_FALSE(decodeRegisterApp(f.payload, len, &back))
            << "prefix " << len;
    // Trailing garbage is malformed too.
    std::vector<std::uint8_t> longer(f.payload,
                                     f.payload + f.payload_len);
    longer.push_back(0);
    EXPECT_FALSE(
        decodeRegisterApp(longer.data(), longer.size(), &back));
    // So is a battery flag other than 0 or 1 (after the name's length
    // and bytes, and the solar and grid fields).
    std::vector<std::uint8_t> flagged(f.payload,
                                      f.payload + f.payload_len);
    const std::size_t flag = 2 + 3 + 8 + 8;
    ASSERT_EQ(flagged[flag], 0);
    flagged[flag] = 2;
    EXPECT_FALSE(
        decodeRegisterApp(flagged.data(), flagged.size(), &back));
}

TEST(Protocol, IdValueRoundTripAndRejects)
{
    std::vector<std::uint8_t> bytes;
    encodeIdValue(bytes, Opcode::SetPowercap, 3, {17, 2.5});
    FrameDecoder d;
    const Frame f = frameOf(d, bytes);
    EXPECT_EQ(f.opcode,
              static_cast<std::uint8_t>(Opcode::SetPowercap));
    IdValueReq req;
    ASSERT_TRUE(decodeIdValue(f.payload, f.payload_len, &req));
    EXPECT_EQ(req.id, 17u);
    EXPECT_EQ(req.value, 2.5);
    EXPECT_FALSE(decodeIdValue(f.payload, f.payload_len - 1, &req));
}

TEST(Protocol, CapBatchRoundTripAndForgedCount)
{
    std::vector<CapEntry> entries = {{0, 1.5}, {3, 0.25}, {1, 1e9}};
    std::vector<std::uint8_t> bytes;
    encodeCapBatch(bytes, 11, entries);
    FrameDecoder d;
    const Frame f = frameOf(d, bytes);

    std::vector<CapEntry> back;
    ASSERT_TRUE(decodeCapBatch(f.payload, f.payload_len, &back));
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[1].container, 3u);
    EXPECT_EQ(back[2].cap_w, 1e9);

    // Forge the count upward without supplying the entries: the
    // length cross-check must reject it (no huge reserve, no
    // over-read).
    std::vector<std::uint8_t> forged(f.payload,
                                     f.payload + f.payload_len);
    forged[0] = 0xFF;
    forged[1] = 0xFF;
    EXPECT_FALSE(decodeCapBatch(forged.data(), forged.size(), &back));

    // The entry bound holds however many entries the bytes carry.
    for (const std::uint32_t n :
         {kMaxCapBatchEntries, kMaxCapBatchEntries + 1}) {
        bytes.clear();
        encodeCapBatch(bytes, 12,
                       std::vector<CapEntry>(n, CapEntry{1, 2.0}));
        const Frame big = frameOf(d, bytes);
        EXPECT_EQ(decodeCapBatch(big.payload, big.payload_len, &back),
                  n <= kMaxCapBatchEntries)
            << n << " entries";
    }
}

TEST(Protocol, ResponseHeadOkAndError)
{
    std::vector<std::uint8_t> bytes;
    encodeIdResponse(bytes, Opcode::RegisterApp, 5, 123);
    FrameDecoder d;
    Frame f = frameOf(d, bytes);
    EXPECT_EQ(f.opcode,
              static_cast<std::uint8_t>(Opcode::RegisterApp) |
                  kResponseBit);
    ResponseHead head;
    std::size_t consumed = 0;
    ASSERT_TRUE(decodeResponseHead(f.payload, f.payload_len, &head,
                                   &consumed));
    EXPECT_EQ(head.code, ErrorCode::Ok);
    std::uint32_t id = 0;
    ASSERT_TRUE(
        decodeIdResult(f.payload, f.payload_len, consumed, &id));
    EXPECT_EQ(id, 123u);

    bytes.clear();
    encodeErrorResponse(bytes, Opcode::SetDemand, 6,
                        api::Status::error(
                            ErrorCode::ResourceExhausted,
                            "inflight budget exceeded"));
    f = frameOf(d, bytes);
    ASSERT_TRUE(decodeResponseHead(f.payload, f.payload_len, &head,
                                   &consumed));
    EXPECT_EQ(head.code, ErrorCode::ResourceExhausted);
    EXPECT_EQ(head.message, "inflight budget exceeded");
}

TEST(Protocol, SnapshotRoundTrip)
{
    api::EnergySnapshot snap;
    snap.solar_w = 123.25;
    snap.grid_w = 4.5;
    snap.grid_carbon_g_per_kwh = 301.75;
    snap.battery_discharge_w = 12.0;
    snap.battery_charge_level_wh = 1440.0;

    std::vector<std::uint8_t> bytes;
    encodeSnapshotResponse(bytes, 9, snap);
    FrameDecoder d;
    const Frame f = frameOf(d, bytes);
    ResponseHead head;
    std::size_t consumed = 0;
    ASSERT_TRUE(decodeResponseHead(f.payload, f.payload_len, &head,
                                   &consumed));
    api::EnergySnapshot back;
    ASSERT_TRUE(decodeSnapshotResult(f.payload, f.payload_len,
                                     consumed, &back));
    EXPECT_EQ(back.solar_w, snap.solar_w);
    EXPECT_EQ(back.grid_w, snap.grid_w);
    EXPECT_EQ(back.grid_carbon_g_per_kwh,
              snap.grid_carbon_g_per_kwh);
    EXPECT_EQ(back.battery_discharge_w, snap.battery_discharge_w);
    EXPECT_EQ(back.battery_charge_level_wh,
              snap.battery_charge_level_wh);
}

TEST(Protocol, SnapshotStaleFlagRoundTrip)
{
    api::EnergySnapshot snap;
    snap.solar_w = 55.5;
    snap.stale = true;

    std::vector<std::uint8_t> bytes;
    encodeSnapshotResponse(bytes, 3, snap);
    FrameDecoder d;
    Frame f = frameOf(d, bytes);
    ResponseHead head;
    std::size_t consumed = 0;
    ASSERT_TRUE(decodeResponseHead(f.payload, f.payload_len, &head,
                                   &consumed));
    api::EnergySnapshot back;
    ASSERT_TRUE(decodeSnapshotResult(f.payload, f.payload_len,
                                     consumed, &back));
    EXPECT_TRUE(back.stale);
    EXPECT_EQ(back.solar_w, snap.solar_w);

    // Reserved flag bits must arrive zero: a peer setting them speaks
    // a newer (or corrupted) dialect we cannot interpret.
    bytes.back() = 0x02;
    f = frameOf(d, bytes);
    ASSERT_TRUE(decodeResponseHead(f.payload, f.payload_len, &head,
                                   &consumed));
    EXPECT_FALSE(decodeSnapshotResult(f.payload, f.payload_len,
                                      consumed, &back));
}

TEST(Protocol, SnapshotLegacyLayoutStillDecodes)
{
    // A v1 server's snapshot has no flags byte. It must decode with
    // stale = false, not fail as "malformed snapshot response".
    std::vector<std::uint8_t> legacy;
    WireWriter w(&legacy);
    w.f64(10.0);
    w.f64(20.0);
    w.f64(300.0);
    w.f64(4.0);
    w.f64(500.0);
    api::EnergySnapshot back;
    back.stale = true; // must be overwritten
    ASSERT_TRUE(decodeSnapshotResult(legacy.data(), legacy.size(), 0,
                                     &back));
    EXPECT_FALSE(back.stale);
    EXPECT_EQ(back.solar_w, 10.0);
    EXPECT_EQ(back.battery_charge_level_wh, 500.0);

    // Short payloads are still malformed: tolerance is exactly the
    // two known layouts, nothing in between.
    EXPECT_FALSE(decodeSnapshotResult(legacy.data(),
                                      legacy.size() - 1, 0, &back));
}

TEST(Protocol, ResumeRoundTrip)
{
    std::vector<std::uint8_t> bytes;
    encodeResume(bytes, 17, 0xA1B2'C3D4'E5F6'0708ull);
    FrameDecoder d;
    Frame f = frameOf(d, bytes);
    EXPECT_EQ(f.opcode, static_cast<std::uint8_t>(Opcode::Resume));
    EXPECT_EQ(f.request_id, 17u);
    std::uint64_t token = 0;
    ASSERT_TRUE(decodeResume(f.payload, f.payload_len, &token));
    EXPECT_EQ(token, 0xA1B2'C3D4'E5F6'0708ull);

    // Short and oversized payloads are both malformed.
    EXPECT_FALSE(decodeResume(f.payload, f.payload_len - 1, &token));
    std::vector<std::uint8_t> padded(f.payload,
                                     f.payload + f.payload_len);
    padded.push_back(0);
    EXPECT_FALSE(decodeResume(padded.data(), padded.size(), &token));
}

TEST(Protocol, SessionInfoRoundTrip)
{
    std::vector<std::uint8_t> bytes;
    encodeSessionInfo(bytes, 5);
    FrameDecoder d;
    Frame f = frameOf(d, bytes);
    EXPECT_EQ(f.opcode,
              static_cast<std::uint8_t>(Opcode::SessionInfo));
    EXPECT_EQ(f.payload_len, 0u);

    bytes.clear();
    encodeSessionInfoResponse(bytes, 5, 0xDEAD'5EA5ull, 30, 1024);
    f = frameOf(d, bytes);
    EXPECT_EQ(f.opcode, static_cast<std::uint8_t>(Opcode::SessionInfo) |
                            kResponseBit);
    ResponseHead head;
    std::size_t consumed = 0;
    ASSERT_TRUE(decodeResponseHead(f.payload, f.payload_len, &head,
                                   &consumed));
    EXPECT_EQ(head.code, ErrorCode::Ok);
    std::uint16_t version = 0;
    std::uint64_t token = 0;
    std::uint32_t lease = 0;
    std::uint32_t window = 0;
    ASSERT_TRUE(decodeSessionInfoResult(f.payload, f.payload_len,
                                        consumed, &version, &token,
                                        &lease, &window));
    EXPECT_EQ(version, kPayloadVersion);
    EXPECT_EQ(token, 0xDEAD'5EA5ull);
    EXPECT_EQ(lease, 30u);
    EXPECT_EQ(window, 1024u);
    // Truncated result fields are malformed.
    EXPECT_FALSE(decodeSessionInfoResult(f.payload, f.payload_len - 1,
                                         consumed, &version, &token,
                                         &lease, &window));
}

TEST(Protocol, SessionInfoLegacyLayoutStillDecodes)
{
    // A v1 server's lease grant is exactly token + ticks. It must
    // decode (as version 1, window unknown) rather than fail as
    // malformed — one-revision skew degrades, never disconnects.
    std::vector<std::uint8_t> legacy;
    WireWriter w(&legacy);
    w.u64(0xFEED'F00Dull);
    w.u32(12);
    std::uint16_t version = 0;
    std::uint64_t token = 0;
    std::uint32_t lease = 0;
    std::uint32_t window = 77;
    ASSERT_TRUE(decodeSessionInfoResult(legacy.data(), legacy.size(),
                                        0, &version, &token, &lease,
                                        &window));
    EXPECT_EQ(version, 1u);
    EXPECT_EQ(token, 0xFEED'F00Dull);
    EXPECT_EQ(lease, 12u);
    EXPECT_EQ(window, 0u);
}

TEST(Protocol, OpcodeClassification)
{
    EXPECT_TRUE(isCoalesced(Opcode::RegisterApp));
    EXPECT_TRUE(isCoalesced(Opcode::SpawnContainer));
    EXPECT_TRUE(isCoalesced(Opcode::DestroyContainer));
    EXPECT_TRUE(isCoalesced(Opcode::SetPowercap));
    EXPECT_TRUE(isCoalesced(Opcode::ApplyCapBatch));
    EXPECT_TRUE(isCoalesced(Opcode::SetChargeRate));
    EXPECT_TRUE(isCoalesced(Opcode::SetMaxDischarge));
    EXPECT_TRUE(isCoalesced(Opcode::SetDemand));
    EXPECT_FALSE(isCoalesced(Opcode::Ping));
    EXPECT_FALSE(isCoalesced(Opcode::GetSnapshot));
    // Session-scoped opcodes answer at arrival, never at the commit
    // point — resuming must not wait a tick.
    EXPECT_FALSE(isCoalesced(Opcode::Resume));
    EXPECT_FALSE(isCoalesced(Opcode::SessionInfo));

    EXPECT_TRUE(
        validOpcode(static_cast<std::uint8_t>(Opcode::Ping)));
    EXPECT_TRUE(
        validOpcode(static_cast<std::uint8_t>(Opcode::Resume)));
    EXPECT_TRUE(
        validOpcode(static_cast<std::uint8_t>(Opcode::SessionInfo)));
    EXPECT_FALSE(validOpcode(
        static_cast<std::uint8_t>(Opcode::ProtocolError)));
    EXPECT_FALSE(validOpcode(0x00));
    EXPECT_FALSE(validOpcode(0x42));
    EXPECT_FALSE(validOpcode(
        static_cast<std::uint8_t>(Opcode::Ping) | kResponseBit));
}

// Known answers: the exact bytes each writer call appends, little-endian
// whatever the host, after content already in the buffer. The frame
// and record codecs are all built from these calls.
TEST(Protocol, WireWriterKnownAnswers)
{
    using Bytes = std::vector<std::uint8_t>;
    const auto appended = [](auto write) {
        Bytes out = {0xEE, 0xDD};
        WireWriter w(&out);
        write(w);
        EXPECT_EQ(out[0], 0xEE);
        EXPECT_EQ(out[1], 0xDD);
        return Bytes(out.begin() + 2, out.end());
    };
    EXPECT_EQ(appended([](WireWriter &w) { w.u8(0xA5); }), Bytes{0xA5});
    EXPECT_EQ(appended([](WireWriter &w) { w.u16(0xBEEF); }),
              (Bytes{0xEF, 0xBE}));
    EXPECT_EQ(appended([](WireWriter &w) { w.u32(0x01020304u); }),
              (Bytes{0x04, 0x03, 0x02, 0x01}));
    EXPECT_EQ(
        appended([](WireWriter &w) { w.u64(0x0123456789ABCDEFull); }),
        (Bytes{0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01}));
    EXPECT_EQ(appended([](WireWriter &w) { w.f64(-0.0); }),
              (Bytes{0, 0, 0, 0, 0, 0, 0, 0x80}));
    EXPECT_EQ(appended([](WireWriter &w) { w.f64(INFINITY); }),
              (Bytes{0, 0, 0, 0, 0, 0, 0xF0, 0x7F}));
    // A quiet NaN carrying payload bits: the pattern, not the value,
    // is what travels.
    const std::uint64_t nan_bits = 0x7FF80000DEADBEEFull;
    double nan = 0.0;
    std::memcpy(&nan, &nan_bits, sizeof nan);
    EXPECT_EQ(appended([nan](WireWriter &w) { w.f64(nan); }),
              (Bytes{0xEF, 0xBE, 0xAD, 0xDE, 0, 0, 0xF8, 0x7F}));
    EXPECT_EQ(appended([](WireWriter &w) { w.bytes({}); }), Bytes{});
    EXPECT_EQ(appended([](WireWriter &w) { w.bytes("abc"); }),
              (Bytes{'a', 'b', 'c'}));
    // Consecutive calls abut.
    EXPECT_EQ(appended([](WireWriter &w) {
                  w.u8(1);
                  w.u16(2);
                  w.u32(3);
              }),
              (Bytes{1, 2, 0, 3, 0, 0, 0}));
}

TEST(Protocol, SetDemandFrameKnownAnswer)
{
    std::vector<std::uint8_t> out = {0xEE};
    encodeIdValue(out, Opcode::SetDemand, 0x01020304u,
                  IdValueReq{7, 0.5});
    const std::vector<std::uint8_t> expect = {
        0xEE,                                           // prior content
        0x45, 0x56, 0x01, 0x0A,                         // magic, v1, op
        0x04, 0x03, 0x02, 0x01,                         // request id
        0x0C, 0x00, 0x00, 0x00,                         // payload bytes
        0x07, 0x00, 0x00, 0x00,                         // container 7
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F, // 0.5
    };
    EXPECT_EQ(out, expect);
}

TEST(Protocol, ApplyCapBatchFrameKnownAnswer)
{
    std::vector<std::uint8_t> out = {0xEE};
    encodeCapBatch(out, 9, {CapEntry{1, 2.5}, CapEntry{3, -0.0}});
    const std::vector<std::uint8_t> expect = {
        0xEE,                                           // prior content
        0x45, 0x56, 0x01, 0x06,                         // magic, v1, op
        0x09, 0x00, 0x00, 0x00,                         // request id
        0x1C, 0x00, 0x00, 0x00,                         // payload bytes
        0x02, 0x00, 0x00, 0x00,                         // two entries
        0x01, 0x00, 0x00, 0x00,                         // container 1
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x40, // 2.5 W
        0x03, 0x00, 0x00, 0x00,                         // container 3
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, // -0.0 W
    };
    EXPECT_EQ(out, expect);
}

using Bytes = std::vector<std::uint8_t>;

/** A payload in its frame, the header laid out by hand as
 *  SetDemandFrameKnownAnswer pins it (payloads here stay below
 *  64 KiB). */
Bytes
framed(std::uint8_t opcode, std::uint8_t request_id, Bytes payload)
{
    const std::size_t n = payload.size();
    payload.insert(payload.begin(),
                   {0x45, 0x56, 0x01, opcode, request_id, 0x00, 0x00, 0x00,
                    static_cast<std::uint8_t>(n),
                    static_cast<std::uint8_t>(n >> 8), 0x00, 0x00});
    return payload;
}

/** What an encoder appends to an empty buffer. */
template <typename Encode>
Bytes
encoded(Encode encode)
{
    Bytes out;
    encode(out);
    return out;
}

// Known answers for every other request layout: a field swapped in
// both an encoder and its decoder still round-trips, so only the bytes
// can catch it.
TEST(Protocol, RequestFramesKnownAnswers)
{
    RegisterAppReq with;
    with.name = "ab";
    with.share.solar_fraction = 0.5;
    with.share.grid_max_w = 100.0;
    with.share.battery = energy::BatteryConfig{8.0, 0.25, 1.0, 2.0,
                                               4.0, 0.75, 0.5};
    EXPECT_EQ(encoded([&](Bytes &o) { encodeRegisterApp(o, 3, with); }),
              framed(0x02, 3,
                     {
                         0x02, 0x00, 'a',  'b',              // name
                         0, 0, 0, 0, 0, 0, 0xE0, 0x3F,       // solar 0.5
                         0, 0, 0, 0, 0, 0, 0x59, 0x40,       // grid 100
                         0x01,                               // battery
                         0, 0, 0, 0, 0, 0, 0x20, 0x40,       // 8 Wh
                         0, 0, 0, 0, 0, 0, 0xD0, 0x3F,       // floor .25
                         0, 0, 0, 0, 0, 0, 0xF0, 0x3F,       // ceiling 1
                         0, 0, 0, 0, 0, 0, 0x00, 0x40,       // charge 2 W
                         0, 0, 0, 0, 0, 0, 0x10, 0x40,       // disch. 4 W
                         0, 0, 0, 0, 0, 0, 0xE8, 0x3F,       // eff. 0.75
                         0, 0, 0, 0, 0, 0, 0xE0, 0x3F,       // SOC 0.5
                     }));
    RegisterAppReq without;
    without.name = "c";
    without.share.solar_fraction = 0.25;
    EXPECT_EQ(
        encoded([&](Bytes &o) { encodeRegisterApp(o, 4, without); }),
        framed(0x02, 4,
               {
                   0x01, 0x00, 'c',                    // name
                   0, 0, 0, 0, 0, 0, 0xD0, 0x3F,       // solar 0.25
                   0, 0, 0, 0, 0, 0, 0, 0,             // grid 0
                   0x00,                               // no battery
               }));
    EXPECT_EQ(encoded([](Bytes &o) {
                  encodeIdOnly(o, Opcode::DestroyContainer, 5, 0x0A0B0C0Du);
              }),
              framed(0x04, 5, {0x0D, 0x0C, 0x0B, 0x0A}));
    EXPECT_EQ(encoded([](Bytes &o) { encodePing(o, 1); }),
              framed(0x01, 1, {}));
    EXPECT_EQ(encoded([](Bytes &o) {
                  encodeResume(o, 2, 0x0102030405060708ull);
              }),
              framed(0x0B, 2, {8, 7, 6, 5, 4, 3, 2, 1}));
    EXPECT_EQ(encoded([](Bytes &o) { encodeSessionInfo(o, 6); }),
              framed(0x0C, 6, {}));
}

TEST(Protocol, ResponseFramesKnownAnswers)
{
    EXPECT_EQ(encoded([](Bytes &o) {
                  encodeOkResponse(o, Opcode::SetDemand, 5);
              }),
              framed(0x8A, 5, {0x00, 0x00}));
    EXPECT_EQ(encoded([](Bytes &o) {
                  encodeIdResponse(o, Opcode::SpawnContainer, 7,
                                   0x11223344u);
              }),
              framed(0x83, 7, {0x00, 0x00, 0x44, 0x33, 0x22, 0x11}));
    api::EnergySnapshot snap;
    snap.solar_w = 1.0;
    snap.grid_w = 2.0;
    snap.grid_carbon_g_per_kwh = 100.0;
    snap.battery_discharge_w = 0.5;
    snap.battery_charge_level_wh = 8.0;
    snap.stale = true;
    EXPECT_EQ(
        encoded([&](Bytes &o) { encodeSnapshotResponse(o, 8, snap); }),
        framed(0x89, 8,
               {
                   0x00, 0x00,                         // ok
                   0, 0, 0, 0, 0, 0, 0xF0, 0x3F,       // solar 1 W
                   0, 0, 0, 0, 0, 0, 0x00, 0x40,       // grid 2 W
                   0, 0, 0, 0, 0, 0, 0x59, 0x40,       // 100 g/kWh
                   0, 0, 0, 0, 0, 0, 0xE0, 0x3F,       // disch. 0.5
                   0, 0, 0, 0, 0, 0, 0x20, 0x40,       // level 8 Wh
                   0x01,                               // stale
               }));
    EXPECT_EQ(encoded([](Bytes &o) {
                  encodeErrorResponse(
                      o, Opcode::RegisterApp, 9,
                      api::Status::error(ErrorCode::DuplicateApp, "dup"));
              }),
              framed(0x82, 9, {0x04, 0x00, 0x03, 0x00, 'd', 'u', 'p'}));
    // A message past 512 bytes travels cut to its first 512.
    Bytes cut = {0x0C, 0x00, 0x00, 0x02};
    cut.insert(cut.end(), 512, 'x');
    EXPECT_EQ(encoded([](Bytes &o) {
                  encodeErrorResponse(
                      o, Opcode::GetSnapshot, 10,
                      api::Status::error(ErrorCode::DataLoss,
                                         std::string(600, 'x')));
              }),
              framed(0x89, 10, cut));
    EXPECT_EQ(encoded([](Bytes &o) { encodeResumeResponse(o, 11, 0x0102u); }),
              framed(0x8B, 11, {0x00, 0x00, 0x02, 0x01, 0x00, 0x00}));
    EXPECT_EQ(encoded([](Bytes &o) {
                  encodeSessionInfoResponse(o, 12, 0x1122334455667788ull,
                                            3, 64);
              }),
              framed(0x8C, 12,
                     {
                         0x00, 0x00,                               // ok
                         0x02, 0x00,                               // v2
                         0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22,
                         0x11,                                     // token
                         0x03, 0x00, 0x00, 0x00,                   // lease
                         0x40, 0x00, 0x00, 0x00,                   // window
                     }));
}

} // namespace
} // namespace ecov::net
