#include "net/frame.h"

#include <cstring>

#include "net/wire.h"
#include "util/logging.h"

namespace ecov::net {

void
FrameDecoder::feed(const std::uint8_t *data, std::size_t n)
{
    if (failed())
        return;
    // Compact before growing: once every complete frame has been
    // consumed the buffer restarts at zero, so a long-lived connection
    // reuses one steady-state allocation instead of growing without
    // bound.
    if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
    } else if (pos_ >= 4096) {
        buf_.erase(buf_.begin(),
                   buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
    buf_.insert(buf_.end(), data, data + n);
}

DecodeStatus
FrameDecoder::next(Frame *out)
{
    if (failed())
        return DecodeStatus::Error;
    const std::size_t avail = buf_.size() - pos_;
    if (avail < kFrameHeaderBytes)
        return DecodeStatus::NeedMore;

    WireReader r(buf_.data() + pos_, kFrameHeaderBytes);
    std::uint16_t magic = 0;
    std::uint8_t version = 0, opcode = 0;
    std::uint32_t request_id = 0, payload_len = 0;
    r.u16(magic);
    r.u8(version);
    r.u8(opcode);
    r.u32(request_id);
    r.u32(payload_len);
    if (!r.done())
        panic("FrameDecoder: header read out of sync"); // unreachable

    if (magic != kFrameMagic) {
        error_ = "bad frame magic";
        return DecodeStatus::Error;
    }
    if (version != kProtocolVersion) {
        error_ = "unsupported protocol version " +
                 std::to_string(static_cast<int>(version));
        return DecodeStatus::Error;
    }
    if (payload_len > max_payload_) {
        error_ = "frame payload length " + std::to_string(payload_len) +
                 " exceeds bound " + std::to_string(max_payload_);
        return DecodeStatus::Error;
    }
    if (avail < kFrameHeaderBytes + payload_len)
        return DecodeStatus::NeedMore;

    out->opcode = opcode;
    out->request_id = request_id;
    out->payload = buf_.data() + pos_ + kFrameHeaderBytes;
    out->payload_len = payload_len;
    pos_ += kFrameHeaderBytes + payload_len;
    return DecodeStatus::Frame;
}

void
FrameDecoder::reset()
{
    buf_.clear();
    pos_ = 0;
    error_.clear();
}

std::size_t
beginFrame(std::vector<std::uint8_t> &out, std::uint8_t opcode,
           std::uint32_t request_id)
{
    const std::size_t off = out.size();
    WireWriter w(&out);
    w.u16(kFrameMagic);
    w.u8(kProtocolVersion);
    w.u8(opcode);
    w.u32(request_id);
    w.u32(0); // payload length, patched by endFrame()
    return off;
}

void
endFrame(std::vector<std::uint8_t> &out, std::size_t header_offset)
{
    const std::size_t payload =
        out.size() - header_offset - kFrameHeaderBytes;
    const auto len = static_cast<std::uint32_t>(payload);
    out[header_offset + 8] = static_cast<std::uint8_t>(len);
    out[header_offset + 9] = static_cast<std::uint8_t>(len >> 8);
    out[header_offset + 10] = static_cast<std::uint8_t>(len >> 16);
    out[header_offset + 11] = static_cast<std::uint8_t>(len >> 24);
}

} // namespace ecov::net
