#include "telemetry/block.h"

#include <bit>
#include <cstring>

#include "util/logging.h"

namespace ecov::ts {

namespace {

/** LEB128 append. */
inline void
putVarint(std::vector<std::uint8_t> *out, std::uint64_t v)
{
    while (v >= 0x80) {
        out->push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out->push_back(static_cast<std::uint8_t>(v));
}

/** LEB128 read; fatal on truncation. */
inline std::uint64_t
getVarint(const std::vector<std::uint8_t> &in, std::size_t *pos)
{
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
        if (*pos >= in.size() || shift > 63)
            fatal("BlockCursor: corrupt cold block payload");
        const std::uint8_t byte = in[(*pos)++];
        v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return v;
        shift += 7;
    }
}

/** Zigzag: small magnitudes (either sign) -> small varints. */
inline std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

inline std::uint64_t
bitsOf(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

inline double
doubleOf(std::uint64_t u)
{
    double d;
    std::memcpy(&d, &u, sizeof d);
    return d;
}

/**
 * Append a value XOR. Slowly-moving doubles share their low mantissa
 * bits (often exactly-representable steps leave them all zero), so
 * the XOR carries long runs of trailing zeros that a plain varint
 * (low-bits-first) would spell out. Shift them off and record the
 * shift: `0` for a repeated value, else varint(tz + 1) followed by
 * varint(x >> tz).
 */
inline void
putXor(std::vector<std::uint8_t> *out, std::uint64_t x)
{
    if (x == 0) {
        out->push_back(0);
        return;
    }
    const int tz = std::countr_zero(x);
    putVarint(out, static_cast<std::uint64_t>(tz) + 1);
    putVarint(out, x >> tz);
}

/** Read a value XOR written by putXor; fatal on a shift > 63. */
inline std::uint64_t
getXor(const std::vector<std::uint8_t> &in, std::size_t *pos)
{
    const std::uint64_t t = getVarint(in, pos);
    if (t == 0)
        return 0;
    if (t > 64)
        fatal("BlockCursor: corrupt cold block payload");
    return getVarint(in, pos) << (t - 1);
}

} // namespace

SealedBlock
sealBlock(const SampleStore &store, std::size_t count, TimeS start_cut_s,
          TimeS end_cut_s)
{
    if (count == 0)
        fatal("sealBlock: empty span");
    SealedBlock b;
    b.start_cut_s = start_cut_s;
    b.end_cut_s = end_cut_s;
    b.first_time_s = store.frontTime();
    b.last_time_s = store.time(count - 1);
    b.first_value = store.value(0);
    b.last_value = store.value(count - 1);
    b.count = static_cast<std::uint32_t>(count);

    // Sharded recording seals from worker threads, hence one buffer
    // per thread; it keeps its capacity across seals.
    thread_local std::vector<std::uint8_t> buf;
    buf.clear();
    TimeS prev_time = b.first_time_s;
    TimeS prev_delta = 0;
    std::uint64_t prev_bits = bitsOf(b.first_value);
    for (std::size_t i = 1; i < count; ++i) {
        const TimeS time = store.time(i);
        const TimeS delta = time - prev_time;
        putVarint(&buf, zigzag(delta - prev_delta));
        prev_time = time;
        prev_delta = delta;
        const std::uint64_t bits = bitsOf(store.value(i));
        putXor(&buf, bits ^ prev_bits);
        prev_bits = bits;
    }
    b.payload.assign(buf.begin(), buf.end());
    return b;
}

bool
BlockCursor::next(Sample *out)
{
    if (emitted_ >= block_->count)
        return false;
    if (emitted_ == 0) {
        time_ = block_->first_time_s;
        delta_ = 0;
        value_bits_ = bitsOf(block_->first_value);
    } else {
        delta_ += unzigzag(getVarint(block_->payload, &pos_));
        time_ += delta_;
        value_bits_ ^= getXor(block_->payload, &pos_);
    }
    ++emitted_;
    out->time_s = time_;
    out->value = doubleOf(value_bits_);
    return true;
}

} // namespace ecov::ts
