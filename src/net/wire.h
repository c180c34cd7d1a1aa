/**
 * @file
 * Little-endian wire primitives for the ecovisord protocol.
 *
 * Every multi-byte field on the wire is little-endian regardless of
 * host order (docs/ECOVISORD.md). The reader is strictly bounded: each
 * accessor checks the remaining length before touching bytes and
 * latches a failure flag on the first short read, so a malformed
 * payload can never over-read — the property the frame fuzz suite
 * (tests/net/frame_test) asserts under asan.
 *
 * Doubles travel as their IEEE-754 bit pattern in a little-endian
 * u64 (memcpy through std::uint64_t, no aliasing UB). Both ends of
 * the protocol are IEEE-754, so the determinism contract's
 * bit-identity carries across the wire unchanged.
 */

#ifndef ECOV_NET_WIRE_H
#define ECOV_NET_WIRE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <vector>

namespace ecov::net {

/**
 * Bounds-checked little-endian reader over a borrowed byte range.
 * Accessors return false (and latch fail()) instead of reading past
 * the end; the caller checks once at the end via ok()/done().
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    bool
    u8(std::uint8_t *v)
    {
        if (!need(1))
            return false;
        *v = data_[pos_++];
        return true;
    }

    bool
    u16(std::uint16_t *v)
    {
        if (!need(2))
            return false;
        *v = static_cast<std::uint16_t>(
            static_cast<std::uint16_t>(data_[pos_]) |
            static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
        pos_ += 2;
        return true;
    }

    bool
    u32(std::uint32_t *v)
    {
        if (!need(4))
            return false;
        *v = static_cast<std::uint32_t>(data_[pos_]) |
             static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
             static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
             static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
        pos_ += 4;
        return true;
    }

    bool
    u64(std::uint64_t *v)
    {
        std::uint32_t lo = 0, hi = 0;
        if (!u32(&lo) || !u32(&hi))
            return false;
        *v = static_cast<std::uint64_t>(lo) |
             static_cast<std::uint64_t>(hi) << 32;
        return true;
    }

    bool
    f64(double *v)
    {
        std::uint64_t bits = 0;
        if (!u64(&bits))
            return false;
        static_assert(sizeof(double) == sizeof(std::uint64_t));
        std::memcpy(v, &bits, sizeof bits);
        return true;
    }

    /** A length-delimited byte run; the view borrows the buffer. */
    bool
    bytes(std::string_view *v, std::size_t len)
    {
        if (!need(len))
            return false;
        *v = std::string_view(
            reinterpret_cast<const char *>(data_ + pos_), len);
        pos_ += len;
        return true;
    }

    /** True when no accessor has failed. */
    bool ok() const { return !failed_; }

    /** True when every byte was consumed and nothing failed. */
    bool done() const { return ok() && pos_ == size_; }

    std::size_t remaining() const { return size_ - pos_; }

  private:
    bool
    need(std::size_t n)
    {
        if (failed_ || size_ - pos_ < n) {
            failed_ = true;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool failed_ = false;
};

/**
 * Little-endian appender onto a caller-owned vector. The vector is
 * reused across frames (amortised-zero allocation on the hot path).
 * Each fixed-width field is appended in one step, its bytes laid out
 * in a local word first: a per-byte push_back re-reads the vector's
 * end pointer after every byte, because a byte store may alias it.
 */
class WireWriter
{
  public:
    explicit WireWriter(std::vector<std::uint8_t> *out) : out_(out) {}

    void u8(std::uint8_t v) { out_->push_back(v); }
    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        put(bits);
    }

    void
    bytes(std::string_view v)
    {
        out_->insert(out_->end(),
                     reinterpret_cast<const std::uint8_t *>(v.data()),
                     reinterpret_cast<const std::uint8_t *>(v.data()) +
                         v.size());
    }

    std::vector<std::uint8_t> *buffer() { return out_; }

  private:
    /** Append an unsigned integer's bytes, least significant first. */
    template <typename T>
    void
    put(T v)
    {
        std::uint8_t word[sizeof v];
        std::memcpy(word, &v, sizeof v);
        if constexpr (std::endian::native == std::endian::big)
            std::reverse(word, word + sizeof v);
        out_->insert(out_->end(), word, word + sizeof v);
    }

    std::vector<std::uint8_t> *out_;
};

} // namespace ecov::net

#endif // ECOV_NET_WIRE_H
