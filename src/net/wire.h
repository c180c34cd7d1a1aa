/**
 * @file
 * Little-endian wire primitives, and the three Ios that every record's
 * field list runs on.
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
 *
 * A record is declared once, as a field list: a generic callable
 * `fields(io, record)` that names each field in wire order through the
 * Io's accessors and returns true when every one succeeded. Run on a
 * WireWriter it appends the record; on a WireReader it parses one,
 * refusing any byte no writer emits (a flag other than 0 or 1, an enum
 * value its rule rejects); on a WireSizer it sums the bytes a record
 * takes with every list empty and every optional absent. That sum is
 * the least any element of the type can take, so the reader bounds
 * each element count by the bytes left before it reserves anything.
 */

#ifndef ECOV_NET_WIRE_H
#define ECOV_NET_WIRE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ecov::net {

/**
 * The Io that measures: every accessor adds its field's encoded size.
 * Lists count only their u32 count and optionals only their flag.
 */
class WireSizer
{
  public:
    constexpr bool u32(std::uint32_t) { return add(4); }
    constexpr bool u64(std::uint64_t) { return add(8); }
    constexpr bool f64(double) { return add(8); }
    constexpr bool i32(std::int32_t) { return add(4); }
    constexpr bool i64(std::int64_t) { return add(8); }
    constexpr bool flag(bool) { return add(1); }
    constexpr bool str(std::string_view) { return add(4); }

    template <class V, class Each>
    constexpr bool list(const V &, Each) { return add(4); }

    template <class T, class Each>
    constexpr bool opt(const std::optional<T> &, Each) { return add(1); }

    template <class E, class Valid>
    constexpr bool code(E, Valid) { return add(1); }

    constexpr std::size_t size() const { return size_; }

  private:
    constexpr bool
    add(std::size_t n)
    {
        size_ += n;
        return true;
    }

    std::size_t size_ = 0;
};

/** The fewest bytes a `T` encodes to under the field list `fields`. */
template <class T, class Fields>
constexpr std::size_t
minBytes(Fields fields)
{
    WireSizer s;
    T probe{};
    fields(s, probe);
    return s.size();
}

/**
 * Bounds-checked little-endian reader over a borrowed byte range.
 * Accessors return false (and latch fail()) instead of reading past
 * the end or accepting a value no writer emits; the caller checks
 * once at the end via ok()/done().
 */
class WireReader
{
  public:
    WireReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    bool
    u8(std::uint8_t &v)
    {
        if (!need(1))
            return false;
        v = data_[pos_++];
        return true;
    }

    bool
    u16(std::uint16_t &v)
    {
        if (!need(2))
            return false;
        v = static_cast<std::uint16_t>(
            static_cast<std::uint16_t>(data_[pos_]) |
            static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
        pos_ += 2;
        return true;
    }

    bool
    u32(std::uint32_t &v)
    {
        if (!need(4))
            return false;
        v = static_cast<std::uint32_t>(data_[pos_]) |
            static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
            static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
            static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
        pos_ += 4;
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        std::uint32_t lo = 0, hi = 0;
        if (!u32(lo) || !u32(hi))
            return false;
        v = static_cast<std::uint64_t>(lo) |
            static_cast<std::uint64_t>(hi) << 32;
        return true;
    }

    bool
    f64(double &v)
    {
        std::uint64_t bits = 0;
        if (!u64(bits))
            return false;
        static_assert(sizeof(double) == sizeof(std::uint64_t));
        std::memcpy(&v, &bits, sizeof bits);
        return true;
    }

    bool
    i32(std::int32_t &v)
    {
        std::uint32_t u = 0;
        if (!u32(u))
            return false;
        v = static_cast<std::int32_t>(u);
        return true;
    }

    bool
    i64(std::int64_t &v)
    {
        std::uint64_t u = 0;
        if (!u64(u))
            return false;
        v = static_cast<std::int64_t>(u);
        return true;
    }

    /** A bool: a byte of 0 or 1, the only values a writer emits. */
    bool
    flag(bool &v)
    {
        std::uint8_t b = 0;
        if (!u8(b) || b > 1)
            return fail();
        v = b != 0;
        return true;
    }

    /** A length-delimited byte run; the view borrows the buffer. */
    bool
    bytes(std::string_view &v, std::size_t len)
    {
        if (!need(len))
            return false;
        v = std::string_view(
            reinterpret_cast<const char *>(data_ + pos_), len);
        pos_ += len;
        return true;
    }

    /**
     * A column of `n` little-endian unsigned integers, appended to
     * `v`: one copy on a little-endian host.
     */
    template <class T>
    bool
    column(std::vector<T> &v, std::size_t n)
    {
        static_assert(std::is_unsigned_v<T>);
        if (failed_ || n > remaining() / sizeof(T))
            return fail();
        if (n == 0)
            return true;
        const std::size_t at = v.size();
        v.resize(at + n);
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(v.data() + at, data_ + pos_, n * sizeof(T));
        } else {
            for (std::size_t k = 0; k < n; ++k) {
                T e = 0;
                for (std::size_t b = 0; b < sizeof(T); ++b)
                    e |= static_cast<T>(
                        static_cast<T>(data_[pos_ + k * sizeof(T) + b])
                        << (8 * b));
                v[at + k] = e;
            }
        }
        pos_ += n * sizeof(T);
        return true;
    }

    /** A u32-prefixed byte run, borrowed (the view) or copied. */
    bool
    str(std::string_view &v)
    {
        std::uint32_t len = 0;
        return u32(len) && bytes(v, len);
    }

    bool
    str(std::string &s)
    {
        std::string_view v;
        if (!str(v))
            return false;
        s.assign(v);
        return true;
    }

    /**
     * A u32 element count, refused when the bytes left cannot hold
     * that many elements of `min_bytes` each, so a forged count can
     * never drive a huge reserve().
     */
    bool
    count(std::uint32_t &n, std::size_t min_bytes)
    {
        if (!u32(n) || n > remaining() / min_bytes)
            return fail();
        return true;
    }

    /** A counted list; `each` reads one element. */
    template <class V, class Each>
    bool
    list(V &v, Each each)
    {
        std::uint32_t n = 0;
        if (!count(n, minBytes<typename V::value_type>(each)))
            return false;
        v.clear();
        v.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i)
            if (!each(*this, v.emplace_back()))
                return false;
        return true;
    }

    /** A flag, then the value when it is set. */
    template <class T, class Each>
    bool
    opt(std::optional<T> &o, Each each)
    {
        bool has = false;
        if (!flag(has))
            return false;
        if (!has) {
            o.reset();
            return true;
        }
        return each(*this, o.emplace());
    }

    /** A one-byte enum value, refused unless `valid(raw)` holds. */
    template <class E, class Valid>
    bool
    code(E &e, Valid valid)
    {
        std::uint8_t raw = 0;
        if (!u8(raw) || !valid(raw))
            return fail();
        e = static_cast<E>(raw);
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
        if (failed_ || size_ - pos_ < n)
            return fail();
        return true;
    }

    bool
    fail()
    {
        failed_ = true;
        return false;
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
 * Accessors return true, so a field list's `&&` chain writes every
 * field.
 */
class WireWriter
{
  public:
    explicit WireWriter(std::vector<std::uint8_t> *out) : out_(out) {}

    bool
    u8(std::uint8_t v)
    {
        out_->push_back(v);
        return true;
    }

    bool u16(std::uint16_t v) { return put(v); }
    bool u32(std::uint32_t v) { return put(v); }
    bool u64(std::uint64_t v) { return put(v); }

    bool
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        return put(bits);
    }

    bool i32(std::int32_t v) { return u32(static_cast<std::uint32_t>(v)); }
    bool i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
    bool flag(bool v) { return u8(v ? 1 : 0); }

    bool
    bytes(std::string_view v)
    {
        out_->insert(out_->end(),
                     reinterpret_cast<const std::uint8_t *>(v.data()),
                     reinterpret_cast<const std::uint8_t *>(v.data()) +
                         v.size());
        return true;
    }

    bool
    str(std::string_view v)
    {
        return u32(static_cast<std::uint32_t>(v.size())) && bytes(v);
    }

    /** A column of unsigned integers, each little-endian and with no
     *  count: one copy on a little-endian host. */
    template <class T>
    bool
    column(const std::vector<T> &v)
    {
        static_assert(std::is_unsigned_v<T>);
        if constexpr (std::endian::native == std::endian::big) {
            for (T e : v)
                put(e);
        } else {
            const auto *p = reinterpret_cast<const std::uint8_t *>(v.data());
            out_->insert(out_->end(), p, p + v.size() * sizeof(T));
        }
        return true;
    }

    template <class V, class Each>
    bool
    list(const V &v, Each each)
    {
        u32(static_cast<std::uint32_t>(v.size()));
        for (const auto &e : v)
            each(*this, e);
        return true;
    }

    template <class T, class Each>
    bool
    opt(const std::optional<T> &o, Each each)
    {
        return flag(o.has_value()) && (!o || each(*this, *o));
    }

    template <class E, class Valid>
    bool code(E e, Valid) { return u8(static_cast<std::uint8_t>(e)); }

  private:
    /** Append an unsigned integer's bytes, least significant first. */
    template <typename T>
    bool
    put(T v)
    {
        std::uint8_t word[sizeof v];
        std::memcpy(word, &v, sizeof v);
        if constexpr (std::endian::native == std::endian::big)
            std::reverse(word, word + sizeof v);
        out_->insert(out_->end(), word, word + sizeof v);
        return true;
    }

    std::vector<std::uint8_t> *out_;
};

} // namespace ecov::net

#endif // ECOV_NET_WIRE_H
