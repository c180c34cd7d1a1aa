/**
 * @file
 * A flat power-of-two ring: the FIFO behind every retention tier.
 *
 * The tiers only ever push at the back and pop at the front, and the
 * queries read them in order or binary-search them by start time, so
 * a growable circular buffer over one contiguous array is all they
 * need. Unlike `std::deque`, an empty ring owns no memory — a series
 * that is never bounded or never written allocates nothing beyond its
 * raw samples — and a steady-state ring never allocates at all: it
 * grows by doubling until the tier's bound fits, then wraps.
 */

#ifndef ECOV_TELEMETRY_RING_H
#define ECOV_TELEMETRY_RING_H

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace ecov::ts {

/**
 * Circular buffer with power-of-two capacity. Element `i` is the
 * i-th oldest; push_back() appends, pop_front() removes the oldest.
 * T must be default-constructible and movable; a popped slot is reset
 * to `T{}` when T owns resources, so the memory it held is released
 * at once rather than when the slot is next overwritten.
 */
template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    /** Slots allocated (0 until the first push). */
    std::size_t capacity() const { return slots_.size(); }

    T &operator[](std::size_t i) { return slots_[slot(i)]; }
    const T &operator[](std::size_t i) const { return slots_[slot(i)]; }
    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(T v)
    {
        if (size_ == slots_.size())
            grow();
        slots_[slot(size_)] = std::move(v);
        ++size_;
    }

    void
    pop_front()
    {
        if constexpr (!std::is_trivially_destructible_v<T>)
            slots_[head_] = T{};
        head_ = static_cast<std::uint32_t>(slot(1));
        --size_;
    }

    /**
     * First index whose element is not `before` (the elements must be
     * partitioned by `before`, as std::partition_point requires).
     */
    template <typename Before>
    std::size_t
    partitionPoint(Before before) const
    {
        std::size_t lo = 0, n = size_;
        while (n > 0) {
            const std::size_t half = n / 2;
            if (before((*this)[lo + half])) {
                lo += half + 1;
                n -= half + 1;
            } else {
                n = half;
            }
        }
        return lo;
    }

    /** Oldest-first read-only traversal (range-for). */
    class const_iterator
    {
      public:
        const_iterator(const Ring *ring, std::size_t i)
            : ring_(ring), i_(i)
        {
        }
        const T &operator*() const { return (*ring_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool
        operator!=(const const_iterator &o) const
        {
            return i_ != o.i_;
        }

      private:
        const Ring *ring_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    static constexpr std::size_t kMinCapacity = 4;

    std::size_t
    slot(std::size_t i) const
    {
        return (head_ + i) & (slots_.size() - 1);
    }

    /** Double the capacity, unwrapping the elements to slot 0 on. */
    void
    grow()
    {
        std::vector<T> next(slots_.empty() ? kMinCapacity
                                           : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move((*this)[i]);
        slots_.swap(next);
        head_ = 0;
    }

    std::vector<T> slots_;
    /** 32-bit: a series holds three rings, and no tier comes near
     *  2^32 elements (that is over 100 GB of rollup buckets). */
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace ecov::ts

#endif // ECOV_TELEMETRY_RING_H
