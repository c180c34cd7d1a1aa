/**
 * @file
 * A flat map from nonzero 32-bit ids to values: ServerCore's
 * connection table (docs/ECOVISORD.md "Tables").
 *
 * Open addressing with linear probing over a power-of-two array of
 * (id, value) slots, id 0 marking an empty slot. Ids are scattered by
 * Fibonacci hashing, so a run of sequential ids beside a few
 * long-lived ones never piles up into one long probe chain. Erase
 * shifts the rest of its chain back rather than leaving a tombstone,
 * and the array doubles above half full and halves below one eighth
 * full, so memory follows the live count, never the value of an id.
 *
 * insert() and erase() may move values: a pointer or reference from
 * find() or insert() is valid until the next insert or erase.
 */

#ifndef ECOV_NET_ID_TABLE_H
#define ECOV_NET_ID_TABLE_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace ecov::net {

template <typename T>
class IdTable
{
  public:
    IdTable() { slots_.resize(kMinSlots); }

    T *
    find(std::uint32_t id)
    {
        if (id == 0)
            return nullptr; // the empty-slot marker names nothing
        for (std::size_t i = home(id);; i = next(i)) {
            if (slots_[i].id == id)
                return &slots_[i].value;
            if (slots_[i].id == 0)
                return nullptr;
        }
    }

    const T *
    find(std::uint32_t id) const
    {
        return const_cast<IdTable *>(this)->find(id);
    }

    /** Insert a default value under `id`, which must be nonzero and
     *  absent. */
    T &
    insert(std::uint32_t id)
    {
        if (id == 0 || find(id))
            panic("IdTable::insert: id zero or already present");
        if ((live_ + 1) * 2 > slots_.size())
            rehash(slots_.size() * 2);
        ++live_;
        return place(id, T());
    }

    /** Erase `id`; no-op when absent. */
    void
    erase(std::uint32_t id)
    {
        std::size_t hole = home(id);
        while (slots_[hole].id != id) {
            if (slots_[hole].id == 0)
                return;
            hole = next(hole);
        }
        // Backward shift: walk the rest of the chain and move back
        // every entry whose home does not lie cyclically in
        // (hole, i], so no probe from its home crosses an empty slot.
        for (std::size_t i = next(hole); slots_[i].id != 0; i = next(i)) {
            const std::size_t h = home(slots_[i].id);
            const bool stays = hole < i ? hole < h && h <= i
                                        : hole < h || h <= i;
            if (!stays) {
                slots_[hole] = std::move(slots_[i]);
                hole = i;
            }
        }
        slots_[hole] = Slot{};
        --live_;
        if (slots_.size() > kMinSlots && live_ * 8 < slots_.size())
            rehash(slots_.size() / 2);
    }

    /** Live entries. */
    std::size_t size() const { return live_; }

    /** Allocated slots, live and empty (diagnostics). */
    std::size_t slots() const { return slots_.size(); }

  private:
    static constexpr std::size_t kMinSlots = 8;

    struct Slot
    {
        std::uint32_t id = 0;
        T value = T();
    };

    std::size_t
    home(std::uint32_t id) const
    {
        return static_cast<std::uint32_t>(id * 0x9E3779B9u) >> shift_;
    }

    std::size_t next(std::size_t i) const { return (i + 1) & (slots_.size() - 1); }

    T &
    place(std::uint32_t id, T &&value)
    {
        std::size_t i = home(id);
        while (slots_[i].id != 0)
            i = next(i);
        slots_[i].id = id;
        slots_[i].value = std::move(value);
        return slots_[i].value;
    }

    void
    rehash(std::size_t n)
    {
        std::vector<Slot> old(n);
        old.swap(slots_);
        shift_ = 32;
        for (std::size_t s = n; s > 1; s >>= 1)
            --shift_;
        for (Slot &s : old)
            if (s.id != 0)
                place(s.id, std::move(s.value));
    }

    std::vector<Slot> slots_;
    std::size_t live_ = 0;
    /** 32 - log2(slots_.size()): home() keeps the hash's top bits. */
    unsigned shift_ = 32 - 3;
};

} // namespace ecov::net

#endif // ECOV_NET_ID_TABLE_H
