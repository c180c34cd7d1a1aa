/**
 * @file
 * IdTable (net/id_table.h), ServerCore's connection table, against a
 * std::map reference under seeded random churn: every find agrees,
 * erase's backward shift never strands an entry behind an empty slot,
 * and the slot array grows and shrinks with the live count.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "net/id_table.h"
#include "util/rng.h"

namespace ecov::net {
namespace {

TEST(IdTable, MatchesAMapUnderChurn)
{
    IdTable<std::string> table;
    std::map<std::uint32_t, std::string> ref;
    Rng rng(7);
    std::uint32_t next = 1;
    for (int step = 0; step < 200000; ++step) {
        // Grow for the first half, shrink for the second, and keep a
        // few long-lived low ids throughout.
        const bool grow = step < 100000;
        if (ref.empty() || rng.uniformInt(0, 99) < (grow ? 60 : 40)) {
            const std::uint32_t id = next++;
            table.insert(id) = std::to_string(id);
            ref[id] = std::to_string(id);
        } else {
            auto it = ref.lower_bound(static_cast<std::uint32_t>(
                rng.uniformInt(1, static_cast<std::int64_t>(next))));
            if (it == ref.end())
                it = ref.begin();
            if (it->first <= 4 && ref.size() > 4)
                continue;
            table.erase(it->first);
            ref.erase(it);
        }
        ASSERT_EQ(table.size(), ref.size());
        if (step % 997 == 0) {
            for (const auto &[id, v] : ref) {
                const std::string *got = table.find(id);
                ASSERT_NE(got, nullptr) << id;
                EXPECT_EQ(*got, v);
            }
            for (std::uint32_t id = 1; id < next; id += 13)
                EXPECT_EQ(table.find(id) != nullptr, ref.count(id) != 0);
        }
        // Load stays at most one half and, above the minimum size, at
        // least one sixteenth: the slots halve below one eighth.
        ASSERT_LE(table.size() * 2, table.slots());
        if (table.slots() > 8) {
            ASSERT_GE(table.size() * 16, table.slots());
        }
    }
    table.erase(next + 1); // absent: no-op
    EXPECT_EQ(table.size(), ref.size());
    EXPECT_EQ(table.find(0), nullptr);
}

} // namespace
} // namespace ecov::net
