/**
 * @file
 * Unit and differential tests for the flat hot-path tables
 * (src/common/flat_table.hpp) and the ring buffer backing the fill
 * and instruction queues (src/common/ring_buffer.hpp).
 *
 * The FlatHashMap migration is only sound if its observable
 * find/insert/erase semantics match std::unordered_map exactly, so on
 * top of the targeted probes (collision chains crossing the
 * wrap-around point, backward-shift deletion, LRU eviction order) a
 * randomized differential test drives both containers with the same
 * SplitMix64-derived operation stream and compares after every step.
 */

#include <memory>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "common/flat_table.hpp"
#include "common/ring_buffer.hpp"

namespace
{

using namespace dol;

/** Keys whose probe sequence starts in the last @p window slots of a
 *  @p capacity-slot table, so linear probing must wrap to index 0. */
std::vector<std::uint64_t>
keysProbingNearEnd(std::size_t capacity, std::size_t window,
                   std::size_t count)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = 1; keys.size() < count; ++k) {
        const std::size_t home =
            static_cast<std::size_t>(flatHashMix(k) & (capacity - 1));
        if (home >= capacity - window)
            keys.push_back(k);
    }
    return keys;
}

TEST(FlatHashMap, InsertFindEraseBasics)
{
    FlatHashMap<std::uint64_t, int> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(42), nullptr);

    EXPECT_TRUE(map.insert(42, 7));
    EXPECT_FALSE(map.insert(42, 9)); // overwrite, not new
    ASSERT_NE(map.find(42), nullptr);
    EXPECT_EQ(*map.find(42), 9);
    EXPECT_EQ(map.size(), 1u);

    map[43] = 1;
    EXPECT_EQ(map.size(), 2u);
    EXPECT_TRUE(map.erase(42));
    EXPECT_FALSE(map.erase(42));
    EXPECT_EQ(map.find(42), nullptr);
    EXPECT_EQ(map.size(), 1u);
}

TEST(FlatHashMap, TryEmplaceReportsInsertion)
{
    FlatHashMap<std::uint64_t, int> map;
    auto [first, inserted] = map.tryEmplace(5);
    EXPECT_TRUE(inserted);
    *first = 11;
    auto [again, reinserted] = map.tryEmplace(5);
    EXPECT_FALSE(reinserted);
    EXPECT_EQ(*again, 11);
}

/** A collision chain seeded in the last slots must wrap to the front
 *  of the array and stay findable — the classic open-addressing edge. */
TEST(FlatHashMap, CollisionChainAcrossWrapAround)
{
    FlatHashMap<std::uint64_t, std::uint64_t> map;
    map.reserve(8); // 16 slots after the 7/8 load rule
    const std::size_t cap = map.capacity();
    // 6 keys all homed in the last 2 slots: at least 4 must wrap.
    const auto keys = keysProbingNearEnd(cap, 2, 6);
    for (const auto k : keys)
        map.insert(k, k * 3);
    EXPECT_EQ(map.capacity(), cap) << "grew during the chain test";
    for (const auto k : keys) {
        ASSERT_NE(map.find(k), nullptr) << "lost key " << k;
        EXPECT_EQ(*map.find(k), k * 3);
    }
}

/** Erasing from the middle of a wrapped chain must backward-shift the
 *  tail so later keys stay reachable. */
TEST(FlatHashMap, EraseInsideWrappedChainKeepsTailFindable)
{
    FlatHashMap<std::uint64_t, std::uint64_t> map;
    map.reserve(8);
    const std::size_t cap = map.capacity();
    const auto keys = keysProbingNearEnd(cap, 2, 6);
    for (const auto k : keys)
        map.insert(k, k);
    // Erase each key in turn and verify every survivor after each.
    std::vector<std::uint64_t> alive(keys);
    while (!alive.empty()) {
        const std::uint64_t victim = alive[alive.size() / 2];
        EXPECT_TRUE(map.erase(victim));
        alive.erase(alive.begin() +
                    static_cast<std::ptrdiff_t>(alive.size() / 2));
        for (const auto k : alive)
            ASSERT_NE(map.find(k), nullptr)
                << "erase of " << victim << " lost " << k;
        EXPECT_EQ(map.size(), alive.size());
    }
}

TEST(FlatHashMap, GrowsPastLoadFactorAndKeepsAllEntries)
{
    FlatHashMap<std::uint64_t, std::uint64_t> map;
    for (std::uint64_t k = 0; k < 10000; ++k)
        map.insert(k, k ^ 0xabcdu);
    EXPECT_EQ(map.size(), 10000u);
    for (std::uint64_t k = 0; k < 10000; ++k) {
        ASSERT_NE(map.find(k), nullptr);
        EXPECT_EQ(*map.find(k), k ^ 0xabcdu);
    }
    // Load factor invariant: size <= 7/8 capacity.
    EXPECT_LE(map.size() * 8, map.capacity() * 7);
}

TEST(FlatHashMap, ClearKeepsCapacity)
{
    FlatHashMap<std::uint64_t, int> map;
    for (std::uint64_t k = 0; k < 100; ++k)
        map.insert(k, 1);
    const std::size_t cap = map.capacity();
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.capacity(), cap);
    EXPECT_EQ(map.find(5), nullptr);
}

TEST(FlatHashMap, SupportsMoveOnlyValues)
{
    FlatHashMap<std::uint64_t, std::unique_ptr<int>> map;
    map.insert(1, std::make_unique<int>(41));
    auto [slot, inserted] = map.tryEmplace(2);
    EXPECT_TRUE(inserted);
    *slot = std::make_unique<int>(43);
    ASSERT_NE(map.find(1), nullptr);
    EXPECT_EQ(**map.find(1), 41);
    EXPECT_EQ(**map.find(2), 43);
    EXPECT_TRUE(map.erase(1));
    EXPECT_EQ(map.find(1), nullptr);
}

/** The migration contract: byte-for-byte behavioural equivalence with
 *  std::unordered_map over a random insert/erase/find/clear stream. */
TEST(FlatHashMap, DifferentialAgainstUnorderedMap)
{
    FlatHashMap<std::uint64_t, std::uint64_t> flat;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;

    std::uint64_t rng = 0xD01Fu;
    const auto next = [&rng] { return rng = splitMix64(rng); };

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = next() % 100;
        // Small key space so erases hit and chains collide.
        const std::uint64_t key = next() % 257;
        if (op < 55) {
            const std::uint64_t value = next();
            const bool was_new = flat.insert(key, value);
            const bool ref_new = ref.insert_or_assign(key, value).second;
            ASSERT_EQ(was_new, ref_new) << "step " << step;
        } else if (op < 80) {
            ASSERT_EQ(flat.erase(key), ref.erase(key) > 0)
                << "step " << step;
        } else if (op < 99) {
            const auto it = ref.find(key);
            const std::uint64_t *found = flat.find(key);
            ASSERT_EQ(found != nullptr, it != ref.end())
                << "step " << step;
            if (found) {
                ASSERT_EQ(*found, it->second) << "step " << step;
            }
        } else {
            flat.clear();
            ref.clear();
        }
        ASSERT_EQ(flat.size(), ref.size()) << "step " << step;
    }

    // Full-content sweep at the end: every ref entry is in flat.
    std::size_t seen = 0;
    flat.forEach([&](std::uint64_t key, std::uint64_t value) {
        const auto it = ref.find(key);
        ASSERT_NE(it, ref.end());
        EXPECT_EQ(value, it->second);
        ++seen;
    });
    EXPECT_EQ(seen, ref.size());
}

TEST(FlatHashSet, InsertContainsErase)
{
    FlatHashSet<std::uint64_t> set;
    EXPECT_TRUE(set.insert(9));
    EXPECT_FALSE(set.insert(9));
    EXPECT_TRUE(set.contains(9));
    EXPECT_FALSE(set.contains(10));
    EXPECT_TRUE(set.erase(9));
    EXPECT_FALSE(set.erase(9));
    EXPECT_TRUE(set.empty());
}

TEST(BoundedLruTable, EvictsLeastRecentlyUsedInWindow)
{
    // Capacity 4 with a full-table probe window: a pure LRU CAM.
    BoundedLruTable<std::uint64_t, int, 4> table(4);
    table.insert(1) = 10;
    table.insert(2) = 20;
    table.insert(3) = 30;
    table.insert(4) = 40;

    // Touch 1 and 3 so 2 is now the LRU entry.
    EXPECT_NE(table.find(1), nullptr);
    EXPECT_NE(table.find(3), nullptr);

    bool evicted = false;
    std::uint64_t evicted_key = 0;
    table.insert(5, &evicted, &evicted_key) = 50;
    EXPECT_TRUE(evicted);
    EXPECT_EQ(evicted_key, 2u);
    EXPECT_EQ(table.find(2), nullptr);
    EXPECT_NE(table.find(1), nullptr);
    EXPECT_NE(table.find(3), nullptr);
    EXPECT_NE(table.find(4), nullptr);
    EXPECT_EQ(*table.find(5), 50);
}

TEST(BoundedLruTable, CapacityFullNeverGrows)
{
    BoundedLruTable<std::uint64_t, int, 8> table(8);
    const std::size_t cap = table.capacity();
    for (std::uint64_t k = 0; k < 100; ++k)
        table.insert(k) = static_cast<int>(k);
    EXPECT_EQ(table.capacity(), cap);
    EXPECT_LE(table.size(), cap);
    // The most recent insert is always resident.
    EXPECT_NE(table.find(99), nullptr);
}

TEST(BoundedLruTable, PrefersInvalidSlotOverEviction)
{
    BoundedLruTable<std::uint64_t, int, 4> table(4);
    table.insert(1) = 10;
    table.insert(2) = 20;
    table.insert(1, nullptr, nullptr); // re-touch, no eviction
    bool evicted = false;
    table.insert(3, &evicted) = 30;
    EXPECT_FALSE(evicted) << "evicted with free slots remaining";
    EXPECT_NE(table.find(1), nullptr);
    EXPECT_NE(table.find(2), nullptr);
}

TEST(RingBuffer, FifoOrderAcrossGrowth)
{
    RingBuffer<int> ring(4);
    // Offset the head so growth has to unwrap a wrapped ring.
    for (int i = 0; i < 3; ++i) {
        ring.push_back(i);
        ring.pop_front();
    }
    for (int i = 0; i < 100; ++i)
        ring.push_back(i);
    EXPECT_EQ(ring.size(), 100u);
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(ring.front(), i);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

} // namespace
