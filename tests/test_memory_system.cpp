/**
 * @file
 * Unit tests for the memory hierarchy orchestration: level latencies,
 * fill paths, shadow (alternate-reality) tags, prefetch outcomes, and
 * the induced-miss credit mechanism.
 */

#include <gtest/gtest.h>

#include "mem/listener.hpp"
#include "mem/memory_system.hpp"

namespace dol
{
namespace
{

/** Captures listener events for verification. */
class RecordingListener : public MemListener
{
  public:
    struct Induced
    {
        unsigned level;
        Addr line;
        std::vector<ComponentId> comps;
    };

    void
    shadowMiss(unsigned level, Addr line, Pc) override
    {
        if (level == kL1)
            shadowL1.push_back(line);
    }

    void
    prefetchIssued(ComponentId comp, Addr line, unsigned, Cycle) override
    {
        issued.push_back({comp, line});
    }

    void
    prefetchUsed(ComponentId comp, unsigned, Addr line) override
    {
        used.push_back({comp, line});
    }

    void
    inducedMiss(unsigned level, Addr line,
                std::span<const ComponentId> comps) override
    {
        induced.push_back(
            {level, line, {comps.begin(), comps.end()}});
    }

    void
    prefetchFill(ComponentId comp, Addr line, Cycle completion) override
    {
        fills.push_back({comp, line});
        lastCompletion = completion;
    }

    std::vector<Addr> shadowL1;
    std::vector<std::pair<ComponentId, Addr>> issued, used, fills;
    std::vector<Induced> induced;
    Cycle lastCompletion = 0;
};

TEST(MemorySystem, HitLatenciesIncreaseWithDepth)
{
    MemorySystem mem;
    // Cold miss: full DRAM trip.
    const auto cold = mem.demandLoad(0x10000, 1, 0);
    EXPECT_TRUE(cold.l1PrimaryMiss);
    EXPECT_GT(cold.completion, 200u);

    // Warm L1 hit.
    const Cycle t = cold.completion + 10;
    const auto warm = mem.demandLoad(0x10000, 1, t);
    EXPECT_TRUE(warm.l1Hit);
    EXPECT_EQ(warm.completion - t, mem.cacheAt(kL1).latency());
}

TEST(MemorySystem, FillsPropagateToAllLevels)
{
    MemorySystem mem;
    mem.demandLoad(0x20000, 1, 0);
    EXPECT_NE(mem.cacheAt(kL1).find(0x20000), nullptr);
    EXPECT_NE(mem.cacheAt(kL2).find(0x20000), nullptr);
    EXPECT_NE(mem.cacheAt(kL3).find(0x20000), nullptr);
}

TEST(MemorySystem, ShadowMirrorsDemandStream)
{
    MemorySystem mem;
    RecordingListener listener;
    mem.setListener(&listener);

    mem.demandLoad(0x1000, 1, 0);
    mem.demandLoad(0x1000, 1, 1000); // hit, no shadow miss
    mem.demandLoad(0x2000, 1, 2000);

    EXPECT_EQ(listener.shadowL1.size(), 2u);
    EXPECT_EQ(mem.stats().level[kL1].shadowMisses, 2u);
    EXPECT_EQ(mem.stats().level[kL1].primaryMisses, 2u);
}

TEST(MemorySystem, PrefetchOutcomesAndFilter)
{
    MemorySystem mem;
    RecordingListener listener;
    mem.setListener(&listener);

    // Fresh prefetch issues and fills.
    EXPECT_EQ(mem.prefetch(0x40000, kL1, 2, 0), PrefetchOutcome::kIssued);
    EXPECT_EQ(listener.issued.size(), 1u);
    EXPECT_EQ(listener.fills.size(), 1u);
    EXPECT_GT(listener.lastCompletion, 100u);

    // Duplicate: already present at the destination.
    EXPECT_EQ(mem.prefetch(0x40000, kL1, 2, 1),
              PrefetchOutcome::kFilteredPresent);
    EXPECT_EQ(mem.stats().comp[2].filtered, 1u);
    EXPECT_EQ(mem.stats().comp[2].issued, 1u);
}

TEST(MemorySystem, PrefetchUsedCreditsComponent)
{
    MemorySystem mem;
    RecordingListener listener;
    mem.setListener(&listener);

    mem.prefetch(0x50000, kL1, 3, 0);
    const auto res = mem.demandLoad(0x50000, 7, 500000);
    EXPECT_TRUE(res.l1Hit);
    EXPECT_TRUE(res.l1HitPrefetched);
    EXPECT_EQ(res.l1HitComp, 3);
    ASSERT_EQ(listener.used.size(), 1u);
    EXPECT_EQ(listener.used[0].first, 3);
    EXPECT_EQ(mem.stats().comp[3].used, 1u);

    // Second use of the same line earns no second credit.
    mem.demandLoad(0x50000, 7, 500100);
    EXPECT_EQ(listener.used.size(), 1u);
}

TEST(MemorySystem, LatePrefetchPaysResidualButBounded)
{
    MemorySystem mem;
    // Issue the prefetch "now"; demand arrives 10 cycles later — far
    // before the fill completes.
    mem.prefetch(0x60000, kL1, 2, 1000);
    const auto res = mem.demandLoad(0x60000, 1, 1010);
    EXPECT_GT(res.completion, 1010u + 50);
    // But never worse than refetching the line itself.
    EXPECT_LT(res.completion, 1010u + 400);
    EXPECT_EQ(mem.stats().level[kL1].latePrefetchHits, 1u);
}

TEST(MemorySystem, InducedMissChargesPrefetchedLinesInSet)
{
    MemParams params;
    // Tiny L1: 2 sets x 2 ways, so pollution is easy to force.
    params.l1.sizeBytes = 4 * kLineBytes;
    params.l1.assoc = 2;
    MemorySystem mem(params);
    RecordingListener listener;
    mem.setListener(&listener);

    // Demand-load A and B (same set: 2-set cache, stride 128).
    const Addr a = 0x0, b = 0x1000;
    mem.demandLoad(a, 1, 0);
    mem.demandLoad(b, 1, 1000);

    // Prefetch two junk lines into the same set: evicts A and B from
    // the tiny L1 (but not from the shadow L1, which sees no
    // prefetches... it has the same tiny geometry, so A and B are
    // still resident there).
    mem.prefetch(0x2000, kL1, 4, 2000);
    mem.prefetch(0x3000, kL1, 4, 2100);

    // Re-access A: real miss, shadow hit -> induced, charged to 4.
    mem.demandLoad(a, 1, 500000);
    ASSERT_GE(listener.induced.size(), 1u);
    EXPECT_EQ(listener.induced[0].level, kL1);
    EXPECT_GT(mem.stats().comp[4].inducedCredit, 0.9);
}

TEST(MemorySystem, DirtyEvictionsWriteBack)
{
    MemParams params;
    params.l1.sizeBytes = 4 * kLineBytes;
    params.l1.assoc = 1; // direct-mapped 4-line L1
    MemorySystem mem(params);

    mem.demandStore(0x0, 1, 0);
    // Conflict line evicts the dirty one into L2.
    mem.demandLoad(0x100 * 4, 1, 1000);
    EXPECT_GE(mem.stats().level[kL1].writebacks, 1u);
    ASSERT_NE(mem.cacheAt(kL2).find(0x0), nullptr);
    EXPECT_TRUE(mem.cacheAt(kL2).find(0x0)->dirty);
}

TEST(MemorySystem, PrefetchToL2DoesNotFillL1)
{
    MemorySystem mem;
    EXPECT_EQ(mem.prefetch(0x70000, kL2, 2, 0),
              PrefetchOutcome::kIssued);
    EXPECT_EQ(mem.cacheAt(kL1).find(0x70000), nullptr);
    EXPECT_NE(mem.cacheAt(kL2).find(0x70000), nullptr);
    EXPECT_NE(mem.cacheAt(kL3).find(0x70000), nullptr);

    // The demand then misses L1 but hits L2.
    const auto res = mem.demandLoad(0x70000, 1, 500000);
    EXPECT_TRUE(res.l1PrimaryMiss);
    EXPECT_TRUE(res.l2Hit);
}

TEST(MemorySystem, CancelRemovesUnusedPrefetchOnly)
{
    MemorySystem mem;
    mem.prefetch(0x80000, kL1, 2, 0);
    mem.cancelPrefetchLine(0x80000);
    EXPECT_EQ(mem.cacheAt(kL1).find(0x80000), nullptr);

    mem.prefetch(0x90000, kL1, 2, 0);
    mem.demandLoad(0x90000, 1, 500000); // marks it used
    mem.cancelPrefetchLine(0x90000);
    EXPECT_NE(mem.cacheAt(kL1).find(0x90000), nullptr);
}

TEST(MemorySystem, SecondaryMissesAreNotPrimary)
{
    MemorySystem mem;
    const auto first = mem.demandLoad(0xa0000, 1, 0);
    EXPECT_TRUE(first.l1PrimaryMiss);
    // Back-to-back access while the fetch is in flight.
    const auto second = mem.demandLoad(0xa0000, 1, 5);
    EXPECT_FALSE(second.l1PrimaryMiss);
    EXPECT_EQ(mem.stats().level[kL1].secondaryMisses, 1u);
    EXPECT_EQ(mem.stats().level[kL1].primaryMisses, 1u);
}

TEST(MemorySystem, SharedL3IsVisibleAcrossCores)
{
    MemParams params;
    auto shared = std::make_shared<SharedMemory>(params, 2);
    MemorySystem core0(params, shared);
    MemorySystem core1(params, shared);

    core0.demandLoad(0xb0000, 1, 0);
    // Core 1 misses privately but hits the shared L3.
    const auto res = core1.demandLoad(0xb0000, 1, 500000);
    EXPECT_TRUE(res.l3Hit);
    EXPECT_FALSE(res.l1Hit);
}

/** A hierarchy small enough that dirty lines reach DRAM quickly. */
MemParams
tinyParams()
{
    MemParams params;
    params.l1.sizeBytes = 1024;
    params.l1.assoc = 2;
    params.l2.sizeBytes = 2048;
    params.l2.assoc = 2;
    params.l3.sizeBytes = 4096;
    params.l3.assoc = 4;
    return params;
}

/** Store to every line of a span four times the L3, then reload it. */
void
storeSweep(MemorySystem &mem, unsigned accesses)
{
    for (unsigned i = 0; i < accesses; ++i) {
        const Addr addr = 0x40000 + (i % 256) * kLineBytes;
        const Cycle when = 1000 * i;
        if (i < 256)
            mem.demandStore(addr, 1, when);
        else
            mem.demandLoad(addr, 1, when);
    }
}

TEST(ShadowReplay, MatchesLiveWalkWithoutCallbacks)
{
    const MemParams params = tinyParams();
    MemorySystem live(params);
    RecordingListener live_events;
    live.setListener(&live_events);
    live.recordShadow("sweep.test");
    storeSweep(live, 512);
    const auto record = live.takeShadowRecord();
    ASSERT_EQ(record->accesses(), 512u);
    EXPECT_GT(record->dramWrites, 0u);

    MemorySystem replay(params, nullptr, record);
    RecordingListener replay_events;
    replay.setListener(&replay_events);
    storeSweep(replay, 512);
    replay.finishShadowReplay();

    EXPECT_FALSE(live_events.shadowL1.empty());
    EXPECT_TRUE(replay_events.shadowL1.empty());
    for (unsigned lv = 0; lv < kNumCacheLevels; ++lv) {
        EXPECT_EQ(replay.stats().level[lv].shadowMisses,
                  live.stats().level[lv].shadowMisses);
    }
    EXPECT_EQ(replay.shared().baselineDramLines(),
              live.shared().baselineDramLines());
}

TEST(ShadowReplay, ThrowsWhenAskedForMoreThanRecorded)
{
    MemorySystem live;
    live.recordShadow("three.test");
    for (const Addr addr : {0x1000, 0x2000, 0x1000})
        live.demandLoad(addr, 1, 0);
    MemorySystem replay({}, nullptr, live.takeShadowRecord());
    for (const Addr addr : {0x1000, 0x2000, 0x1000})
        replay.demandLoad(addr, 1, 0);
    try {
        replay.demandLoad(0x3000, 1, 0);
        FAIL() << "a fourth access replayed a three-access record";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "shadow replay of three.test: access "
                                   "4 asked for, 3 recorded");
    }
}

TEST(ShadowReplay, ThrowsWhenEndingWithFewerConsumed)
{
    MemorySystem live;
    live.recordShadow("three.test");
    for (const Addr addr : {0x1000, 0x2000, 0x1000})
        live.demandLoad(addr, 1, 0);
    MemorySystem replay({}, nullptr, live.takeShadowRecord());
    replay.demandLoad(0x1000, 1, 0);
    replay.demandLoad(0x2000, 1, 0);
    try {
        replay.finishShadowReplay();
        FAIL() << "a replay ended with an access unconsumed";
    } catch (const std::runtime_error &error) {
        EXPECT_STREQ(error.what(), "shadow replay of three.test: ended "
                                   "after 2 of 3 recorded accesses");
    }
}

} // namespace
} // namespace dol
