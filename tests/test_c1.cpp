/**
 * @file
 * Unit tests for the C1 region component: instruction monitoring, the
 * density verdict (> 6/16 lines, probability > 3/4 over 4 regions),
 * and the carpet-bombing region prefetch into L2.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "core/c1.hpp"
#include "mem/memory_system.hpp"
#include "trace/context.hpp"
#include "trace/counters.hpp"

namespace dol
{
namespace
{

class C1Test : public ::testing::Test
{
  protected:
    C1Test() : emitter(mem)
    {
        c1.setId(3);
    }

    /** One training access by @p m_pc at @p addr (primary miss). */
    void
    access(Pc m_pc, Addr addr)
    {
        now += 10;
        AccessInfo info;
        info.pc = m_pc;
        info.mPc = m_pc;
        info.addr = addr;
        info.isLoad = true;
        info.l1PrimaryMiss = true;
        info.when = now;
        info.completion = now + 200;
        emitter.setContext(3, now);
        c1.train(info, emitter);
    }

    /** Touch @p lines lines of the 1 KB region at @p base. */
    void
    touchRegion(Pc m_pc, Addr base, unsigned lines)
    {
        for (unsigned i = 0; i < lines; ++i)
            access(m_pc, base + i * kLineBytes);
    }

    MemorySystem mem;
    PrefetchEmitter emitter;
    C1Prefetcher c1;
    Cycle now = 0;
};

TEST_F(C1Test, ConsiderAcceptsUntilImFull)
{
    for (Pc pc = 1; pc <= 16; ++pc)
        EXPECT_TRUE(c1.considerInstruction(pc * 4));
    // The IM never evicts: entry 17 is declined.
    EXPECT_FALSE(c1.considerInstruction(17 * 4));
    // But an already-monitored instruction is always accepted.
    EXPECT_TRUE(c1.considerInstruction(4));
    EXPECT_TRUE(c1.isMonitored(4));
}

TEST_F(C1Test, DenseInstructionGetsMarked)
{
    ASSERT_TRUE(c1.considerInstruction(0x100));
    // Four dense regions (12 > 6 lines each) and their evictions:
    // regions are evicted by touching many other regions.
    Addr base = 0x100000;
    for (int r = 0; r < 4; ++r) {
        touchRegion(0x100, base, 12);
        base += kRegionBytes;
    }
    // Flush the RM with unrelated single-line regions to force the
    // verdict (TotalRegions reaches 4).
    for (int i = 0; i < 32; ++i)
        access(0x999, 0x900000 + i * kRegionBytes);

    EXPECT_TRUE(c1.isMarked(0x100));
}

TEST_F(C1Test, SparseInstructionIsNotMarked)
{
    ASSERT_TRUE(c1.considerInstruction(0x200));
    Addr base = 0x300000;
    for (int r = 0; r < 4; ++r) {
        touchRegion(0x200, base, 3); // 3 of 16 lines: sparse
        base += kRegionBytes;
    }
    for (int i = 0; i < 32; ++i)
        access(0x999, 0xa00000 + i * kRegionBytes);

    EXPECT_FALSE(c1.isMarked(0x200));
    // And the IM slot was vacated for the next candidate.
    EXPECT_FALSE(c1.isMonitored(0x200));
}

TEST_F(C1Test, MixedDensityBelowThreeQuartersIsNotMarked)
{
    ASSERT_TRUE(c1.considerInstruction(0x300));
    // 2 dense + 2 sparse regions: probability 1/2 < 3/4.
    touchRegion(0x300, 0x500000, 12);
    touchRegion(0x300, 0x500000 + kRegionBytes, 12);
    touchRegion(0x300, 0x500000 + 2 * kRegionBytes, 2);
    touchRegion(0x300, 0x500000 + 3 * kRegionBytes, 2);
    for (int i = 0; i < 32; ++i)
        access(0x999, 0xb00000 + i * kRegionBytes);

    EXPECT_FALSE(c1.isMarked(0x300));
}

TEST_F(C1Test, MarkedInstructionTriggersRegionPrefetchToL2)
{
    ASSERT_TRUE(c1.considerInstruction(0x400));
    Addr base = 0x700000;
    for (int r = 0; r < 4; ++r) {
        touchRegion(0x400, base, 12);
        base += kRegionBytes;
    }
    for (int i = 0; i < 32; ++i)
        access(0x999, 0xc00000 + i * kRegionBytes);
    ASSERT_TRUE(c1.isMarked(0x400));

    const std::uint64_t before = c1.regionsPrefetched();
    const Addr fresh = 0xd00000;
    access(0x400, fresh + 5 * kLineBytes);
    EXPECT_EQ(c1.regionsPrefetched(), before + 1);

    // All 16 lines of the region land in L2 (not L1).
    unsigned in_l2 = 0, in_l1 = 0;
    for (unsigned i = 0; i < kRegionLineCount; ++i) {
        in_l2 += mem.cacheAt(kL2).find(fresh + i * kLineBytes) != nullptr;
        in_l1 += mem.cacheAt(kL1).find(fresh + i * kLineBytes) != nullptr;
    }
    EXPECT_EQ(in_l2, kRegionLineCount);
    EXPECT_EQ(in_l1, 0u);

    // Re-touching the same region does not re-bomb it.
    access(0x400, fresh + 7 * kLineBytes);
    EXPECT_EQ(c1.regionsPrefetched(), before + 1);
}

std::vector<TraceEvent>
eventsOfType(const MemoryTraceSink &sink, TraceEventType type)
{
    std::vector<TraceEvent> out;
    for (const TraceEvent &event : sink.events) {
        if (event.type == type)
            out.push_back(event);
    }
    return out;
}

TEST_F(C1Test, DensityExactlySixSixteenthsIsNotDense)
{
    TraceContext ctx;
    MemoryTraceSink sink;
    ctx.setSink(&sink);
    c1.setTraceContext(&ctx);

    // The paper's rule is *strictly more than* 6 of 16 lines: a
    // region with exactly 6 must not count as dense, so an
    // instruction whose every region has 6 lines is never marked.
    ASSERT_TRUE(c1.considerInstruction(0x500));
    Addr base = 0x1000000;
    for (int r = 0; r < 4; ++r) {
        touchRegion(0x500, base, 6);
        base += kRegionBytes;
    }
    for (int i = 0; i < 32; ++i)
        access(0x999, 0x2000000 + i * kRegionBytes);

    EXPECT_FALSE(c1.isMarked(0x500));
    EXPECT_TRUE(eventsOfType(sink, TraceEventType::kC1RegionDense)
                    .empty());
    const auto verdicts =
        eventsOfType(sink, TraceEventType::kC1Verdict);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].aux, 0x500u);
    EXPECT_EQ(verdicts[0].level, 0u) << "no region may count dense";
    EXPECT_EQ(verdicts[0].arg, 0u) << "verdict must be 'reject'";
}

TEST_F(C1Test, DensitySevenSixteenthsIsDense)
{
    TraceContext ctx;
    MemoryTraceSink sink;
    ctx.setSink(&sink);
    c1.setTraceContext(&ctx);

    // One line over the threshold flips every region to dense and
    // the verdict to 'mark'.
    ASSERT_TRUE(c1.considerInstruction(0x510));
    Addr base = 0x1100000;
    for (int r = 0; r < 4; ++r) {
        touchRegion(0x510, base, 7);
        base += kRegionBytes;
    }
    for (int i = 0; i < 32; ++i)
        access(0x999, 0x2100000 + i * kRegionBytes);

    EXPECT_TRUE(c1.isMarked(0x510));
    const auto dense =
        eventsOfType(sink, TraceEventType::kC1RegionDense);
    ASSERT_EQ(dense.size(), 4u);
    for (const TraceEvent &event : dense)
        EXPECT_EQ(event.arg, 7u) << "popcount of the line vector";
    const auto verdicts =
        eventsOfType(sink, TraceEventType::kC1Verdict);
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].level, 4u);
    EXPECT_EQ(verdicts[0].arg, 1u);
}

TEST_F(C1Test, ProbabilityExactlyThreeQuartersIsNotMarked)
{
    // The rule is *strictly more than* 3/4: 3 dense regions out of 4
    // sits exactly on the boundary and must not mark.
    ASSERT_TRUE(c1.considerInstruction(0x600));
    touchRegion(0x600, 0x1200000, 12);
    touchRegion(0x600, 0x1200000 + kRegionBytes, 12);
    touchRegion(0x600, 0x1200000 + 2 * kRegionBytes, 12);
    touchRegion(0x600, 0x1200000 + 3 * kRegionBytes, 2);
    for (int i = 0; i < 32; ++i)
        access(0x999, 0x2200000 + i * kRegionBytes);

    EXPECT_FALSE(c1.isMarked(0x600));
    // The slot is vacated, and 4 dense of 4 on the retry marks: the
    // reject cache must not have latched the boundary case forever.
    ASSERT_TRUE(c1.considerInstruction(0x601));
    Addr base = 0x1300000;
    for (int r = 0; r < 4; ++r) {
        touchRegion(0x601, base, 12);
        base += kRegionBytes;
    }
    for (int i = 0; i < 32; ++i)
        access(0x999, 0x2300000 + i * kRegionBytes);
    EXPECT_TRUE(c1.isMarked(0x601));
}

TEST_F(C1Test, RegionWrapAddressingSplitsAtBoundary)
{
    TraceContext ctx;
    MemoryTraceSink sink;
    ctx.setSink(&sink);
    c1.setTraceContext(&ctx);

    // 6 lines in the region plus the first line of the *next* region:
    // if boundary addresses leaked into the wrong region the vector
    // would reach 7 lines and go dense.
    ASSERT_TRUE(c1.considerInstruction(0x700));
    const Addr base = 0x1400000;
    ASSERT_EQ(base % kRegionBytes, 0u);
    touchRegion(0x700, base, 6);
    access(0x700, base + kRegionBytes); // neighbour, not line 16
    for (int i = 0; i < 32; ++i)
        access(0x999, 0x2400000 + i * kRegionBytes);
    EXPECT_TRUE(
        eventsOfType(sink, TraceEventType::kC1RegionDense).empty());
}

TEST_F(C1Test, RegionWrapLastByteMapsToLastLine)
{
    TraceContext ctx;
    MemoryTraceSink sink;
    ctx.setSink(&sink);
    c1.setTraceContext(&ctx);

    // The region's last byte and its last line's base are the same
    // line: together with 6 low lines that is 7 distinct lines, and
    // the dense event's address must be the region base.
    ASSERT_TRUE(c1.considerInstruction(0x710));
    const Addr base = 0x1500000;
    touchRegion(0x710, base, 6);
    access(0x710, base + kRegionBytes - 1);
    access(0x710, base + (kRegionLineCount - 1) * kLineBytes);
    for (int i = 0; i < 32; ++i)
        access(0x999, 0x2500000 + i * kRegionBytes);

    const auto dense =
        eventsOfType(sink, TraceEventType::kC1RegionDense);
    ASSERT_EQ(dense.size(), 1u);
    EXPECT_EQ(dense[0].arg, 7u)
        << "the two boundary touches are one line";
    EXPECT_EQ(dense[0].addr, base);
    // Line vector: bits 0-5 plus bit 15.
    EXPECT_EQ(dense[0].aux, 0x803fu);
}

/** A C1 with its own memory system, recording what it emits. */
struct RecordedC1
{
    explicit RecordedC1(const C1Prefetcher::Params &params)
        : emitter(mem), c1(params)
    {
        c1.setId(3);
        emitter.setEmitHook([this](const PrefetchEmitter::EmitRecord &r) {
            lines.push_back(r.addr);
            levels.push_back(r.level);
        });
    }

    std::string
    counters() const
    {
        CounterRegistry registry;
        c1.exportCounters(registry);
        return registry.toText();
    }

    MemorySystem mem;
    PrefetchEmitter emitter;
    C1Prefetcher c1;
    std::vector<Addr> lines;
    std::vector<unsigned> levels;
};

TEST(C1SingleLookup, TrainAndClaimMatchesTheThreeCallSequence)
{
    // More instructions than IM entries, more regions than RM entries,
    // and a marked-set capacity small enough to overflow: the stream
    // reaches verdicts, vacates IM slots mid-training, and clears the
    // marked set while other instructions are marked.
    C1Prefetcher::Params params;
    params.maxMarked = 3;
    RecordedC1 sequence(params);
    RecordedC1 single(params);
    Rng rng(0xc1c1c1);
    constexpr unsigned kInstrs = 40;
    constexpr unsigned kRegions = 48;
    Cycle now = 0;
    for (int burst = 0; burst < 20000; ++burst) {
        // One instruction touches one region in a burst; instructions
        // with an even index touch many lines (dense regions), odd
        // ones few, so both verdicts fall.
        const unsigned instr = static_cast<unsigned>(rng.below(kInstrs));
        const Pc m_pc = 0x4000 + 4 * instr;
        const Addr base =
            0x10000000 + rng.below(kRegions) * kRegionBytes;
        const unsigned touches = static_cast<unsigned>(
            instr % 2 == 0 ? rng.range(6, 16) : rng.range(1, 6));
        for (unsigned t = 0; t < touches; ++t) {
            now += 10;
            AccessInfo info;
            info.pc = m_pc;
            info.mPc = m_pc;
            info.addr = base + rng.below(kRegionBytes);
            info.l1PrimaryMiss = rng.below(2) == 0;
            info.when = now;
            info.completion = now + 200;
            sequence.emitter.setContext(3, now);
            single.emitter.setContext(3, now);

            if (info.l1PrimaryMiss)
                sequence.c1.considerInstruction(m_pc);
            sequence.c1.train(info, sequence.emitter);
            const bool want = sequence.c1.isMarked(m_pc) ||
                              sequence.c1.isMonitored(m_pc);
            const bool got = single.c1.trainAndClaim(info, single.emitter);
            ASSERT_EQ(got, want) << "claim of " << m_pc << " at " << now;
        }
    }
    EXPECT_EQ(single.counters(), sequence.counters());
    EXPECT_EQ(single.lines, sequence.lines);
    EXPECT_EQ(single.levels, sequence.levels);

    // The stream did reach the paths that differ: both verdicts, more
    // marks than the marked set holds, and region prefetches.
    CounterRegistry registry;
    single.c1.exportCounters(registry);
    EXPECT_GT(registry.counter("C1", "verdicts_marked"),
              10 * params.maxMarked);
    EXPECT_GT(registry.counter("C1", "verdicts_rejected"), 0u);
    EXPECT_GT(registry.counter("C1", "regions_prefetched"), 0u);
}

TEST_F(C1Test, StorageBudgetNearTableII)
{
    // Table II: C1 = 1.2 KB = 9830 bits.
    const double bits = static_cast<double>(c1.storageBits());
    EXPECT_GT(bits, 0.2 * 1.2 * 8 * 1024);
    EXPECT_LT(bits, 1.5 * 1.2 * 8 * 1024);
}

} // namespace
} // namespace dol
