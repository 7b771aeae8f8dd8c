/**
 * @file
 * Behavioural tests for the seven monolithic prefetchers of Table II,
 * plus a parameterized sweep asserting that each covers a canonical
 * unit-stride stream (every competent prefetcher's table stake).
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "mem/memory_system.hpp"
#include "prefetch/ampm.hpp"
#include "prefetch/bop.hpp"
#include "prefetch/fdp.hpp"
#include "prefetch/sms.hpp"
#include "prefetch/spp.hpp"
#include "prefetch/vldp.hpp"

namespace dol
{
namespace
{

/** Drives a prefetcher with a synthetic L1 access stream. */
class Harness
{
  public:
    Harness() : emitter(mem) {}

    void
    attach(Prefetcher &prefetcher)
    {
        pf = &prefetcher;
        pf->setId(1);
    }

    void
    access(Pc pc, Addr addr)
    {
        now += 40;
        const auto res = mem.demandLoad(addr, pc, now);
        AccessInfo info;
        info.pc = pc;
        info.mPc = pc;
        info.addr = addr;
        info.isLoad = true;
        info.l1Hit = res.l1Hit;
        info.l1PrimaryMiss = res.l1PrimaryMiss;
        info.l1HitPrefetched = res.l1HitPrefetched;
        info.when = now;
        info.completion = res.completion;
        emitter.setContext(1, now);
        pf->train(info, emitter);
    }

    std::uint64_t issued() const { return mem.stats().comp[1].issued; }

    MemorySystem mem;
    PrefetchEmitter emitter;
    Prefetcher *pf = nullptr;
    Cycle now = 0;
};

class StreamCoverage : public ::testing::TestWithParam<const char *>
{
};

TEST_P(StreamCoverage, CoversUnitStrideStream)
{
    MemoryImage image;
    auto pf = makePrefetcher(GetParam(), &image);
    Harness harness;
    harness.attach(*pf);

    // A long unit-stride miss stream.
    for (int i = 0; i < 600; ++i)
        harness.access(0x100, 0x1000000 + i * 64);

    EXPECT_GT(harness.issued(), 50u) << GetParam();
    // A competent stream prefetcher covers lines before the demand
    // arrives: most stream accesses end as hits.
    const auto &l1 = harness.mem.stats().level[kL1];
    EXPECT_GE(l1.demandHits + l1.secondaryMisses, 290u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Monolithic, StreamCoverage,
                         ::testing::Values("GHB-PC/DC", "SPP", "VLDP",
                                           "BOP", "FDP", "AMPM",
                                           "NextLine"));

class RandomRestraint : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RandomRestraint, StaysQuietOnPatternlessStream)
{
    MemoryImage image;
    std::unique_ptr<Prefetcher> pf;
    if (std::string(GetParam()) == "BOP") {
        // Short learning phases so BOP's first-phase default offset
        // shuts off within the test window.
        BopPrefetcher::Params params;
        params.roundMax = 10;
        pf = std::make_unique<BopPrefetcher>(params);
    } else {
        pf = makePrefetcher(GetParam(), &image);
    }
    Harness harness;
    harness.attach(*pf);

    Rng rng(17);
    for (int i = 0; i < 1500; ++i)
        harness.access(0x100, lineAddr(rng.below(1ull << 30)));

    // Patternless accesses must not trigger a prefetch flood: fewer
    // than one prefetch per two accesses.
    EXPECT_LT(harness.issued(), 750u) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Monolithic, RandomRestraint,
                         ::testing::Values("GHB-PC/DC", "SPP", "VLDP",
                                           "BOP", "FDP", "SMS"));

TEST(Bop, LearnsTheDominantOffset)
{
    BopPrefetcher bop;
    Harness harness;
    harness.attach(bop);

    // Offset-3 stream (every access 3 lines apart).
    for (int i = 0; i < 4000; ++i)
        harness.access(0x100, 0x4000000 + i * 3 * 64);
    EXPECT_EQ(bop.currentOffset(), 3);
}

TEST(Sms, ReplaysRecordedFootprint)
{
    SmsPrefetcher sms;
    Harness harness;
    harness.attach(sms);

    // Train: the trigger PC touches lines {0, 3, 7, 9} of regions.
    // 2 KB regions = 32 lines.
    const unsigned offsets[] = {0, 3, 7, 9};
    for (int r = 0; r < 120; ++r) {
        const Addr base = 0x8000000 + r * 2048;
        for (unsigned off : offsets)
            harness.access(0x100, base + off * 64);
    }

    // A fresh region triggered by the same PC at the same offset
    // must prefetch the recorded pattern.
    const Addr fresh = 0x9000000;
    const auto before = harness.issued();
    harness.access(0x100, fresh + 0 * 64);
    EXPECT_GE(harness.issued(), before + 3);
    EXPECT_NE(harness.mem.cacheAt(kL1).find(fresh + 3 * 64), nullptr);
    EXPECT_NE(harness.mem.cacheAt(kL1).find(fresh + 7 * 64), nullptr);
    EXPECT_NE(harness.mem.cacheAt(kL1).find(fresh + 9 * 64), nullptr);
}

TEST(Ampm, MatchesBackwardStreams)
{
    AmpmPrefetcher ampm;
    Harness harness;
    harness.attach(ampm);

    for (int i = 0; i < 300; ++i)
        harness.access(0x100, 0xa000000 - i * 64);
    EXPECT_GT(harness.issued(), 30u);
    const auto &l1 = harness.mem.stats().level[kL1];
    EXPECT_GT(l1.demandHits + l1.secondaryMisses, 100u);
}

TEST(Vldp, OffsetTablePredictsFirstAccessOnNewPage)
{
    VldpPrefetcher vldp;
    Harness harness;
    harness.attach(vldp);

    // Train: on many pages, first touch at offset 2 then offset 6
    // (delta +4 lines).
    for (int p = 0; p < 60; ++p) {
        const Addr page = 0xb000000 + p * 4096;
        harness.access(0x100, page + 2 * 64);
        harness.access(0x100, page + 6 * 64);
        harness.access(0x100, page + 10 * 64);
    }
    // A brand-new page's first touch at offset 2 predicts offset 6.
    const Addr fresh = 0xc000000;
    harness.access(0x100, fresh + 2 * 64);
    EXPECT_NE(harness.mem.cacheAt(kL1).find(fresh + 6 * 64), nullptr);
}

TEST(Fdp, RaisesDegreeOnAccurateStream)
{
    FdpPrefetcher::Params params;
    params.sampleInterval = 256;
    FdpPrefetcher fdp(params);
    Harness harness;
    harness.attach(fdp);

    for (int i = 0; i < 4000; ++i)
        harness.access(0x100, 0x2000000 + i * 64);
    EXPECT_EQ(fdp.currentDegree(), params.maxDegree);
}

TEST(Fdp, ThrottlesDegreeOnPoorAccuracy)
{
    FdpPrefetcher::Params params;
    params.sampleInterval = 256;
    FdpPrefetcher fdp(params);
    Harness harness;
    harness.attach(fdp);

    // Short stream bursts that die before their prefetches are used:
    // FDP keeps issuing but nothing hits, so feedback throttles it.
    Rng rng(5);
    for (int burst = 0; burst < 600; ++burst) {
        const Addr base = lineAddr(rng.below(1ull << 30));
        for (int i = 0; i < 5; ++i)
            harness.access(0x100, base + i * 64);
    }
    EXPECT_EQ(fdp.currentDegree(), params.minDegree);
}

TEST(Spp, FollowsAlternatingDeltaPattern)
{
    SppPrefetcher spp;
    Harness harness;
    harness.attach(spp);

    // Pattern +1, +2, +1, +2 ... within pages.
    Addr addr = 0xd000000;
    bool one = true;
    for (int i = 0; i < 2000; ++i) {
        harness.access(0x100, addr);
        addr += (one ? 1 : 2) * 64;
        one = !one;
    }
    EXPECT_GT(harness.issued(), 200u);
    const auto &comp = harness.mem.stats().comp[1];
    EXPECT_GT(static_cast<double>(comp.used),
              0.6 * static_cast<double>(comp.issued));
}

TEST(Spp, RefusesATableSizeItCannotMask)
{
    // SPP indexes its tables by mask, so a size that is not a power of
    // two would alias entries; the constructor names the field instead.
    SppPrefetcher::Params params;
    params.patternEntries = 500;
    EXPECT_EXIT(SppPrefetcher{params}, testing::ExitedWithCode(1),
                "SPP patternEntries = 500 is not a power of two");
}

TEST(StorageBudgets, TrackTableII)
{
    MemoryImage image;
    const struct
    {
        const char *name;
        double kilobytes;
        double tolerance;
    } budgets[] = {
        {"GHB-PC/DC", 4.0, 0.8},  {"SPP", 5.0, 0.6},
        {"VLDP", 3.25, 0.6},      {"BOP", 4.0, 0.7},
        {"FDP", 2.5, 0.6},        {"SMS", 12.0, 0.8},
        {"AMPM", 4.0, 0.4},       {"TPC", 4.57, 0.5},
    };
    for (const auto &budget : budgets) {
        auto pf = makePrefetcher(budget.name, &image);
        const double kb =
            static_cast<double>(pf->storageBits()) / 8.0 / 1024.0;
        EXPECT_GT(kb, budget.kilobytes * (1.0 - budget.tolerance))
            << budget.name;
        EXPECT_LT(kb, budget.kilobytes * (1.0 + budget.tolerance))
            << budget.name;
    }
}

} // namespace
} // namespace dol
