/**
 * @file
 * Unit tests for the metrics layer: the scope definition (weighted
 * FP coverage, paper section III), effective-accuracy credit
 * bookkeeping, and the offline LHF/MHF/HHF stratifier.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <vector>

#include "metrics/accounting.hpp"
#include "metrics/stratify.hpp"

namespace dol
{
namespace
{

TEST(Accounting, ScopeIsWeightedFootprintCoverage)
{
    PrefetchAccounting acct;
    // Footprint: line A missed 3 times, line B once.
    acct.shadowMiss(kL1, 0x1000, 1);
    acct.shadowMiss(kL1, 0x1000, 1);
    acct.shadowMiss(kL1, 0x1000, 1);
    acct.shadowMiss(kL1, 0x2000, 1);
    // The prefetcher attempted only A.
    acct.prefetchIssued(1, 0x1000, kL1, 0);

    const PrefetchAccounting::Scopes scopes = acct.scopes();
    EXPECT_NEAR(scopes.total, 0.75, 1e-9);
    EXPECT_NEAR(scopes.byComponent[1], 0.75, 1e-9);
    EXPECT_NEAR(scopes.byComponent[2], 0.0, 1e-9);
    EXPECT_EQ(acct.footprintLines(), 2u);
    EXPECT_EQ(acct.footprintWeight(), 4u);
}

TEST(Accounting, L2ShadowMissesDoNotEnterL1Footprint)
{
    PrefetchAccounting acct;
    acct.shadowMiss(kL2, 0x1000, 1);
    acct.shadowMiss(kL3, 0x2000, 1);
    EXPECT_EQ(acct.footprintLines(), 0u);
}

TEST(Accounting, CategoryCountersUseStratifier)
{
    OfflineStratifier strat;
    // Strided PC: addresses 0x100000 + i*64 -> LHF lines.
    for (int i = 0; i < 20; ++i)
        strat.observe(0x10, 0x100000 + i * 64);
    // Dense region at 0x200000 via a wandering PC -> MHF.
    for (unsigned i = 0; i < 10; ++i)
        strat.observe(0x20, 0x200000 + ((i * 5) % 16) * 64);

    PrefetchAccounting acct;
    acct.setStratifier(&strat);

    acct.prefetchIssued(1, 0x100000 + 5 * 64, kL1, 0); // LHF
    acct.prefetchIssued(1, 0x200000 + 2 * 64, kL1, 0); // MHF
    acct.prefetchIssued(1, 0x900000, kL1, 0);          // HHF

    EXPECT_EQ(acct.category(Fruit::kLHF).issued, 1u);
    EXPECT_EQ(acct.category(Fruit::kMHF).issued, 1u);
    EXPECT_EQ(acct.category(Fruit::kHHF).issued, 1u);

    // A use credits the category the prefetch was charged to.
    acct.prefetchUsed(1, kL1, 0x100000 + 5 * 64);
    EXPECT_EQ(acct.category(Fruit::kLHF).used, 1u);
    EXPECT_NEAR(acct.category(Fruit::kLHF).effectiveAccuracy(), 1.0,
                1e-9);
}

TEST(Accounting, EffectiveAccuracyGoesNegativeWithPollution)
{
    PrefetchAccounting acct;
    acct.prefetchIssued(1, 0x1000, kL1, 0);
    std::vector<ComponentId> comps{1};
    acct.inducedMiss(kL1, 0x1000, comps);
    acct.inducedMiss(kL1, 0x1000, comps);
    // 0 used - 2 induced over 1 issued: accuracy -2 (worse than
    // useless, as in the paper's HHF scatter).
    EXPECT_NEAR(acct.category(Fruit::kHHF).effectiveAccuracy(), -2.0,
                1e-9);
}

TEST(Accounting, ExcludeSetConfinesFocusCounters)
{
    auto exclude = std::make_shared<FlatHashSet<Addr>>();
    exclude->insert(0x1000);

    PrefetchAccounting acct;
    acct.setExcludeSet(exclude);

    acct.shadowMiss(kL1, 0x1000, 1); // covered by TPC: not in focus
    acct.shadowMiss(kL1, 0x2000, 1); // in focus
    acct.prefetchIssued(1, 0x1000, kL1, 0);
    acct.prefetchIssued(1, 0x2000, kL1, 0);
    acct.prefetchUsed(1, kL1, 0x2000);

    EXPECT_EQ(acct.focus().issued, 1u);
    EXPECT_EQ(acct.focus().used, 1u);
    EXPECT_NEAR(acct.scopes().focus, 1.0, 1e-9);
}

TEST(Accounting, PfpHandoffFeedsNextExperiment)
{
    PrefetchAccounting acct;
    acct.prefetchIssued(1, 0x1000, kL1, 0);
    acct.prefetchIssued(2, 0x2000, kL2, 0);
    auto pfp = acct.prefetchedLines();
    ASSERT_NE(pfp, nullptr);
    EXPECT_TRUE(pfp->contains(0x1000));
    EXPECT_TRUE(pfp->contains(0x2000));
    EXPECT_EQ(pfp->size(), 2u);
}

/**
 * The paper's definitions, recounted with ordered containers from the
 * same callbacks: FP and PFP as plain sets, one PFP per component, the
 * category of a line's first issue, and every scope as its own walk.
 */
struct NaiveAccounting
{
    const OfflineStratifier *stratifier = nullptr;
    const FlatHashSet<Addr> *exclude = nullptr;

    std::map<Addr, std::uint64_t> fp;
    std::set<Addr> pfp;
    std::array<std::set<Addr>, kMaxComponents> pfpByComp;
    std::map<Addr, Fruit> firstFruit;
    std::array<PrefetchAccounting::CategoryCounters, kNumFruit>
        categories{};
    PrefetchAccounting::CategoryCounters focus{};

    bool inFocus(Addr line) const { return !exclude->contains(line); }

    void
    shadowMiss(unsigned level, Addr line)
    {
        if (level == kL1)
            ++fp[line];
    }

    void
    issued(ComponentId comp, Addr line)
    {
        pfp.insert(line);
        pfpByComp[comp].insert(line);
        firstFruit.emplace(line, stratifier->classify(line));
        ++categories[static_cast<unsigned>(firstFruit.at(line))].issued;
        if (inFocus(line))
            ++focus.issued;
    }

    void
    used(unsigned level, Addr line)
    {
        if (level != kL1 && level != kL2)
            return;
        const auto it = firstFruit.find(line);
        const Fruit fruit = it != firstFruit.end() ? it->second : Fruit::kHHF;
        ++categories[static_cast<unsigned>(fruit)].used;
        if (inFocus(line))
            ++focus.used;
    }

    void
    induced(unsigned level, Addr line)
    {
        if (level != kL1)
            return;
        const auto it = firstFruit.find(line);
        const Fruit fruit = it != firstFruit.end()
                                ? it->second
                                : stratifier->classify(line);
        categories[static_cast<unsigned>(fruit)].inducedCredit += 1.0;
        if (inFocus(line))
            focus.inducedCredit += 1.0;
    }

    /** Weighted share of the FP lines @p in_scope admits that
     *  @p lines covers. */
    template <typename InScope>
    double
    scope(const std::set<Addr> &lines, InScope in_scope) const
    {
        std::uint64_t total = 0;
        std::uint64_t covered = 0;
        for (const auto &[line, weight] : fp) {
            if (!in_scope(line))
                continue;
            total += weight;
            if (lines.contains(line))
                covered += weight;
        }
        return total ? static_cast<double>(covered) /
                           static_cast<double>(total)
                     : 0.0;
    }
};

TEST(Accounting, OnePassMatchesNaiveRecount)
{
    // A strided PC over one region (LHF), a wandering PC over a dense
    // one (MHF), and scattered lines no pattern reaches (HHF).
    OfflineStratifier strat;
    std::vector<Addr> universe;
    for (Addr i = 0; i < 16; ++i) {
        strat.observe(0x10, 0x100000 + i * kLineBytes);
        universe.push_back(0x100000 + i * kLineBytes);
    }
    for (Addr i = 0; i < 16; ++i) {
        strat.observe(0x20, 0x200000 + ((i * 5) % 16) * kLineBytes);
        universe.push_back(0x200000 + i * kLineBytes);
    }
    for (Addr i = 0; i < 16; ++i)
        universe.push_back(0x900000 + i * kRegionBytes);

    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(seed);
        std::mt19937_64 rng(seed);
        const auto pick = [&](std::size_t n) {
            return static_cast<std::size_t>(rng() % n);
        };

        auto exclude = std::make_shared<FlatHashSet<Addr>>();
        for (const Addr line : universe) {
            if (pick(2))
                exclude->insert(line);
        }

        PrefetchAccounting acct;
        acct.setStratifier(&strat);
        acct.setExcludeSet(exclude);
        NaiveAccounting naive;
        naive.stratifier = &strat;
        naive.exclude = exclude.get();

        for (int event = 0; event < 2000; ++event) {
            const Addr line = universe[pick(universe.size())];
            const unsigned level = static_cast<unsigned>(pick(3));
            const auto comp = static_cast<ComponentId>(pick(kMaxComponents));
            switch (pick(4)) {
            case 0:
                acct.shadowMiss(level, line, 0);
                naive.shadowMiss(level, line);
                break;
            case 1:
                acct.prefetchIssued(comp, line, level, 0);
                naive.issued(comp, line);
                break;
            case 2:
                acct.prefetchUsed(comp, level, line);
                naive.used(level, line);
                break;
            default: {
                const std::vector<ComponentId> comps{comp};
                acct.inducedMiss(level, line, comps);
                naive.induced(level, line);
                break;
            }
            }
        }

        const auto everywhere = [](Addr) { return true; };
        const PrefetchAccounting::Scopes scopes = acct.scopes();
        EXPECT_EQ(scopes.total, naive.scope(naive.pfp, everywhere));
        for (unsigned c = 0; c < kMaxComponents; ++c) {
            EXPECT_EQ(scopes.byComponent[c],
                      naive.scope(naive.pfpByComp[c], everywhere))
                << "component " << c;
        }
        for (unsigned f = 0; f < kNumFruit; ++f) {
            const auto fruit = static_cast<Fruit>(f);
            EXPECT_EQ(scopes.byCategory[f],
                      naive.scope(naive.pfp, [&](Addr line) {
                          return strat.classify(line) == fruit;
                      }))
                << fruitName(fruit);
            const auto &got = acct.category(fruit);
            const auto &want = naive.categories[f];
            EXPECT_EQ(got.issued, want.issued) << fruitName(fruit);
            EXPECT_EQ(got.used, want.used) << fruitName(fruit);
            EXPECT_EQ(got.inducedCredit, want.inducedCredit)
                << fruitName(fruit);
        }
        EXPECT_EQ(scopes.focus,
                  naive.scope(naive.pfp, [&](Addr line) {
                      return naive.inFocus(line);
                  }));
        EXPECT_EQ(acct.focus().issued, naive.focus.issued);
        EXPECT_EQ(acct.focus().used, naive.focus.used);
        EXPECT_EQ(acct.focus().inducedCredit, naive.focus.inducedCredit);

        std::uint64_t weight = 0;
        for (const auto &[line, count] : naive.fp)
            weight += count;
        EXPECT_EQ(acct.footprintLines(), naive.fp.size());
        EXPECT_EQ(acct.footprintWeight(), weight);
        const auto lines = acct.prefetchedLines();
        EXPECT_EQ(lines->size(), naive.pfp.size());
        for (const Addr line : naive.pfp)
            EXPECT_TRUE(lines->contains(line));
    }
}

TEST(Stratifier, ClassifiesThreeCategories)
{
    OfflineStratifier strat;
    // LHF: steady stride.
    for (int i = 0; i < 30; ++i)
        strat.observe(0x10, 0x500000 + i * 64);
    // MHF: dense region, no stride.
    const unsigned scramble[] = {0, 5, 2, 11, 7, 14, 3, 9};
    for (unsigned off : scramble)
        strat.observe(0x20, 0x600000 + off * 64);
    // Sparse region: only 2 lines.
    strat.observe(0x30, 0x700000);
    strat.observe(0x30, 0x700000 + 64);

    EXPECT_EQ(strat.classify(0x500000 + 10 * 64), Fruit::kLHF);
    EXPECT_EQ(strat.classify(0x600000 + 5 * 64), Fruit::kMHF);
    EXPECT_EQ(strat.classify(0x700000), Fruit::kHHF);
    EXPECT_EQ(strat.classify(0x900000), Fruit::kHHF);
    EXPECT_GT(strat.lhfLineCount(), 20u);
}

TEST(Stratifier, StridedLinesBeatDensity)
{
    OfflineStratifier strat;
    // A strided PC sweeping a dense region: LHF wins.
    for (int i = 0; i < 16; ++i)
        strat.observe(0x10, 0x800000 + i * 64);
    EXPECT_EQ(strat.classify(0x800000 + 8 * 64), Fruit::kLHF);
}

TEST(Stratifier, ForwardContinuationIsPreMarked)
{
    OfflineStratifier strat;
    for (int i = 0; i < 10; ++i)
        strat.observe(0x10, 0xa00000 + i * 64);
    // One line beyond the observed stream still classifies LHF, so
    // ahead-of-stream prefetches are labelled correctly.
    EXPECT_EQ(strat.classify(0xa00000 + 10 * 64), Fruit::kLHF);
}

TEST(Stratifier, FruitNames)
{
    EXPECT_STREQ(fruitName(Fruit::kLHF), "LHF");
    EXPECT_STREQ(fruitName(Fruit::kMHF), "MHF");
    EXPECT_STREQ(fruitName(Fruit::kHHF), "HHF");
}

} // namespace
} // namespace dol
