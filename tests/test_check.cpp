/**
 * @file
 * Tier-1 unit tests for the differential checker (src/check/): the
 * naive reference cache against the production cache, the ddmin trace
 * shrinker, mutation plumbing, and a handful of full differential
 * cases — clean seeds pass, planted reference mutations are caught.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "check/differential.hpp"
#include "check/fuzz_workload.hpp"
#include "check/mutation.hpp"
#include "check/reference_cache.hpp"
#include "check/shrink.hpp"
#include "common/rng.hpp"
#include "mem/cache.hpp"

namespace dol::check
{
namespace
{

// --- seed derivation ---------------------------------------------

TEST(CaseSeed, DeterministicAndDispersed)
{
    EXPECT_EQ(caseSeed(1, 0), caseSeed(1, 0));
    EXPECT_EQ(caseSeed(42, 17), caseSeed(42, 17));

    // No collisions across a realistic campaign, and campaigns with
    // different seeds share no cases.
    std::set<std::uint64_t> seen;
    for (std::uint64_t campaign : {1ull, 2ull, 999ull}) {
        for (std::uint64_t i = 0; i < 1000; ++i)
            seen.insert(caseSeed(campaign, i));
    }
    EXPECT_EQ(seen.size(), 3000u);
}

TEST(CaseSeed, ParamsAndTraceAreSeedFunctions)
{
    const std::uint64_t seed = caseSeed(1, 3);
    const FuzzParams a = makeFuzzParams(seed);
    const FuzzParams b = makeFuzzParams(seed);
    EXPECT_EQ(a.t2.strideThreshold, b.t2.strideThreshold);
    EXPECT_EQ(a.t2.defaultDistance, b.t2.defaultDistance);
    EXPECT_EQ(a.enableP1, b.enableP1);
    EXPECT_EQ(a.opSeed, b.opSeed);

    const auto trace_a = makeFuzzTrace(seed, a);
    const auto trace_b = makeFuzzTrace(seed, b);
    ASSERT_EQ(trace_a.size(), trace_b.size());
    for (std::size_t i = 0; i < trace_a.size(); ++i) {
        EXPECT_EQ(trace_a[i].pc, trace_b[i].pc);
        EXPECT_EQ(trace_a[i].addr, trace_b[i].addr);
        EXPECT_EQ(trace_a[i].value, trace_b[i].value);
    }
}

TEST(FuzzTrace, EachAddressCarriesOneValue)
{
    // A ReplayKernel rebuilds the heap from first-touch values. That
    // is the heap every load of the trace reads only if no address
    // carries two values, as a chase that revisits a node with
    // another successor would.
    for (const std::uint64_t campaign : {1, 2, 3, 7, 42}) {
        for (std::uint64_t index = 0; index < 1000; ++index) {
            const std::uint64_t seed = caseSeed(campaign, index);
            std::unordered_map<Addr, std::uint64_t> values;
            for (const TraceRecord &record :
                 makeFuzzTrace(seed, makeFuzzParams(seed))) {
                const Instr instr = record.unpack();
                if (!instr.isMem())
                    continue;
                const auto [it, inserted] =
                    values.emplace(instr.addr, instr.value);
                ASSERT_TRUE(inserted || it->second == instr.value)
                    << "campaign " << campaign << " case " << index
                    << ": " << hex(instr.addr) << " holds "
                    << hex(it->second) << " and later "
                    << hex(instr.value);
            }
        }
    }
}

// --- mutation plumbing -------------------------------------------

TEST(MutationNames, RoundTrip)
{
    for (Mutation m :
         {Mutation::kNone, Mutation::kLruVictimOffByOne,
          Mutation::kDropRebinding, Mutation::kT2ConfirmThreshold,
          Mutation::kRebindWrongExtra}) {
        const auto back = mutationFromName(mutationName(m));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, m);
    }
    EXPECT_FALSE(mutationFromName("bogus").has_value());
    ASSERT_TRUE(mutationFromName("").has_value());
    EXPECT_EQ(*mutationFromName(""), Mutation::kNone);
}

// --- reference cache ---------------------------------------------

TEST(ReferenceCacheTest, EvictsLeastRecentlyUsedOfTheSet)
{
    // 2 sets x 2 ways of 64 B lines; same-set lines differ by
    // 2 * kLineBytes.
    ReferenceCache cache(4 * kLineBytes, 2);
    ASSERT_EQ(cache.numSets(), 2u);

    const Addr a = 0x1000, b = a + 2 * kLineBytes,
               c = a + 4 * kLineBytes;
    EXPECT_EQ(cache.setOf(a), cache.setOf(b));
    EXPECT_EQ(cache.setOf(a), cache.setOf(c));

    EXPECT_FALSE(cache.insert(a, false, 1, false).has_value());
    EXPECT_FALSE(cache.insert(b, true, 2, true).has_value());
    cache.touch(a); // b becomes LRU

    const auto victim = cache.insert(c, false, 3, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, b);
    EXPECT_TRUE(victim->dirty);
    EXPECT_TRUE(victim->prefetched);
    EXPECT_EQ(victim->comp, 2);

    EXPECT_NE(cache.find(a), nullptr);
    EXPECT_EQ(cache.find(b), nullptr);
    EXPECT_NE(cache.find(c), nullptr);
}

TEST(ReferenceCacheTest, LruMutationPicksTheWrongVictim)
{
    ReferenceCache cache(4 * kLineBytes, 2,
                         Mutation::kLruVictimOffByOne);
    const Addr a = 0x1000, b = a + 2 * kLineBytes,
               c = a + 4 * kLineBytes;
    cache.insert(a, false, 1, false);
    cache.insert(b, false, 2, false);
    cache.touch(a); // correct LRU victim would be b

    const auto victim = cache.insert(c, false, 3, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->lineAddr, a)
        << "the off-by-one mutation must evict the second-oldest line";
}

/**
 * Drive the production Cache and the ReferenceCache with one random
 * find/touch/insert/invalidate stream and diff every observable.
 * This is the standalone half of the differential harness, asserted
 * directly so a cache regression fails here with a precise message
 * rather than only through the fuzz campaign.
 */
TEST(ReferenceCacheTest, AgreesWithProductionCacheOnRandomOps)
{
    Cache::Params params;
    params.sizeBytes = 2048;
    params.assoc = 4;
    params.mshrs = 0;
    Cache production(params);
    ReferenceCache reference(params.sizeBytes, params.assoc);

    Rng rng(1234);
    for (int i = 0; i < 20000; ++i) {
        // 256 distinct lines against 32 resident: constant evictions.
        const Addr line = 0x40000 + rng.below(256) * kLineBytes;
        if (rng.chance(0.05)) {
            EXPECT_EQ(production.invalidate(line),
                      reference.invalidate(line))
                << "op " << i;
            continue;
        }
        Cache::Line *prod_line = production.find(line);
        ReferenceCache::Line *ref_line = reference.find(line);
        ASSERT_EQ(prod_line != nullptr, ref_line != nullptr)
            << "hit/miss diverged at op " << i;
        if (prod_line) {
            EXPECT_EQ(prod_line->dirty, ref_line->dirty) << "op " << i;
            EXPECT_EQ(prod_line->prefetched, ref_line->prefetched);
            EXPECT_EQ(prod_line->comp, ref_line->comp);
            production.touch(*prod_line);
            reference.touch(line);
            if (rng.chance(0.2)) {
                prod_line->dirty = true;
                ref_line->dirty = true;
            }
            continue;
        }
        const bool prefetched = rng.chance(0.3);
        const auto comp = static_cast<ComponentId>(1 + rng.below(3));
        Cache::Line *filled = nullptr;
        const auto prod_victim = production.insert(line, &filled);
        filled->prefetched = prefetched;
        filled->comp = comp;
        const auto ref_victim =
            reference.insert(line, prefetched, comp, false);
        ASSERT_EQ(prod_victim.has_value(), ref_victim.has_value())
            << "victim presence diverged at op " << i;
        if (prod_victim) {
            EXPECT_EQ(prod_victim->lineAddr, ref_victim->lineAddr)
                << "victim identity diverged at op " << i;
            EXPECT_EQ(prod_victim->dirty, ref_victim->dirty);
            EXPECT_EQ(prod_victim->prefetched, ref_victim->prefetched);
            EXPECT_EQ(prod_victim->comp, ref_victim->comp);
        }
    }
}

// --- shrinker ----------------------------------------------------

std::vector<TraceRecord>
paddedTrace(std::size_t n)
{
    std::vector<TraceRecord> records(n);
    for (std::size_t i = 0; i < n; ++i) {
        records[i] = TraceRecord{};
        records[i].pc = 0x1000 + i * 4;
    }
    return records;
}

TEST(Shrinker, ReducesToMinimalFailingSubset)
{
    // Failure requires two specific records far apart in the trace.
    auto records = paddedTrace(300);
    records[17].pc = 0xdead;
    records[251].pc = 0xbeef;
    const auto still_fails =
        [](const std::vector<TraceRecord> &candidate) {
            bool a = false, b = false;
            for (const TraceRecord &record : candidate) {
                a = a || record.pc == 0xdead;
                b = b || record.pc == 0xbeef;
            }
            return a && b;
        };

    const ShrinkResult result = shrinkTrace(records, still_fails);
    EXPECT_TRUE(result.converged);
    ASSERT_EQ(result.records.size(), 2u);
    EXPECT_EQ(result.records[0].pc, 0xdead);
    EXPECT_EQ(result.records[1].pc, 0xbeef);
    EXPECT_TRUE(still_fails(result.records));
}

TEST(Shrinker, AlwaysFailingPredicateShrinksToOneRecord)
{
    // The shrinker never proposes an empty candidate — an empty
    // "reproducer" replays nothing — so the floor is one record.
    const auto result = shrinkTrace(
        paddedTrace(64),
        [](const std::vector<TraceRecord> &) { return true; });
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.records.size(), 1u);
}

TEST(Shrinker, BudgetExhaustionReturnsBestSoFar)
{
    auto records = paddedTrace(256);
    records[200].pc = 0xdead;
    const auto still_fails =
        [](const std::vector<TraceRecord> &candidate) {
            return std::any_of(candidate.begin(), candidate.end(),
                               [](const TraceRecord &record) {
                                   return record.pc == 0xdead;
                               });
        };

    const ShrinkResult tight = shrinkTrace(records, still_fails, 3);
    EXPECT_FALSE(tight.converged);
    EXPECT_LE(tight.evaluations, 3u);
    EXPECT_LE(tight.records.size(), records.size());
    EXPECT_TRUE(still_fails(tight.records)) << "must stay failing";

    const ShrinkResult full = shrinkTrace(records, still_fails);
    EXPECT_TRUE(full.converged);
    EXPECT_EQ(full.records.size(), 1u);
}

// --- full differential cases -------------------------------------

TEST(Differential, CleanSeedsPassEveryCheck)
{
    for (std::uint64_t index : {0ull, 1ull, 2ull}) {
        const DiffResult diff = checkCase(caseSeed(1, index));
        EXPECT_TRUE(diff.ok) << diff.summary();
    }
}

TEST(Differential, PlantedLruMutationIsCaughtByCacheCheck)
{
    const DiffResult diff =
        checkCase(caseSeed(7, 0), Mutation::kLruVictimOffByOne);
    ASSERT_FALSE(diff.ok);
    EXPECT_EQ(diff.check, "cache") << diff.summary();
}

TEST(Differential, PlantedCoordinatorAndT2MutationsAreCaught)
{
    const DiffResult rebind =
        checkCase(caseSeed(7, 0), Mutation::kDropRebinding);
    EXPECT_FALSE(rebind.ok);
    const DiffResult confirm =
        checkCase(caseSeed(7, 0), Mutation::kT2ConfirmThreshold);
    EXPECT_FALSE(confirm.ok);
}

TEST(Differential, ShrunkMutationReproducerStillFails)
{
    const std::uint64_t seed = caseSeed(7, 0);
    CheckConfig config;
    config.params = makeFuzzParams(seed);
    config.mutation = Mutation::kLruVictimOffByOne;
    const auto records = makeFuzzTrace(seed, config.params);
    ASSERT_FALSE(checkTrace(records, config).ok);

    const ShrinkResult shrunk = shrinkTrace(
        records,
        [&](const std::vector<TraceRecord> &candidate) {
            return !checkTrace(candidate, config).ok;
        });
    EXPECT_TRUE(shrunk.converged);
    EXPECT_LT(shrunk.records.size(), records.size());
    EXPECT_LE(shrunk.records.size(), 100u);
    EXPECT_FALSE(checkTrace(shrunk.records, config).ok)
        << "the minimised trace must reproduce the diff";
}

} // namespace
} // namespace dol::check
