/**
 * @file
 * Contention-subsystem battery: fairness-metric edge cases, mix
 * determinism, arbitration-policy structural properties (demand-first
 * never queues a demand behind a prefetch), MSHR pressure
 * monotonicity, per-core DRAM attribution, and the headline
 * starvation result — per-core round-robin arbitration reduces the
 * pointer-chase core's slowdown relative to FIFO when it co-runs
 * with an aggressive streamer — and runs that keep no alternate
 * reality (ShadowMode::kNone), which must leave the real machine as a
 * live walk leaves it.
 */

#include <numeric>

#include <gtest/gtest.h>

#include "check/campaign.hpp"
#include "core/registry.hpp"
#include "sim/contention.hpp"
#include "sim/multicore.hpp"
#include "trace/counters.hpp"
#include "workloads/contention.hpp"
#include "workloads/suite.hpp"

namespace dol
{
namespace
{

SimConfig
testConfig(std::uint64_t max_instrs)
{
    SimConfig config;
    config.maxInstrs = max_instrs;
    config.mem.dram.rngSeed = 12345;
    return config;
}

ContentionOutcome
runMix(const std::string &mix, std::uint64_t max_instrs,
       ArbitrationPolicy arbitration)
{
    SimConfig config = testConfig(max_instrs);
    config.mem.dram.arbitration = arbitration;
    return runContentionScenario(config, findContentionMix(mix));
}

// ---------------------------------------------------------------
// computeFairness boundary cases
// ---------------------------------------------------------------

TEST(Fairness, EmptyInputsYieldZeroAggregates)
{
    const FairnessMetrics m = computeFairness({}, {});
    EXPECT_TRUE(m.slowdown.empty());
    EXPECT_EQ(m.weightedSpeedup, 0.0);
    EXPECT_EQ(m.harmonicSpeedup, 0.0);
    EXPECT_EQ(m.unfairness, 0.0);
}

TEST(Fairness, ZeroIpcCoresAreExcluded)
{
    const FairnessMetrics m =
        computeFairness({2.0, 0.0, 1.0}, {1.0, 1.0, 0.0});
    ASSERT_EQ(m.slowdown.size(), 3u);
    EXPECT_DOUBLE_EQ(m.slowdown[0], 2.0);
    EXPECT_EQ(m.slowdown[1], 0.0); // zero solo: not comparable
    EXPECT_EQ(m.slowdown[2], 0.0); // zero mix: not comparable
    // Aggregates only over core 0.
    EXPECT_DOUBLE_EQ(m.weightedSpeedup, 0.5);
    EXPECT_DOUBLE_EQ(m.harmonicSpeedup, 0.5);
    EXPECT_DOUBLE_EQ(m.unfairness, 1.0);
}

TEST(Fairness, EqualSlowdownsArePerfectlyFair)
{
    // Both cores slowed 2x: unfairness is exactly 1.0.
    const FairnessMetrics m = computeFairness({2.0, 4.0}, {1.0, 2.0});
    EXPECT_DOUBLE_EQ(m.unfairness, 1.0);
    EXPECT_DOUBLE_EQ(m.weightedSpeedup, 0.5);
    EXPECT_DOUBLE_EQ(m.harmonicSpeedup, 0.5);
}

TEST(Fairness, UnevenSlowdownsRaiseUnfairness)
{
    // Core 0 slowed 4x, core 1 untouched: unfairness = 4.
    const FairnessMetrics m = computeFairness({4.0, 1.0}, {1.0, 1.0});
    ASSERT_EQ(m.slowdown.size(), 2u);
    EXPECT_DOUBLE_EQ(m.slowdown[0], 4.0);
    EXPECT_DOUBLE_EQ(m.slowdown[1], 1.0);
    EXPECT_DOUBLE_EQ(m.unfairness, 4.0);
    // Harmonic speedup = 2 / (4 + 1).
    EXPECT_DOUBLE_EQ(m.harmonicSpeedup, 0.4);
}

TEST(Fairness, LengthMismatchUsesLongerVectorForSlowdownSize)
{
    const FairnessMetrics m = computeFairness({2.0}, {1.0, 3.0});
    ASSERT_EQ(m.slowdown.size(), 2u);
    EXPECT_DOUBLE_EQ(m.slowdown[0], 2.0);
    EXPECT_EQ(m.slowdown[1], 0.0);
    // Only the common prefix (core 0) is comparable.
    EXPECT_DOUBLE_EQ(m.weightedSpeedup, 0.5);
}

// ---------------------------------------------------------------
// Mix determinism: identical double runs, byte-identical counters
// ---------------------------------------------------------------

TEST(MulticoreDeterminism, HeterogeneousMixCountersAreByteIdentical)
{
    const ContentionMix &mix = findContentionMix("hetero_quad");
    const SimConfig config = testConfig(8000);

    std::string first;
    for (int round = 0; round < 2; ++round) {
        MulticoreSimulator sim(config, mix.cores);
        sim.run();
        CounterRegistry registry;
        sim.exportCounters(registry);
        const std::string text = registry.toText();
        EXPECT_FALSE(text.empty());
        if (round == 0)
            first = text;
        else
            EXPECT_EQ(text, first);
    }
}

TEST(MulticoreDeterminism, FuzzPrefixIsClean)
{
    // A short prefix of the multicore differential campaign must be
    // failure-free (the nightly workflow runs the full campaign).
    check::CampaignOptions options;
    options.kind = check::CampaignKind::kMulticore;
    options.cases = 6;
    options.seed = 1;
    options.sweep.progress = false;
    const check::CampaignReport report = check::runCampaign(options);
    EXPECT_TRUE(report.ok()) << report.summaryText();
}

// ---------------------------------------------------------------
// Arbitration structural properties
// ---------------------------------------------------------------

TEST(Arbitration, DemandFirstNeverDelaysDemandBehindPrefetch)
{
    const ContentionOutcome outcome = runMix(
        "stream_starves_pchase", 20000,
        ArbitrationPolicy::kDemandFirst);
    // Legacy path: zero modelled arbitration delay, so a demand can
    // never be charged a wait behind a queued prefetch.
    EXPECT_EQ(outcome.result.arbDelayCycles, 0u);
    EXPECT_EQ(outcome.result.demandsDelayedByPrefetch, 0u);
}

TEST(Arbitration, FifoChargesDelayAndDelaysDemandsBehindPrefetches)
{
    const ContentionOutcome outcome = runMix(
        "stream_starves_pchase", 20000, ArbitrationPolicy::kFifo);
    EXPECT_GT(outcome.result.arbDelayCycles, 0u);
    EXPECT_GT(outcome.result.demandsDelayedByPrefetch, 0u);
}

TEST(Arbitration, RoundRobinChargesNoMoreDelayThanFifo)
{
    // Per request RR waits behind at most (own + 1) entries of any
    // other core, a subset of the FIFO backlog, so the aggregate
    // modelled delay can only shrink.
    const ContentionOutcome fifo = runMix(
        "stream_starves_pchase", 20000, ArbitrationPolicy::kFifo);
    const ContentionOutcome rr = runMix(
        "stream_starves_pchase", 20000,
        ArbitrationPolicy::kCoreRoundRobin);
    EXPECT_LE(rr.result.arbDelayCycles, fifo.result.arbDelayCycles);
}

// ---------------------------------------------------------------
// Headline starvation scenario: RR protects the pointer chaser
// ---------------------------------------------------------------

TEST(Starvation, RoundRobinReducesPointerChaseSlowdownVsFifo)
{
    const std::uint64_t instrs = 60000;
    const ContentionOutcome fifo = runMix(
        "stream_starves_pchase", instrs, ArbitrationPolicy::kFifo);
    const ContentionOutcome rr = runMix(
        "stream_starves_pchase", instrs,
        ArbitrationPolicy::kCoreRoundRobin);

    ASSERT_EQ(fifo.fairness.slowdown.size(), 2u);
    ASSERT_EQ(rr.fairness.slowdown.size(), 2u);

    const double fifo_pchase = fifo.fairness.slowdown[1];
    const double rr_pchase = rr.fairness.slowdown[1];
    RecordProperty("fifo_pchase_slowdown", std::to_string(fifo_pchase));
    RecordProperty("rr_pchase_slowdown", std::to_string(rr_pchase));

    // Both policies must actually slow the pointer chaser down
    // relative to its solo run, otherwise the scenario is vacuous.
    EXPECT_GT(fifo_pchase, 1.0);
    EXPECT_GT(rr_pchase, 1.0);

    // The headline effect: round-robin lets the quiet pointer-chase
    // core slot in after one round of the streamer's backlog, so its
    // slowdown drops relative to strict FIFO ordering.
    EXPECT_LT(rr_pchase, fifo_pchase)
        << "fifo=" << fifo_pchase << " rr=" << rr_pchase;
}

// ---------------------------------------------------------------
// MSHR pressure monotonicity
// ---------------------------------------------------------------

TEST(MshrPressure, TighterSharedL3MshrsNeverReduceStalls)
{
    const ContentionMix &mix = findContentionMix("temporal_quad");

    auto stalls_with = [&mix](unsigned mshrs) {
        SimConfig config = testConfig(8000);
        config.mem.l3.mshrs = mshrs;
        MulticoreSimulator sim(config, mix.cores);
        const MulticoreResult result = sim.run();
        return std::accumulate(result.coreL3MshrStalls.begin(),
                               result.coreL3MshrStalls.end(),
                               std::uint64_t{0});
    };

    const std::uint64_t tight = stalls_with(2);
    const std::uint64_t generous = stalls_with(32);
    EXPECT_GE(tight, generous);
    EXPECT_GT(tight, 0u) << "4-way temporal mix with 2 shared-L3 "
                            "MSHRs never filled the MSHR file";
}

// ---------------------------------------------------------------
// Bandwidth window
// ---------------------------------------------------------------

TEST(BandwidthWindow, CapDefersRequestsAndUncappedDoesNot)
{
    const ContentionMix &mix = findContentionMix("stream_starves_pchase");

    SimConfig uncapped = testConfig(12000);
    MulticoreSimulator free_sim(uncapped, mix.cores);
    const MulticoreResult free_result = free_sim.run();
    EXPECT_EQ(free_result.windowDeferrals, 0u);

    SimConfig capped = testConfig(12000);
    capped.mem.dram.linesPerWindow = 8;
    capped.mem.dram.windowCycles = 3000;
    MulticoreSimulator capped_sim(capped, mix.cores);
    const MulticoreResult capped_result = capped_sim.run();
    EXPECT_GT(capped_result.windowDeferrals, 0u);
}

// ---------------------------------------------------------------
// Per-core shared-resource attribution
// ---------------------------------------------------------------

TEST(Attribution, PerCoreDramLinesSumToSharedTotal)
{
    const ContentionMix &mix = findContentionMix("hetero_quad");
    MulticoreSimulator sim(testConfig(8000), mix.cores);
    const MulticoreResult result = sim.run();

    ASSERT_EQ(result.coreDramLines.size(), mix.cores.size());
    const std::uint64_t attributed =
        std::accumulate(result.coreDramLines.begin(),
                        result.coreDramLines.end(), std::uint64_t{0});
    EXPECT_EQ(attributed, result.dramLines);
    for (std::size_t i = 0; i < result.coreDramLines.size(); ++i) {
        EXPECT_LE(result.corePrefetchLines[i], result.coreDramLines[i])
            << "core " << i;
    }
}

TEST(Attribution, SharedL3TracksInsertionsAndCrossCoreEvictions)
{
    const ContentionMix &mix = findContentionMix("temporal_quad");
    SimConfig config = testConfig(12000);
    // Shrink the shared L3 so four cores actually fight over
    // capacity within the test budget.
    config.mem.l3.sizeBytes = 256 * 1024;
    MulticoreSimulator sim(config, mix.cores);
    const MulticoreResult result = sim.run();

    const std::uint64_t insertions = std::accumulate(
        result.coreL3Insertions.begin(), result.coreL3Insertions.end(),
        std::uint64_t{0});
    EXPECT_GT(insertions, 0u);
    // Four cores hammering one shared L3 must evict each other at
    // least once; a zero here means ownership tracking is broken.
    const std::uint64_t cross = std::accumulate(
        result.coreL3EvictionsOfOthers.begin(),
        result.coreL3EvictionsOfOthers.end(), std::uint64_t{0});
    EXPECT_GT(cross, 0u);
    EXPECT_LE(cross, insertions);
}

// ---------------------------------------------------------------
// Scenario counter export
// ---------------------------------------------------------------

TEST(ContentionScenario, ExportsPerCoreFairnessAndDramScopes)
{
    const ContentionOutcome outcome = runMix(
        "stream_starves_pchase", 12000, ArbitrationPolicy::kFifo);
    const std::string text = outcome.counters.toText();
    for (const char *needle :
         {"core0.ipc_milli", "core0.solo_ipc_milli",
          "core0.slowdown_milli", "core1.dram_lines",
          "core1.l3_insertions", "core1.l3_mshr_stalls",
          "fairness.weighted_speedup_milli",
          "fairness.harmonic_speedup_milli",
          "fairness.unfairness_milli", "dram.lines",
          "dram.arb_delay_cycles"}) {
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing counter " << needle;
    }
}

// ---------------------------------------------------------------
// Runs without an alternate reality
// ---------------------------------------------------------------

const ArbitrationPolicy kAllArbitrations[] = {
    ArbitrationPolicy::kDemandFirst, ArbitrationPolicy::kFifo,
    ArbitrationPolicy::kCoreRoundRobin};

/** @p registry's counters but the alternate reality's (shadow and
 *  induced misses, baseline DRAM lines), whose sum goes to
 *  @p shadow_total. */
std::vector<std::pair<std::string, std::uint64_t>>
realCounters(const CounterRegistry &registry, std::uint64_t &shadow_total)
{
    std::vector<std::pair<std::string, std::uint64_t>> real;
    for (const auto &[name, value] : registry.sorted()) {
        if (name.ends_with(".shadow_misses") ||
            name.ends_with(".induced_misses") ||
            name == "dram.baseline_lines") {
            shadow_total += value;
        } else {
            real.emplace_back(name, value);
        }
    }
    return real;
}

/** runContentionScenario's solo run of every core of the four named
 *  mixes, under every arbitration, walks no alternate reality: its
 *  IPC and every real counter must equal a live-walk Simulator's. */
TEST(NoAlternateReality, SoloRunMatchesLiveWalkOnEveryNamedMixCore)
{
    ASSERT_EQ(contentionMixes().size(), 4u);
    for (const ContentionMix &mix : contentionMixes()) {
        const auto cores = static_cast<unsigned>(mix.cores.size());
        for (const ArbitrationPolicy arbitration : kAllArbitrations) {
            SimConfig config = testConfig(6000);
            config.mem.dram.arbitration = arbitration;
            for (const CoreSpec &spec : mix.cores) {
                const auto solo = [&](ShadowMode shadow,
                                      CounterRegistry &counters) {
                    MemoryImage image;
                    auto kernel = findWorkload(spec.workload).factory(image);
                    auto prefetcher =
                        spec.prefetcher.empty()
                            ? nullptr
                            : makePrefetcher(spec.prefetcher, &image);
                    Simulator sim(config, *kernel, prefetcher.get(),
                                  std::make_shared<SharedMemory>(
                                      config.mem, cores, shadow));
                    sim.run();
                    sim.exportCounters(counters);
                    return sim.ipc();
                };
                const std::string where =
                    mix.name + " " + spec.workload + "/" + spec.prefetcher +
                    " arbitration " +
                    std::to_string(static_cast<int>(arbitration));
                CounterRegistry live_counters;
                CounterRegistry none_counters;
                const double live = solo(ShadowMode::kLiveWalk, live_counters);
                const double none = solo(ShadowMode::kNone, none_counters);
                EXPECT_EQ(none, live) << where;
                std::uint64_t live_shadow = 0;
                std::uint64_t none_shadow = 0;
                EXPECT_EQ(realCounters(none_counters, none_shadow),
                          realCounters(live_counters, live_shadow))
                    << where;
                EXPECT_GT(live_shadow, 0u) << where;
                EXPECT_EQ(none_shadow, 0u) << where;
            }
        }
    }
}

/** The same for a whole mix, as fig_suite_grid's IPC-only mixes run
 *  it: per-core IPC and every real counter as a live walk's. */
TEST(NoAlternateReality, MulticoreRunMatchesLiveWalkOnEveryNamedMix)
{
    for (const ContentionMix &mix : contentionMixes()) {
        for (const ArbitrationPolicy arbitration : kAllArbitrations) {
            SimConfig config = testConfig(6000);
            config.mem.dram.arbitration = arbitration;
            MulticoreSimulator live(config, mix.cores);
            MulticoreSimulator none(config, mix.cores, ShadowMode::kNone);
            const std::string where =
                mix.name + " arbitration " +
                std::to_string(static_cast<int>(arbitration));
            EXPECT_EQ(none.run().ipc, live.run().ipc) << where;
            CounterRegistry live_counters;
            CounterRegistry none_counters;
            live.exportCounters(live_counters);
            none.exportCounters(none_counters);
            std::uint64_t live_shadow = 0;
            std::uint64_t none_shadow = 0;
            EXPECT_EQ(realCounters(none_counters, none_shadow),
                      realCounters(live_counters, live_shadow))
                << where;
            EXPECT_GT(live_shadow, 0u) << where;
            EXPECT_EQ(none_shadow, 0u) << where;
        }
    }
}

} // namespace
} // namespace dol
