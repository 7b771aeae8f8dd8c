/**
 * @file
 * Integration tests: whole-system runs over real suite workloads for
 * every evaluated prefetcher, the paper's headline relationships
 * (compositing beats shunting; TPC's accuracy edge), and the
 * multicore path.
 */

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/multicore.hpp"

namespace dol
{
namespace
{

SimConfig
integrationConfig()
{
    SimConfig config;
    config.maxInstrs = 80000;
    return config;
}

/** Every headline prefetcher stays in a sane envelope on key apps. */
class PrefetcherEnvelope
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PrefetcherEnvelope, MetricsWithinBounds)
{
    ExperimentRunner runner(integrationConfig());
    for (const char *workload :
         {"libquantum.syn", "gcc.syn", "omnetpp.syn"}) {
        const RunOutput out =
            runner.run(findWorkload(workload), GetParam());
        EXPECT_GT(out.speedup(), 0.5) << GetParam() << "/" << workload;
        EXPECT_LT(out.speedup(), 12.0) << GetParam() << "/" << workload;
        EXPECT_LE(out.scope, 1.0001) << GetParam() << "/" << workload;
        EXPECT_GE(out.scope, 0.0) << GetParam() << "/" << workload;
        EXPECT_LE(out.effAccuracyL1, 1.05)
            << GetParam() << "/" << workload;
        EXPECT_GT(out.trafficNormalized, 0.5)
            << GetParam() << "/" << workload;
        EXPECT_LT(out.trafficNormalized, 3.0)
            << GetParam() << "/" << workload;
    }
}

INSTANTIATE_TEST_SUITE_P(FigureEight, PrefetcherEnvelope,
                         ::testing::Values("GHB-PC/DC", "FDP", "VLDP",
                                           "SPP", "BOP", "AMPM", "SMS",
                                           "TPC", "TPC+SMS",
                                           "SHUNT:TPC+VLDP"));

TEST(Integration, TpcWinsOnStreamsAndKeepsTrafficLow)
{
    ExperimentRunner runner(integrationConfig());
    const auto &spec = findWorkload("libquantum.syn");

    const RunOutput tpc = runner.run(spec, "TPC");
    EXPECT_GT(tpc.speedup(), 1.5);
    EXPECT_GT(tpc.effAccuracyL1, 0.8);
    EXPECT_LT(tpc.trafficNormalized, 1.15);
}

TEST(Integration, TpcAccuracyBeatsMonolithicsOnPointerApp)
{
    // The paper's core claim: on patterns monolithic prefetchers
    // guess at, TPC either covers them accurately (P1) or leaves them
    // alone — its effective accuracy stays high where theirs
    // collapses.
    ExperimentRunner runner(integrationConfig());
    const auto &spec = findWorkload("mcf.syn");

    const RunOutput tpc = runner.run(spec, "TPC");
    EXPECT_GT(tpc.effAccuracyL1, 0.5);
    for (const char *mono : {"SMS", "BOP"}) {
        const RunOutput out = runner.run(spec, mono);
        EXPECT_GT(tpc.effAccuracyL1, out.effAccuracyL1) << mono;
    }
}

TEST(Integration, CompositingNeverLosesToShunting)
{
    // Figure 15's claim on one representative configuration: the
    // coordinated composite at least matches the uncoordinated shunt.
    ExperimentRunner runner(integrationConfig());
    const auto &spec = findWorkload("gcc.syn");
    const RunOutput composed = runner.run(spec, "TPC+SMS");
    const RunOutput shunted = runner.run(spec, "SHUNT:TPC+SMS");
    EXPECT_GE(composed.speedup(), shunted.speedup() - 0.02);
}

TEST(Integration, StratifiedCountsCoverAllIssues)
{
    ExperimentRunner runner(integrationConfig());
    const RunOutput out =
        runner.run(findWorkload("libquantum.syn"), "TPC");
    const std::uint64_t categorized = out.categories[0].issued +
                                      out.categories[1].issued +
                                      out.categories[2].issued;
    EXPECT_EQ(categorized, out.prefetchesIssued);
    // A stream app's prefetches are overwhelmingly LHF.
    EXPECT_GT(out.categories[0].issued, out.prefetchesIssued / 2);
}

TEST(Integration, ComponentBreakdownSumsToTotal)
{
    ExperimentRunner runner(integrationConfig());
    const RunOutput out = runner.run(findWorkload("mcf.syn"), "TPC");
    std::uint64_t sum = 0;
    for (const auto &comp : out.components)
        sum += comp.issued;
    EXPECT_EQ(sum, out.prefetchesIssued);
    ASSERT_EQ(out.components.size(), 3u);
    EXPECT_EQ(out.components[0].name, "T2");
    EXPECT_EQ(out.components[1].name, "P1");
    EXPECT_EQ(out.components[2].name, "C1");
}

TEST(Integration, ExcludeSetNarrowsFocus)
{
    ExperimentRunner runner(integrationConfig());
    const auto &spec = findWorkload("gcc.syn");
    const auto tpc_lines = runner.prefetchedLines(spec, "TPC");
    ASSERT_NE(tpc_lines, nullptr);

    RunOptions options;
    options.exclude = tpc_lines;
    const RunOutput sms = runner.run(spec, "SMS", options);
    // The focus region is a subset: focus issues <= total issues.
    EXPECT_LE(sms.focus.issued, sms.prefetchesIssued);
    EXPECT_LE(sms.focusScope, 1.0001);
}

TEST(Integration, ForcedDestinationChangesFillLevel)
{
    ExperimentRunner runner(integrationConfig());
    const auto &spec = findWorkload("libquantum.syn");

    RunOptions to_l2;
    to_l2.forceDest = kL2;
    const RunOutput l2run = runner.run(spec, "BOP", to_l2);
    const RunOutput l1run = runner.run(spec, "BOP");
    // Prefetching a stream into L1 is at least as good as L2 (the
    // paper's Figure 16 finding for LHF-heavy apps).
    EXPECT_GE(l1run.speedup(), l2run.speedup() - 0.03);
}

TEST(Multicore, MixRunsAndProducesWeightedSpeedup)
{
    SimConfig config;
    config.maxInstrs = 30000;
    const auto mixes = makeMixes(1, 7);
    ASSERT_EQ(mixes.size(), 1u);

    MulticoreSimulator baseline(config, mixes[0]);
    const MulticoreResult base = baseline.run();
    ASSERT_EQ(base.ipc.size(), 4u);
    for (double ipc : base.ipc) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LT(ipc, 4.5);
    }

    MulticoreSimulator with_tpc(config, makeMixes(1, 7, "TPC")[0]);
    const MulticoreResult result = with_tpc.run();
    const double ws =
        computeFairness(base.ipc, result.ipc).weightedSpeedup;
    EXPECT_GT(ws, 0.7);
    EXPECT_LT(ws, 8.0);
}

TEST(Multicore, DropPolicyExperimentRuns)
{
    SimConfig config;
    config.maxInstrs = 25000;
    // Stress the controller queue so drops actually happen.
    config.mem.dram.queueCapacity = 8;
    const auto mix = makeMixes(1, 11, "TPC")[0];

    config.mem.dram.dropPolicy = DropPolicy::kRandomPrefetch;
    MulticoreSimulator random_policy(config, mix);
    const auto random_result = random_policy.run();

    config.mem.dram.dropPolicy = DropPolicy::kLowPriorityPrefetch;
    MulticoreSimulator smart_policy(config, mix);
    const auto smart_result = smart_policy.run();

    // Both complete; the smart policy never drops more demands.
    EXPECT_EQ(random_result.ipc.size(), 4u);
    EXPECT_EQ(smart_result.ipc.size(), 4u);
}

} // namespace
} // namespace dol
