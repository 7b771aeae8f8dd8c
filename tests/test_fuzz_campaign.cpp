/**
 * @file
 * Tier-2 tests for the fuzz campaigns: clean parallel runs of every
 * kind, byte-identical summaries across job counts, reproducer files
 * that replay, drained-and-resumed campaigns, and the mutation
 * self-tests backing the checkers' bug-finding guarantee — each
 * planted bug must be caught within 200 cases, and each trace kind's
 * reproducer must shrink to at most 100 records.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "check/campaign.hpp"
#include "check/fuzz_workload.hpp"
#include "workloads/trace_file.hpp"

namespace dol::check
{
namespace
{

std::string
scratchDir(const std::string &leaf)
{
    const auto dir =
        std::filesystem::temp_directory_path() / "dol-fuzz-test" / leaf;
    std::filesystem::remove_all(dir);
    return dir.string();
}

/** A campaign of @p kind with no progress line. */
CampaignOptions
quietCampaign(CampaignKind kind = CampaignKind::kDifferential)
{
    CampaignOptions options;
    options.kind = kind;
    options.sweep.progress = false;
    return options;
}

TEST(FuzzCampaign, CleanRunReportsZeroFailures)
{
    CampaignOptions options = quietCampaign();
    options.cases = 40;
    options.seed = 1;
    options.sweep.jobs = 2;
    options.reproDir = scratchDir("clean");

    const CampaignReport report = runCampaign(options);
    EXPECT_TRUE(report.ok()) << report.summaryText();
    EXPECT_EQ(report.summaryText(),
              "fuzz campaign: 40 cases, seed 1, 0 failures\n");
    EXPECT_FALSE(std::filesystem::exists(options.reproDir))
        << "a clean campaign must not create the reproducer dir";
}

TEST(FuzzCampaign, SummaryIsIdenticalAcrossJobCounts)
{
    CampaignOptions options = quietCampaign();
    options.cases = 16;
    options.seed = 3;
    options.reproDir = scratchDir("jobs");

    options.sweep.jobs = 1;
    const std::string serial = runCampaign(options).summaryText();
    options.sweep.jobs = 4;
    const std::string parallel = runCampaign(options).summaryText();
    EXPECT_EQ(serial, parallel);
}

TEST(FuzzCampaign, ReproducerFileReplaysTheFailure)
{
    CampaignOptions options = quietCampaign();
    options.cases = 1;
    options.seed = 7; // case 0 of seed 7 catches every mutation
    options.sweep.jobs = 1;
    options.mutation = Mutation::kLruVictimOffByOne;
    options.reproDir = scratchDir("repro");

    const CampaignReport report = runCampaign(options);
    ASSERT_EQ(report.failures.size(), 1u);
    const CaseFailure &failure = report.failures.front();
    EXPECT_EQ(failure.index, 0u);
    ASSERT_FALSE(failure.reproPath.empty());
    ASSERT_TRUE(std::filesystem::exists(failure.reproPath));

    // Replaying the shrunk trace with the case's derived parameters
    // reproduces the diff, as the sidecar's replay command promises.
    std::vector<TraceRecord> records;
    ASSERT_TRUE(readTraceRecords(failure.reproPath, records));
    EXPECT_EQ(records.size(), failure.shrunkRecords);
    CheckConfig config;
    config.params = makeFuzzParams(failure.caseSeed);
    config.mutation = options.mutation;
    const DiffResult replay = checkTrace(records, config);
    EXPECT_FALSE(replay.ok);
    EXPECT_EQ(replay.check, failure.diff.check);
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Replace every occurrence of @p dir with a placeholder so summaries
 *  from campaigns using different reproducer dirs compare equal. */
std::string
normalizeDirs(std::string text, const std::string &dir)
{
    for (std::size_t pos = text.find(dir); pos != std::string::npos;
         pos = text.find(dir))
        text.replace(pos, dir.size(), "<repro>");
    return text;
}

TEST(FuzzCampaign, CleanCampaignInterruptAndResumeMatchesBaseline)
{
    const std::string work = scratchDir("resume-clean");
    std::filesystem::create_directories(work);

    CampaignOptions options = quietCampaign();
    options.cases = 200;
    options.seed = 1; // clean: every case passes, so all journal
    options.sweep.jobs = 2;
    options.reproDir = work + "/repro";
    options.sweep.checkpointPath = work + "/campaign.ckpt";

    // Drain as case 60 starts (the stop fault stands in for SIGINT):
    // the run must report interrupted, not complete.
    runner::FaultPlan stop;
    ASSERT_TRUE(runner::FaultPlan::parse("stop@60", stop));
    options.sweep.faultPlan = &stop;
    const CampaignReport cut = runCampaign(options);
    EXPECT_TRUE(cut.interrupted);
    EXPECT_FALSE(cut.ok());
    EXPECT_GE(cut.casesRun, 60u);
    EXPECT_LT(cut.casesRun, options.cases);

    // Resume: journaled passes are skipped, the rest execute, and the
    // final report is byte-identical to an uninterrupted campaign.
    options.sweep.faultPlan = nullptr;
    options.sweep.resume = true;
    const CampaignReport resumed = runCampaign(options);
    EXPECT_TRUE(resumed.ok()) << resumed.summaryText();
    EXPECT_EQ(resumed.casesResumed, cut.casesRun);
    EXPECT_EQ(resumed.casesRun + resumed.casesResumed, options.cases);
    EXPECT_EQ(resumed.summaryText(),
              "fuzz campaign: 200 cases, seed 1, 0 failures\n");
}

TEST(FuzzCampaign, InterruptedMutationCampaignResumesToBaseline)
{
    // Uninterrupted baseline, including shrunk reproducer files.
    CampaignOptions base = quietCampaign();
    base.cases = 6;
    base.seed = 7;
    base.sweep.jobs = 1;
    base.mutation = Mutation::kLruVictimOffByOne;
    base.maxShrinkEvaluations = 300;
    base.reproDir = scratchDir("resume-mut-base");
    const CampaignReport baseline = runCampaign(base);
    EXPECT_FALSE(baseline.interrupted);
    ASSERT_FALSE(baseline.failures.empty());

    // The same campaign drained as case 3 starts, then resumed.
    // Failures are journaled as quarantined cells, never as passes, so
    // the resumed run re-executes them and regenerates identical diffs
    // and reproducers.
    const std::string work = scratchDir("resume-mut-cut");
    std::filesystem::create_directories(work);
    CampaignOptions options = base;
    options.reproDir = work + "/repro";
    options.sweep.checkpointPath = work + "/campaign.ckpt";
    runner::FaultPlan stop;
    ASSERT_TRUE(runner::FaultPlan::parse("stop@3", stop));
    options.sweep.faultPlan = &stop;
    const CampaignReport cut = runCampaign(options);
    EXPECT_TRUE(cut.interrupted);
    EXPECT_LT(cut.casesRun, options.cases);

    options.sweep.faultPlan = nullptr;
    options.sweep.resume = true;
    const CampaignReport resumed = runCampaign(options);
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(normalizeDirs(resumed.summaryText(), options.reproDir),
              normalizeDirs(baseline.summaryText(), base.reproDir));

    ASSERT_EQ(resumed.failures.size(), baseline.failures.size());
    for (std::size_t i = 0; i < baseline.failures.size(); ++i) {
        const CaseFailure &want = baseline.failures[i];
        const CaseFailure &got = resumed.failures[i];
        EXPECT_EQ(got.index, want.index);
        EXPECT_EQ(got.caseSeed, want.caseSeed);
        ASSERT_FALSE(got.reproPath.empty());
        EXPECT_EQ(readFileBytes(got.reproPath),
                  readFileBytes(want.reproPath))
            << "reproducer for case " << want.index
            << " differs after resume";
    }
}

/**
 * The acceptance bar for the checker itself: each planted bug is
 * found within 200 cases and its reproducer shrinks to <= 100
 * records. kLruVictimOffByOne plants an eviction off-by-one,
 * kDropRebinding drops the coordinator's rebind-on-prefetch-hit,
 * kT2ConfirmThreshold shifts T2's stride confirmation by one, and
 * kRebindWrongExtra rebinds to the wrong extra only in >=3-extra
 * composites — catching it proves the campaign exercises rebinding
 * in the enlarged configuration, not just the classic two-extra one.
 */
class MutationSelfTest : public ::testing::TestWithParam<Mutation>
{
};

TEST_P(MutationSelfTest, CaughtWithinBudgetAndShrinksSmall)
{
    const MutationProbe probe =
        probeMutation(CampaignKind::kDifferential, 7, 200, GetParam());
    ASSERT_TRUE(probe.found)
        << mutationName(GetParam())
        << " survived 200 fuzz cases undetected";
    EXPECT_LT(probe.failure.index, 200u);
    EXPECT_FALSE(probe.shrunk.empty());
    EXPECT_LE(probe.shrunk.size(), 100u)
        << "shrunk reproducer too large for "
        << mutationName(GetParam());
}

/**
 * Multicore differential campaign: heterogeneous 2- and 4-core mixes
 * double-run to byte-identical counter registries with per-core DRAM
 * attribution summing to the shared total.
 */
TEST(MulticoreFuzz, CleanCampaignReportsZeroFailures)
{
    CampaignOptions options = quietCampaign(CampaignKind::kMulticore);
    options.cases = 40;
    options.seed = 1;
    const CampaignReport report = runCampaign(options);
    EXPECT_TRUE(report.ok()) << report.summaryText();
    EXPECT_EQ(report.summaryText(),
              "multicore fuzz: 40 cases, seed 1, 0 failures\n");
}

/**
 * Self-test for the multicore checker's teeth: a planted arbitration
 * drift (the second run silently flips fifo <-> demand-first) must
 * surface as a counter divergence within the case budget. Catching
 * it proves the double-run comparison actually covers the
 * shared-channel arbitration path.
 */
TEST(MulticoreFuzz, ArbitrationDriftMutationIsCaught)
{
    const MutationProbe probe = probeMutation(
        CampaignKind::kMulticore, 7, 200, Mutation::kArbitrationDrift);
    ASSERT_TRUE(probe.found)
        << "arbdrift survived 200 multicore fuzz cases undetected";
    EXPECT_LT(probe.failure.index, 200u);
}

/**
 * Adaptive differential campaign: every case runs the identical trace
 * under the hardwired and adaptive coordinators (demand streams must
 * be identical), replays the logged window decisions through the
 * naive ReferenceAdaptive policy, round-trips the trace through the
 * ChampSim codec, and double-runs the adaptive configuration for
 * byte-identical counters.
 */
TEST(AdaptiveFuzz, CleanCampaignReportsZeroFailures)
{
    CampaignOptions options = quietCampaign(CampaignKind::kAdaptive);
    options.cases = 40;
    options.seed = 1;
    const CampaignReport report = runCampaign(options);
    EXPECT_TRUE(report.ok()) << report.summaryText();
    EXPECT_EQ(report.summaryText(),
              "adaptive fuzz: 40 cases, seed 1, 0 failures\n");
}

/**
 * Self-test for the adaptive checker's teeth: a reference degree ramp
 * stuck at maxDegree must surface as a window-decision diff within
 * the case budget and shrink to roughly one decision window of
 * records. Catching it proves the per-window, per-slot field diff
 * would also catch a real runaway ramp in production.
 */
TEST(AdaptiveFuzz, DegreeRampStuckMutationIsCaughtAndShrinksSmall)
{
    const MutationProbe probe = probeMutation(
        CampaignKind::kAdaptive, 7, 200, Mutation::kDegreeRampStuck);
    ASSERT_TRUE(probe.found)
        << "degstick survived 200 adaptive fuzz cases undetected";
    EXPECT_LT(probe.failure.index, 200u);
    EXPECT_EQ(probe.failure.diff.check, "adaptive-policy");
    EXPECT_FALSE(probe.shrunk.empty());
    EXPECT_LE(probe.shrunk.size(), 100u)
        << "shrunk degstick reproducer too large";
}

INSTANTIATE_TEST_SUITE_P(AllMutations, MutationSelfTest,
                         ::testing::Values(
                             Mutation::kLruVictimOffByOne,
                             Mutation::kDropRebinding,
                             Mutation::kT2ConfirmThreshold,
                             Mutation::kRebindWrongExtra),
                         [](const auto &info) {
                             return std::string(
                                 mutationName(info.param));
                         });

} // namespace
} // namespace dol::check
