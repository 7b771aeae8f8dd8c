/**
 * @file
 * Tests for the synthetic workload generators: identical streams from
 * fresh instances (the stratifier contract), data-structure coherence,
 * suite composition, mix construction, and instruction-trace record
 * and replay.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "workloads/contention.hpp"
#include "workloads/irregular_kernels.hpp"
#include "workloads/mixed_kernels.hpp"
#include "workloads/pointer_kernels.hpp"
#include "workloads/stream_kernels.hpp"
#include "workloads/suite.hpp"
#include "workloads/trace_file.hpp"

namespace dol
{
namespace
{

bool
sameInstr(const Instr &a, const Instr &b)
{
    return a.pc == b.pc && a.op == b.op && a.addr == b.addr &&
           a.value == b.value && a.dst == b.dst && a.src1 == b.src1 &&
           a.target == b.target && a.taken == b.taken;
}

/**
 * Every cell builds its own kernel, and the baseline that classifies a
 * workload's lines (the offline stratifier) is computed from yet
 * another: two kernels built from one spec on fresh MemoryImages must
 * emit identical streams.
 */
class SuiteDeterminism
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SuiteDeterminism, FreshInstancesEmitIdenticalTrace)
{
    const WorkloadSpec &spec = findWorkload(GetParam());
    MemoryImage image_a, image_b;
    auto kernel_a = spec.factory(image_a);
    auto kernel_b = spec.factory(image_b);

    Instr a, b;
    for (int i = 0; i < 3000; ++i) {
        ASSERT_TRUE(kernel_a->next(a)) << i;
        ASSERT_TRUE(kernel_b->next(b)) << i;
        ASSERT_TRUE(sameInstr(a, b)) << GetParam() << " diverged at " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, SuiteDeterminism,
    ::testing::Values("libquantum.syn", "mcf.syn", "gcc.syn", "lbm.syn",
                      "omnetpp.syn", "soplex.syn", "bfs.syn", "is.syn",
                      "rotate.syn", "perlbench.syn"));

/** Every workload generates a sane instruction mix. */
class SuiteSanity : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SuiteSanity, MixContainsMemoryAndControl)
{
    const WorkloadSpec &spec = findWorkload(GetParam());
    MemoryImage image;
    auto kernel = spec.factory(image);

    unsigned mem_ops = 0, branches = 0, total = 0;
    Instr instr;
    for (int i = 0; i < 5000 && kernel->next(instr); ++i) {
        ++total;
        mem_ops += instr.isMem();
        branches += instr.isControl();
        if (instr.isMem()) {
            ASSERT_NE(instr.addr, 0u);
            ASSERT_NE(instr.pc, 0u);
        }
    }
    EXPECT_EQ(total, 5000u);
    EXPECT_GT(mem_ops, 100u);
    EXPECT_GT(branches, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSuites, SuiteSanity,
    ::testing::Values("milc.syn", "xalancbmk.syn", "h264ref.syn",
                      "pagerank.syn", "kmeans.syn", "cg.syn", "ft.syn",
                      "bt.syn", "streamcluster.syn", "astar.syn"));

TEST(Suites, HaveTheExpectedShape)
{
    EXPECT_EQ(speclikeSuite().size(), 21u) << "Figure 8 has 21 apps";
    EXPECT_GE(cronoSuite().size(), 4u);
    EXPECT_GE(starbenchSuite().size(), 5u);
    EXPECT_GE(npbSuite().size(), 7u);
    EXPECT_GE(temporalSuite().size(), 4u);
    EXPECT_EQ(allWorkloads().size(),
              speclikeSuite().size() + cronoSuite().size() +
                  starbenchSuite().size() + npbSuite().size() +
                  temporalSuite().size());

    std::set<std::string> names;
    for (const auto &spec : allWorkloads()) {
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate workload " << spec.name;
        EXPECT_FALSE(spec.suite.empty());
    }
}

TEST(Suites, MixesAreSeededAndFourWide)
{
    const auto mixes_a = makeMixes(17, 99);
    const auto mixes_b = makeMixes(17, 99);
    ASSERT_EQ(mixes_a.size(), 17u);
    for (std::size_t m = 0; m < mixes_a.size(); ++m) {
        ASSERT_EQ(mixes_a[m].size(), 4u);
        for (int c = 0; c < 4; ++c)
            EXPECT_EQ(mixes_a[m][c].workload, mixes_b[m][c].workload);
    }
    // A different seed draws a different mix somewhere.
    const auto mixes_c = makeMixes(17, 100);
    bool any_diff = false;
    for (std::size_t m = 0; m < mixes_a.size(); ++m)
        for (int c = 0; c < 4; ++c)
            any_diff |= mixes_a[m][c].workload != mixes_c[m][c].workload;
    EXPECT_TRUE(any_diff);
}

TEST(ListChase, LinksAreCoherent)
{
    MemoryImage image;
    ListChaseKernel kernel(image, {.nodes = 1024, .nodeBytes = 128,
                                   .seed = 5});
    // Walk the list through the image: after `nodes` hops we are back
    // at the head (circular), and every hop lands on a node boundary.
    Addr current = kernel.headNode();
    std::set<Addr> visited;
    for (unsigned i = 0; i < 1024; ++i) {
        EXPECT_TRUE(visited.insert(current).second)
            << "premature cycle at hop " << i;
        current = image.read64(current);
        ASSERT_NE(current, 0u);
    }
    EXPECT_EQ(current, kernel.headNode());
}

TEST(ListChase, TraceMatchesImage)
{
    MemoryImage image;
    ListChaseKernel kernel(image, {.nodes = 256, .seed = 9});
    Instr instr;
    Addr expected = kernel.headNode();
    unsigned checked = 0;
    for (int i = 0; i < 3000 && kernel.next(instr); ++i) {
        if (instr.isLoad() && instr.src1 == 10 && instr.dst == 10) {
            ASSERT_EQ(instr.addr, expected);
            expected = instr.value;
            ++checked;
        }
    }
    EXPECT_GT(checked, 200u);
}

TEST(PointerArray, ObjectsMatchArraySlots)
{
    MemoryImage image;
    PointerArrayKernel kernel(image, {.entries = 512, .seed = 4});
    Instr instr;
    std::uint64_t producer_value = 0;
    unsigned checked = 0;
    for (int i = 0; i < 4000 && kernel.next(instr); ++i) {
        if (instr.isLoad() && instr.dst == 10) {
            producer_value = instr.value;
            ASSERT_EQ(image.read64(instr.addr), instr.value);
        } else if (instr.isLoad() && instr.dst == 12) {
            // The dependent's address is a fixed offset off the
            // producer's value.
            ASSERT_EQ(instr.addr - producer_value, 16u);
            ++checked;
        }
    }
    EXPECT_GT(checked, 100u);
}

TEST(PhasedKernel, RespectsPerPhaseLengths)
{
    MemoryImage image;
    auto phase_a = std::make_unique<AluKernel>(
        image, AluKernel::Params{.seed = 1});
    auto phase_b = std::make_unique<RandomKernel>(
        image, RandomKernel::Params{.seed = 2});
    PhasedKernel phased("test", image, 100);
    phased.addPhase(std::move(phase_a), 300);
    phased.addPhase(std::move(phase_b), 100);

    // Count phase-A (working-set loads near its arena) vs phase-B
    // instructions by PC base: A uses 0x490000.., B uses 0x460000..
    unsigned a_instrs = 0, b_instrs = 0;
    Instr instr;
    for (int i = 0; i < 4000; ++i) {
        ASSERT_TRUE(phased.next(instr));
        if ((instr.pc & 0xff0000) == 0x490000)
            ++a_instrs;
        else if ((instr.pc & 0xff0000) == 0x460000)
            ++b_instrs;
    }
    // 3:1 phase ratio.
    EXPECT_NEAR(static_cast<double>(a_instrs) / (b_instrs + 1), 3.0,
                0.5);
}

TEST(TraceFile, RecordAndReplayRoundTrips)
{
    const std::string path = "/tmp/dol_trace_test.bin";
    const WorkloadSpec &spec = findWorkload("mcf.syn");
    MemoryImage image;
    auto recorded = spec.factory(image);
    const std::uint64_t written = recordTrace(*recorded, path, 2000);
    EXPECT_EQ(written, 2000u);

    MemoryImage replay_image;
    ReplayKernel replay(replay_image, path, readInstrTrace(path),
                        /*loop=*/false);
    EXPECT_EQ(replay.instrCount(), 2000u);

    MemoryImage fresh_image;
    auto kernel = spec.factory(fresh_image);
    Instr original, replayed;
    for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(kernel->next(original));
        ASSERT_TRUE(replay.next(replayed));
        ASSERT_TRUE(sameInstr(original, replayed)) << "at " << i;
        ASSERT_EQ(original.mispredicted, replayed.mispredicted);
        ASSERT_EQ(original.latency, replayed.latency);
    }
    // Non-looping replay ends exactly at the recorded length.
    EXPECT_FALSE(replay.next(replayed));
    std::remove(path.c_str());
}

TEST(TraceFile, FailedRecordWriteIsFatalAndNamesThePath)
{
    // 50 records fit in stdio's buffer, so only the flush at close
    // hits the full device: a writer that skips the close check
    // reports success here.
    const WorkloadSpec &spec = findWorkload("mcf.syn");
    MemoryImage image;
    auto kernel = spec.factory(image);
    EXPECT_EXIT(recordTrace(*kernel, "/dev/full", 50),
                ::testing::ExitedWithCode(1),
                "cannot write trace file: /dev/full");
}

TEST(TraceFile, LoopingReplayWraps)
{
    const std::string path = "/tmp/dol_trace_loop.bin";
    MemoryImage image;
    AluKernel source(image, {.seed = 3});
    recordTrace(source, path, 100);

    MemoryImage replay_image;
    ReplayKernel replay(replay_image, path, readInstrTrace(path),
                        /*loop=*/true);
    Instr first, instr;
    ASSERT_TRUE(replay.next(first));
    for (int i = 1; i < 100; ++i)
        ASSERT_TRUE(replay.next(instr));
    // Wrapped: the 101st instruction is the first again.
    ASSERT_TRUE(replay.next(instr));
    EXPECT_TRUE(sameInstr(first, instr));
    std::remove(path.c_str());
}

TEST(TraceFile, ReplayOfARecordingMatchesTheDirectRun)
{
    // P1 and PChase read pointers from the MemoryImage at fill time,
    // so a replay matches only if it rebuilds the heap. Recording
    // twice the replay budget lets the prefetchers' lookahead land
    // on addresses the recording touched.
    constexpr std::uint64_t kRecorded = 100000;
    SimConfig config;
    config.maxInstrs = kRecorded / 2;
    ExperimentRunner runner(config);
    RunOptions options;
    options.collectCounters = true;
    for (const char *workload :
         {"mcf.syn", "astar.syn", "omnetpp.syn", "xalancbmk.syn",
          "shuflist.syn", "libquantum.syn", "bfs.syn"}) {
        const WorkloadSpec &direct_spec = findWorkload(workload);
        const std::string path =
            testing::TempDir() + "dol_replay_" + workload;
        {
            MemoryImage image;
            recordTrace(*direct_spec.factory(image), path, kRecorded);
        }
        const std::string name = std::string("replay:") + workload;
        const std::vector<Instr> instrs = readInstrTrace(path);
        std::remove(path.c_str());
        const WorkloadSpec replay_spec{
            name, "trace", [&name, &instrs](MemoryImage &image) {
                return std::make_unique<ReplayKernel>(image, name,
                                                      instrs);
            }};

        for (const char *prefetcher :
             {"TPC", "TPC+SPP+Triangel+PChase"}) {
            SCOPED_TRACE(std::string(workload) + " x " + prefetcher);
            const RunOutput direct =
                runner.run(direct_spec, prefetcher, options);
            const RunOutput replay =
                runner.run(replay_spec, prefetcher, options);
            EXPECT_EQ(replay.ipc, direct.ipc);
            EXPECT_EQ(replay.baselineIpc, direct.baselineIpc);
            EXPECT_EQ(replay.scope, direct.scope);
            EXPECT_EQ(replay.effAccuracyL1, direct.effAccuracyL1);
            EXPECT_EQ(replay.effCoverageL1, direct.effCoverageL1);
            EXPECT_EQ(replay.effAccuracyL2, direct.effAccuracyL2);
            EXPECT_EQ(replay.effCoverageL2, direct.effCoverageL2);
            EXPECT_EQ(replay.trafficNormalized, direct.trafficNormalized);
            EXPECT_EQ(replay.prefetchesIssued, direct.prefetchesIssued);
            EXPECT_EQ(replay.counters.toText(), direct.counters.toText());
        }
    }
}

TEST(MemoryImageTest, ReadbackAndDefaultZero)
{
    MemoryImage image;
    EXPECT_EQ(image.read64(0x123456), 0u);
    image.write64(0x123456, 0xdeadbeefcafef00dull);
    EXPECT_EQ(image.read64(0x123456), 0xdeadbeefcafef00dull);
    // Unaligned overlap reads compose bytes.
    EXPECT_EQ(image.read64(0x123457) & 0xff,
              (0xdeadbeefcafef00dull >> 8) & 0xff);
}

} // namespace
} // namespace dol
