/**
 * @file
 * Tests for the synthetic workload generators: identical streams from
 * fresh instances (the stratifier contract), data-structure coherence,
 * suite composition, mix construction, and instruction-trace record
 * and replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
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
#include "workloads/temporal_kernels.hpp"
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

/** Every Instr field, not only the ones sameInstr() compares. */
void
expectSameFields(const Instr &a, const Instr &b, std::uint64_t index)
{
    EXPECT_TRUE(a.pc == b.pc && a.op == b.op && a.addr == b.addr &&
                a.value == b.value && a.size == b.size &&
                a.target == b.target && a.taken == b.taken &&
                a.mispredicted == b.mispredicted && a.dst == b.dst &&
                a.src1 == b.src1 && a.src2 == b.src2 &&
                a.latency == b.latency)
        << "instruction " << index;
}

/**
 * Drains two kernels built by @p factory in lockstep, one through
 * next() and one through nextBatch(@p block), for @p instrs
 * instructions. After each nextBatch call both have delivered the same
 * prefix: the batch must match next()'s instructions field by field,
 * and both images must hold the same value at each load address of
 * the batch, and, every 2048 instructions, at every load address seen
 * so far. Kernels write their image while they generate, so a
 * nextBatch() that generated further ahead than next() would fail
 * here. (Both drains reach a composite's sub-kernels through
 * nextBatch(); HandOverSplitsAtPhaseBoundaries checks those.)
 */
void
expectBatchedDrainMatchesNext(
    const std::function<std::unique_ptr<Kernel>(MemoryImage &)> &factory,
    std::size_t block, std::uint64_t instrs)
{
    MemoryImage image_a, image_b;
    auto kernel_a = factory(image_a);
    auto kernel_b = factory(image_b);
    std::vector<Instr> batch(block);
    std::vector<Addr> loads;
    std::set<Addr> seen;
    std::uint64_t done = 0;
    while (done < instrs) {
        const std::size_t got = kernel_b->nextBatch(
            batch.data(),
            static_cast<std::size_t>(
                std::min<std::uint64_t>(block, instrs - done)));
        ASSERT_GT(got, 0u) << "exhausted at " << done;
        loads.clear();
        for (std::size_t i = 0; i < got; ++i) {
            Instr one;
            ASSERT_TRUE(kernel_a->next(one)) << done + i;
            expectSameFields(one, batch[i], done + i);
            if (one.isLoad()) {
                loads.push_back(one.addr);
                seen.insert(one.addr);
            }
        }
        const std::uint64_t before = done;
        done += got;
        for (Addr addr : loads)
            ASSERT_EQ(image_a.read64(addr), image_b.read64(addr))
                << "load address 0x" << std::hex << addr << std::dec
                << " after " << done << " instructions";
        if (before / 2048 != done / 2048) {
            for (Addr addr : seen)
                ASSERT_EQ(image_a.read64(addr), image_b.read64(addr))
                    << "address 0x" << std::hex << addr << std::dec
                    << " after " << done << " instructions";
        }
        if (::testing::Test::HasFailure())
            return;
    }
}

/**
 * A PhasedKernel hands its current phase's queue over in one piece;
 * every phased workload must still deliver, through any block size,
 * the stream and image states of a next() drain.
 */
TEST(PhasedKernel, BatchedHandOverMatchesNextOnEveryPhasedWorkload)
{
    unsigned phased = 0;
    for (const WorkloadSpec &spec : allWorkloads()) {
        MemoryImage probe;
        if (!dynamic_cast<PhasedKernel *>(spec.factory(probe).get()))
            continue;
        ++phased;
        for (const std::size_t block : {1u, 7u, 256u}) {
            SCOPED_TRACE(spec.name + " block " + std::to_string(block));
            expectBatchedDrainMatchesNext(spec.factory, block, 20000);
            if (HasFailure())
                return;
        }
    }
    // The 15 phased workloads of the paper's grid and markovmix.syn.
    EXPECT_EQ(phased, 16u);
}

/**
 * Reference multiplexer: one instruction per generate(), pulled from
 * the current phase through next(), so a sub-kernel generates only
 * when everything it generated has been consumed.
 */
class OneAtATimePhased : public Kernel
{
  public:
    OneAtATimePhased(MemoryImage &memory,
                     std::vector<std::unique_ptr<Kernel>> phases,
                     std::vector<std::uint64_t> lengths)
        : Kernel("one-at-a-time", memory), _phases(std::move(phases)),
          _lengths(std::move(lengths))
    {}

  protected:
    bool
    generate() override
    {
        Instr instr;
        if (!_phases[_current]->next(instr))
            return false;
        push(instr);
        if (++_count >= _lengths[_current]) {
            _count = 0;
            _current = (_current + 1) % _phases.size();
        }
        return true;
    }

  private:
    std::vector<std::unique_ptr<Kernel>> _phases;
    std::vector<std::uint64_t> _lengths;
    std::size_t _current = 0;
    std::uint64_t _count = 0;
};

/**
 * Phases of 5 and 13 instructions over kernels that generate 15 and 9
 * per iteration, so hand-overs split iterations at phase boundaries.
 * The second kernel relinks its lists (a shuffle) after every
 * traversal of 16 nodes, so a sub-kernel that generated ahead of what
 * it had handed over would show in the image. The stream and the
 * image must match the one-instruction-at-a-time multiplexer's.
 */
TEST(PhasedKernel, HandOverSplitsAtPhaseBoundaries)
{
    const AluKernel::Params alu{.aluPerIter = 12, .seed = 1}; // 15
    const ShuffledListKernel::Params list{
        .chains = 2, .nodes = 16, .traversalsPerShuffle = 1,
        .swapsPerShuffle = 4, .aluPerIter = 2, .payloadLoads = 1,
        .seed = 3}; // 2 x (1 + 1 + 2) + 1 = 9

    MemoryImage image;
    PhasedKernel phased("split", image);
    phased.addPhase(std::make_unique<AluKernel>(image, alu), 5);
    phased.addPhase(std::make_unique<ShuffledListKernel>(image, list), 13);

    MemoryImage ref_image;
    std::vector<std::unique_ptr<Kernel>> ref_phases;
    ref_phases.push_back(std::make_unique<AluKernel>(ref_image, alu));
    ref_phases.push_back(
        std::make_unique<ShuffledListKernel>(ref_image, list));
    OneAtATimePhased reference(ref_image, std::move(ref_phases), {5, 13});

    // Each call returns one hand-over: the rest of the phase or what
    // the sub-kernel has queued, whichever is shorter.
    const std::vector<std::size_t> pinned = {5, 9, 4, 5, 5, 8, 5,
                                             1, 9, 3, 5, 6, 7};
    std::vector<std::size_t> sizes;
    std::vector<Instr> batch(256);
    std::set<Addr> seen;
    std::uint64_t done = 0;
    while (done < 5000) {
        const std::size_t got = phased.nextBatch(batch.data(), 256);
        ASSERT_GT(got, 0u);
        sizes.push_back(got);
        for (std::size_t i = 0; i < got; ++i) {
            Instr want;
            ASSERT_TRUE(reference.next(want));
            expectSameFields(want, batch[i], done + i);
            if (want.isLoad())
                seen.insert(want.addr);
        }
        done += got;
        for (Addr addr : seen)
            ASSERT_EQ(image.read64(addr), ref_image.read64(addr))
                << "address 0x" << std::hex << addr << std::dec
                << " after " << done << " instructions";
    }
    ASSERT_GE(sizes.size(), pinned.size());
    EXPECT_EQ(std::vector<std::size_t>(sizes.begin(),
                                       sizes.begin() + pinned.size()),
              pinned);
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
