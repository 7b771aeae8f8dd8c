/**
 * @file
 * End-to-end simulator tests: baseline sanity, the single-pass
 * baseline against an offline oracle, prefetcher speedups on targeted
 * kernels, and metric plumbing.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "core/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "workloads/pointer_kernels.hpp"
#include "workloads/stream_kernels.hpp"
#include "workloads/temporal_kernels.hpp"
#include "workloads/trace_ingest.hpp"

namespace dol
{
namespace
{

SimConfig
testConfig(std::uint64_t instrs = 120000)
{
    SimConfig config;
    config.maxInstrs = instrs;
    return config;
}

TEST(Simulator, BaselineRunsAndReportsIpc)
{
    MemoryImage image;
    StreamKernel kernel(image, {.streams = 1,
                                .strideBytes = 64,
                                .footprintBytes = 8ull << 20,
                                .seed = 3});
    Simulator sim(testConfig(), kernel, nullptr);
    sim.run();

    EXPECT_EQ(sim.instructions(), 120000u);
    EXPECT_GT(sim.ipc(), 0.05);
    EXPECT_LT(sim.ipc(), 4.0);
    // A memory-bound stream over 8 MB must miss in L1.
    EXPECT_GT(sim.mem().stats().level[kL1].primaryMisses, 1000u);
}

TEST(Simulator, ShadowHierarchyMatchesRealWithoutPrefetcher)
{
    MemoryImage image;
    StreamKernel kernel(image, {.streams = 2,
                                .strideBytes = 64,
                                .footprintBytes = 4ull << 20,
                                .seed = 4});
    Simulator sim(testConfig(), kernel, nullptr);
    sim.run();

    const MemStats &stats = sim.mem().stats();
    // With no prefetches, the alternate reality is this reality.
    for (unsigned lv = 0; lv < kNumCacheLevels; ++lv) {
        EXPECT_EQ(stats.level[lv].shadowMisses,
                  stats.level[lv].primaryMisses)
            << "level " << lv;
        EXPECT_EQ(stats.level[lv].inducedMisses, 0u) << "level " << lv;
    }
}

/**
 * The baseline is one prefetcher-less run() whose access observer
 * feeds the offline stratifier. Oracle: a second stratifier fed
 * straight from Kernel::next on a separately built kernel, over the
 * same budget. The workloads cover strided and pointer-chasing
 * streams, a kernel that relinks its image as it generates, a phased
 * mix, and a ChampSim trace.
 */
TEST(Simulator, SinglePassBaselineMatchesStratifierOracle)
{
    constexpr std::uint64_t kInstrs = 200000;
    const std::string fixture =
        std::string(DOL_TRACE_FIXTURE_DIR) + "/stream_gups.champsim";
    std::vector<WorkloadSpec> specs;
    for (const char *name :
         {"mcf.syn", "libquantum.syn", "shuflist.syn", "markovmix.syn"}) {
        specs.push_back(findWorkload(name));
    }
    specs.push_back(champSimWorkload(fixture));

    ExperimentRunner runner(testConfig(kInstrs));
    for (const WorkloadSpec &spec : specs) {
        SCOPED_TRACE(spec.name);
        const OfflineStratifier &single_pass =
            *runner.baseline(spec).stratifier;

        OfflineStratifier oracle;
        std::unordered_set<Addr> lines;
        MemoryImage image;
        auto kernel = spec.factory(image);
        Instr instr;
        for (std::uint64_t i = 0; i < kInstrs && kernel->next(instr);
             ++i) {
            if (instr.isMem()) {
                oracle.observe(instr.pc, instr.addr);
                lines.insert(lineAddr(instr.addr));
            }
        }
        if (const auto *shuffled =
                dynamic_cast<const ShuffledListKernel *>(kernel.get())) {
            EXPECT_GT(shuffled->traversalCount(), 4u)
                << "the budget must cross shuflist's first reshuffle";
        }

        EXPECT_EQ(single_pass.lhfLineCount(), oracle.lhfLineCount());
        EXPECT_EQ(single_pass.regionCount(), oracle.regionCount());
        std::size_t mismatches = 0;
        for (const Addr line : lines) {
            for (const Addr probe :
                 {line - kLineBytes, line, line + kLineBytes}) {
                mismatches +=
                    single_pass.classify(probe) != oracle.classify(probe);
            }
        }
        EXPECT_EQ(mismatches, 0u) << "of " << lines.size() << " lines";

        // Without a prefetcher, every load and store still reaches
        // the observer.
        MemoryImage count_image;
        auto count_kernel = spec.factory(count_image);
        Simulator sim(testConfig(kInstrs), *count_kernel, nullptr);
        std::uint64_t observed = 0;
        sim.setAccessObserver(
            [&observed](const AccessInfo &) { ++observed; });
        sim.run();
        const CoreStats &core = sim.core().stats();
        EXPECT_GT(observed, 0u);
        EXPECT_EQ(observed, core.loads + core.stores);
    }
}

TEST(Simulator, T2AcceleratesStridedStream)
{
    ExperimentRunner runner(testConfig());
    const WorkloadSpec spec{
        "stream.test", "test", [](MemoryImage &image) {
            return std::make_unique<StreamKernel>(
                image, StreamKernel::Params{.streams = 1,
                                            .strideBytes = 16,
                                            .footprintBytes = 16ull
                                                              << 20,
                                            .aluPerIter = 6,
                                            .seed = 5});
        }};

    const RunOutput out = runner.run(spec, "T2");
    EXPECT_GT(out.speedup(), 1.2) << "T2 must hide stream misses";
    EXPECT_GT(out.effCoverageL1, 0.5);
    EXPECT_GT(out.effAccuracyL1, 0.5);
    EXPECT_GT(out.scope, 0.5);
}

TEST(Simulator, P1AcceleratesArrayOfPointers)
{
    ExperimentRunner runner(testConfig());
    const WorkloadSpec spec{
        "parr.test", "test", [](MemoryImage &image) {
            return std::make_unique<PointerArrayKernel>(
                image, PointerArrayKernel::Params{.entries = 1u << 16,
                                                  .objectBytes = 256,
                                                  .fieldOffset = 24,
                                                  .aluPerIter = 28,
                                                  .seed = 6});
        }};

    const RunOutput base_t2 = runner.run(spec, "T2");
    const RunOutput with_p1 = runner.run(spec, "T2P1");
    EXPECT_GT(with_p1.speedup(), base_t2.speedup() + 0.08)
        << "P1 must add speedup on an array-of-pointers workload";
    EXPECT_GT(with_p1.effCoverageL1, 0.9);
}

TEST(Simulator, P1CoversPointerChain)
{
    // A serial chain cannot run faster than one node per memory round
    // trip — prefetching it earns coverage and accuracy, not IPC.
    ExperimentRunner runner(testConfig());
    const WorkloadSpec spec{
        "chase.test", "test", [](MemoryImage &image) {
            return std::make_unique<ListChaseKernel>(
                image, ListChaseKernel::Params{.nodes = 1u << 15,
                                               .nodeBytes = 128,
                                               .seed = 6});
        }};

    const RunOutput with_p1 = runner.run(spec, "T2P1");
    EXPECT_GT(with_p1.effCoverageL1, 0.8)
        << "the chain FSM must stay on the list";
    EXPECT_GT(with_p1.speedup(), 0.97) << "and must never hurt";
}

TEST(Simulator, TrafficIsTrackedAgainstBaseline)
{
    ExperimentRunner runner(testConfig());
    const WorkloadSpec spec{
        "stream.traffic", "test", [](MemoryImage &image) {
            return std::make_unique<StreamKernel>(
                image, StreamKernel::Params{.streams = 1,
                                            .strideBytes = 16,
                                            .footprintBytes = 16ull
                                                              << 20,
                                            .aluPerIter = 6,
                                            .seed = 7});
        }};

    const RunOutput out = runner.run(spec, "T2");
    // An accurate stream prefetcher moves the same lines, so
    // normalized traffic stays close to 1.
    EXPECT_GT(out.trafficNormalized, 0.85);
    EXPECT_LT(out.trafficNormalized, 1.3);
}

TEST(Simulator, ComponentNamesAreAssigned)
{
    MemoryImage image;
    StreamKernel kernel(image, {.seed = 8});
    auto tpc = makePrefetcher("TPC", &image);
    Simulator sim(testConfig(1000), kernel, tpc.get());

    const auto &names = sim.componentNames();
    EXPECT_EQ(names[1], "T2");
    EXPECT_EQ(names[2], "P1");
    EXPECT_EQ(names[3], "C1");
}

TEST(Simulator, RunsAreDeterministic)
{
    const WorkloadSpec &spec = findWorkload("gcc.syn");
    auto run_once = [&spec]() {
        MemoryImage image;
        auto kernel = spec.factory(image);
        auto pf = makePrefetcher("TPC", &image);
        Simulator sim(testConfig(60000), *kernel, pf.get());
        sim.run();
        return std::make_tuple(
            sim.core().stats().cycles,
            sim.mem().stats().level[kL1].primaryMisses,
            sim.mem().stats().prefetchesIssued());
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, QuickEnvShrinksBudget)
{
    setenv("DOL_QUICK", "1", 1);
    EXPECT_EQ(makeBenchConfig(400000).maxInstrs, 60000u);
    unsetenv("DOL_QUICK");
    EXPECT_EQ(makeBenchConfig(400000).maxInstrs, 400000u);
}

} // namespace
} // namespace dol
