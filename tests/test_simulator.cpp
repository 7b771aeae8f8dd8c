/**
 * @file
 * End-to-end simulator tests: baseline sanity, the single-pass
 * baseline against an offline oracle, the replayed alternate reality
 * against a live walk, prefetcher speedups on targeted kernels, and
 * metric plumbing.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

#include "core/composite.hpp"
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

/** What a cell's alternate reality feeds: its shadow misses, its
 *  induced misses, the baseline traffic, every scope, and effective
 *  accuracy and coverage. */
struct ShadowScore
{
    std::array<std::uint64_t, kNumCacheLevels> shadowMisses{};
    std::array<std::uint64_t, kNumCacheLevels> inducedMisses{};
    std::uint64_t baselineDramLines = 0;
    PrefetchAccounting::Scopes scopes;
    /** Effective accuracy and coverage at L1, then at L2. */
    std::array<double, 4> effective{};
    /** A live walk's record and FP (null for a replay). */
    std::shared_ptr<const ShadowRecord> shadow;
    std::shared_ptr<const FrozenFootprint> footprint;
};

/**
 * Run one prefetching cell set up as ExperimentRunner::run sets it
 * up, either replaying @p base's alternate reality or walking (and
 * recording) the shadow caches live.
 */
ShadowScore
scoreCell(const WorkloadSpec &spec, const SimConfig &config,
          const std::string &prefetcher_name, bool adaptive,
          const ExperimentRunner::Baseline &base,
          const std::shared_ptr<const FlatHashSet<Addr>> &exclude,
          bool replay)
{
    MemoryImage image;
    auto kernel = spec.factory(image);
    auto prefetcher = makePrefetcher(prefetcher_name, &image, adaptive);
    auto sim =
        replay ? std::make_unique<Simulator>(config, *kernel,
                                             prefetcher.get(),
                                             base.shadow, base.footprint)
               : std::make_unique<Simulator>(config, *kernel,
                                             prefetcher.get());
    sim->setStratifier(base.stratifier.get());
    sim->accounting().setExcludeSet(exclude);
    auto *composite = dynamic_cast<CompositePrefetcher *>(prefetcher.get());
    if (adaptive && composite) {
        MemorySystem &mem = sim->mem();
        composite->setPressureProbe([&mem] {
            return mem.shared().dram().stats().windowDeferrals;
        });
    }
    if (!replay)
        sim->mem().recordShadow(spec.name);
    sim->run();

    ShadowScore score;
    const MemStats &stats = sim->mem().stats();
    for (unsigned lv = 0; lv < kNumCacheLevels; ++lv) {
        score.shadowMisses[lv] = stats.level[lv].shadowMisses;
        score.inducedMisses[lv] = stats.level[lv].inducedMisses;
    }
    score.baselineDramLines = sim->mem().shared().baselineDramLines();
    score.scopes = sim->accounting().scopes();
    const double issued = static_cast<double>(stats.prefetchesIssued());
    for (unsigned lv : {kL1, kL2}) {
        const double shadow =
            static_cast<double>(stats.level[lv].shadowMisses);
        const double avoided =
            shadow - static_cast<double>(stats.level[lv].primaryMisses);
        score.effective[2 * lv] = issued ? avoided / issued : 0.0;
        score.effective[2 * lv + 1] = shadow ? avoided / shadow : 0.0;
    }
    if (!replay) {
        score.shadow = sim->mem().takeShadowRecord();
        score.footprint = sim->accounting().freezeFootprint();
    }
    return score;
}

/**
 * Shadow-once rests on one premise: on one core, a workload's demand
 * stream, and so its alternate reality, does not depend on its
 * prefetcher. So the live walk of a prefetching run must record
 * exactly its baseline's outcomes and FP, and a cell that replays the
 * baseline must agree with one that walks live on every number the
 * alternate reality feeds. Every synthetic workload and both ChampSim
 * fixtures run under a monolithic prefetcher and the enlarged
 * composite, hardwired and adaptive, at a small budget.
 */
TEST(ShadowOnce, ReplayMatchesLiveWalk)
{
    constexpr std::uint64_t kInstrs = 20000;
    std::vector<WorkloadSpec> specs = allWorkloads();
    for (const char *fixture :
         {"/stream_gups.champsim", "/linked_walk.champsim.xz"}) {
        specs.push_back(champSimWorkload(
            std::string(DOL_TRACE_FIXTURE_DIR) + fixture));
    }
    const std::pair<std::string, bool> cells[] = {
        {"AMPM", false},
        {"TPC+SPP+Triangel+PChase", false},
        {"TPC+SPP+Triangel+PChase", true},
    };

    ExperimentRunner runner(testConfig(kInstrs));
    for (const WorkloadSpec &spec : specs) {
        const ExperimentRunner::Baseline &base = runner.baseline(spec);
        ASSERT_TRUE(base.shadow && base.footprint);
        // Every other FP line is excluded, so the focus scope has
        // lines on both sides.
        auto exclude = std::make_shared<FlatHashSet<Addr>>();
        for (std::size_t i = 0; i < base.footprint->lines.size(); i += 2)
            exclude->insert(base.footprint->lines[i].line);

        for (const auto &[prefetcher, adaptive] : cells) {
            SCOPED_TRACE(spec.name + " " + prefetcher +
                         (adaptive ? " adaptive" : ""));
            const ShadowScore live = scoreCell(
                spec, runner.config(), prefetcher, adaptive, base,
                exclude, /*replay=*/false);
            const ShadowScore replayed = scoreCell(
                spec, runner.config(), prefetcher, adaptive, base,
                exclude, /*replay=*/true);

            EXPECT_GT(base.shadow->accesses(), 0u);
            EXPECT_TRUE(*live.shadow == *base.shadow);
            EXPECT_TRUE(*live.footprint == *base.footprint);

            EXPECT_EQ(replayed.shadowMisses, live.shadowMisses);
            EXPECT_EQ(replayed.inducedMisses, live.inducedMisses);
            EXPECT_EQ(replayed.baselineDramLines, live.baselineDramLines);
            EXPECT_EQ(replayed.baselineDramLines,
                      base.shadow->dramReads + base.shadow->dramWrites);
            EXPECT_EQ(replayed.scopes.total, live.scopes.total);
            EXPECT_EQ(replayed.scopes.byComponent, live.scopes.byComponent);
            EXPECT_EQ(replayed.scopes.byCategory, live.scopes.byCategory);
            EXPECT_EQ(replayed.scopes.focus, live.scopes.focus);
            EXPECT_EQ(replayed.effective, live.effective);
        }
    }
}

/**
 * A replayed alternate reality is only right on the demand path it was
 * recorded on, so a runner whose budget or cache geometry differs
 * from the shared baseline's must refuse it. The DRAM seed and
 * arbitration may differ.
 */
TEST(ShadowOnce, SharedBaselineRejectsAnotherL1Size)
{
    const WorkloadSpec &spec = findWorkload("mcf.syn");
    auto cache = std::make_shared<BaselineCache>();
    const SimConfig config = testConfig(20000);
    ExperimentRunner(config, cache).run(spec, "SPP");

    SimConfig reseeded = config;
    reseeded.mem.dram.rngSeed = 7;
    reseeded.mem.dram.arbitration = ArbitrationPolicy::kFifo;
    EXPECT_NO_THROW(ExperimentRunner(reseeded, cache).run(spec, "SPP"));

    SimConfig smaller = config;
    smaller.mem.l1.sizeBytes /= 2;
    ExperimentRunner runner(smaller, cache);
    try {
        runner.run(spec, "SPP");
        FAIL() << "a baseline of another L1 size was replayed";
    } catch (const std::invalid_argument &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("mcf.syn"), std::string::npos) << what;
        EXPECT_NE(what.find("L1 65536 B"), std::string::npos) << what;
        EXPECT_NE(what.find("L1 32768 B"), std::string::npos) << what;
    }
    EXPECT_EQ(cache->size(), 1u);
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
