/**
 * @file
 * End-to-end simulator tests: baseline sanity, the single-pass
 * baseline against an offline oracle, the listener hook, the replayed
 * alternate reality against a live walk, the shared-baseline guard,
 * prefetcher speedups on targeted kernels, and metric plumbing.
 */

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <unordered_set>

#include "core/composite.hpp"
#include "core/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/context.hpp"
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

/** Counts every event a listener is told of, per level where the
 *  event has one. */
struct EventCounter : MemListener
{
    std::array<std::uint64_t, kNumCacheLevels> shadow{}, demand{},
        induced{}, used{};
    std::uint64_t issued = 0, filled = 0;

    void shadowMiss(unsigned level, Addr, Pc) override { ++shadow[level]; }
    void demandMiss(unsigned level, Addr, Pc) override { ++demand[level]; }
    void
    inducedMiss(unsigned level, Addr,
                std::span<const ComponentId>) override
    {
        ++induced[level];
    }
    void prefetchIssued(ComponentId, Addr, unsigned, Cycle) override
    {
        ++issued;
    }
    void prefetchFill(ComponentId, Addr, Cycle) override { ++filled; }
    void
    prefetchUsed(ComponentId, unsigned level, Addr) override
    {
        ++used[level];
    }
};

/**
 * A Simulator keeps no scores: ExperimentRunner attaches its
 * accounting through addListener. So an attached listener must be told
 * of every event the memory system counts, and attaching one must not
 * change the run. Each cell runs four times, walking live or replaying
 * its baseline's record, with and without a listener: the counter
 * text (every layer's counters and event tallies) must not move, the
 * listener's counts must equal the memory system's, and a replay must
 * deliver the live run's events but no shadowMiss. xalancbmk.syn and
 * histwalk.syn add prefetched lines first used at L2 and L3.
 */
TEST(Simulator, AttachedListenerSeesEveryEventAndChangesNothing)
{
    const SimConfig config = testConfig(30000);
    ExperimentRunner runner(config);
    const std::pair<std::string, bool> prefetchers[] = {
        {"TPC", false},
        {"TPC+SPP+Triangel+PChase", true},
    };
    std::array<std::uint64_t, kNumCacheLevels> used_at{};
    for (const char *workload : {"mcf.syn", "libquantum.syn", "shuflist.syn",
                                 "xalancbmk.syn", "histwalk.syn"}) {
        const WorkloadSpec &spec = findWorkload(workload);
        const ExperimentRunner::Baseline &base = runner.baseline(spec);
        for (const auto &[name, adaptive] : prefetchers) {
            SCOPED_TRACE(std::string(workload) + " " + name +
                         (adaptive ? " adaptive" : ""));
            // One run: its counter text, and the memory system's
            // counts checked against the listener's, if attached.
            const auto run = [&](bool replay, EventCounter *events) {
                SCOPED_TRACE(replay ? "replaying" : "walking live");
                MemoryImage image;
                auto kernel = spec.factory(image);
                auto prefetcher = makePrefetcher(name, &image, adaptive);
                auto sim = replay ? std::make_unique<Simulator>(
                                        config, *kernel, prefetcher.get(),
                                        base.shadow)
                                  : std::make_unique<Simulator>(
                                        config, *kernel, prefetcher.get());
                if (events)
                    sim->addListener(events);
                if (auto *composite = dynamic_cast<CompositePrefetcher *>(
                        prefetcher.get());
                    adaptive && composite) {
                    MemorySystem &mem = sim->mem();
                    composite->setPressureProbe([&mem] {
                        return mem.shared().dram().stats().windowDeferrals;
                    });
                }
                TraceContext tallies;
                sim->setTraceContext(&tallies);
                sim->run();

                CounterRegistry counters;
                sim->exportCounters(counters);
                tallies.exportEventCounts(counters);
                const MemStats &stats = sim->mem().stats();
                if (events) {
                    std::uint64_t issued = 0, filled = 0, used = 0;
                    for (const ComponentStats &comp : stats.comp) {
                        issued += comp.issued;
                        filled += comp.filled;
                        used += comp.used;
                    }
                    EXPECT_EQ(events->issued, issued);
                    EXPECT_EQ(events->filled, filled);
                    EXPECT_EQ(events->used[kL1] + events->used[kL2] +
                                  events->used[kL3],
                              used);
                    for (unsigned lv = 0; lv < kNumCacheLevels; ++lv) {
                        const LevelStats &level = stats.level[lv];
                        EXPECT_EQ(events->demand[lv], level.primaryMisses);
                        EXPECT_EQ(events->induced[lv], level.inducedMisses);
                        EXPECT_EQ(events->shadow[lv],
                                  replay ? 0 : level.shadowMisses);
                    }
                }
                return counters.toText();
            };

            EventCounter live, replayed;
            EXPECT_EQ(run(false, &live), run(false, nullptr));
            EXPECT_EQ(run(true, &replayed), run(true, nullptr));
            EXPECT_GT(live.shadow[kL1], 0u);
            EXPECT_EQ(replayed.demand, live.demand);
            EXPECT_EQ(replayed.induced, live.induced);
            EXPECT_EQ(replayed.issued, live.issued);
            EXPECT_EQ(replayed.filled, live.filled);
            EXPECT_EQ(replayed.used, live.used);
            for (unsigned lv = 0; lv < kNumCacheLevels; ++lv)
                used_at[lv] += live.used[lv];
        }
    }
    for (unsigned lv = 0; lv < kNumCacheLevels; ++lv)
        EXPECT_GT(used_at[lv], 0u) << "no prefetch was first used at L"
                                   << lv + 1;
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
    PrefetchAccounting acct(replay ? base.footprint : nullptr);
    acct.setStratifier(base.stratifier.get());
    acct.setExcludeSet(exclude);
    auto sim = replay ? std::make_unique<Simulator>(
                            config, *kernel, prefetcher.get(), base.shadow)
                      : std::make_unique<Simulator>(config, *kernel,
                                                    prefetcher.get());
    sim->addListener(&acct);
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
    score.scopes = acct.scopes();
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
        score.footprint = acct.freezeFootprint();
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
 * A replayed alternate reality is only right on the cache geometry it
 * was recorded on, so a runner whose L1 differs from the shared
 * baseline's must refuse it. Only the DRAM drop-RNG seed may differ.
 */
TEST(ShadowOnce, SharedBaselineRejectsAnotherL1Size)
{
    const WorkloadSpec &spec = findWorkload("mcf.syn");
    auto cache = std::make_shared<BaselineCache>();
    const SimConfig config = testConfig(20000);
    ExperimentRunner(config, cache).run(spec, "SPP");

    SimConfig reseeded = config;
    reseeded.mem.dram.rngSeed = 7;
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
        EXPECT_NE(what.find("L1D size 65536 B, not this runner's L1D size "
                            "32768 B"),
                  std::string::npos)
            << what;
    }
    EXPECT_EQ(cache->size(), 1u);
}

/**
 * The baseline's IPC, the denominator of every speedup, depends on
 * every timing parameter, so a runner that differs from the shared
 * baseline in DRAM arbitration, a cache latency, the core or a DRAM
 * timing must refuse it too, and name what differs.
 */
TEST(ShadowOnce, SharedBaselineRejectsAnotherTiming)
{
    const WorkloadSpec &spec = findWorkload("mcf.syn");
    auto cache = std::make_shared<BaselineCache>();
    const SimConfig config = testConfig(20000);
    ExperimentRunner(config, cache).run(spec, "SPP");

    const auto differs = [](const std::string &field, auto theirs,
                            auto ours) {
        return field + " " + std::to_string(theirs) +
               ", not this runner's " + field + " " +
               std::to_string(ours);
    };
    const std::pair<std::string, std::function<void(SimConfig &)>>
        changes[] = {
            {"DRAM arbitration demand-first, not this runner's DRAM "
             "arbitration fifo",
             [](SimConfig &c) {
                 c.mem.dram.arbitration = ArbitrationPolicy::kFifo;
             }},
            {differs("L1D latency", config.mem.l1.latency,
                     config.mem.l1.latency + 1),
             [](SimConfig &c) { ++c.mem.l1.latency; }},
            {differs("robSize", config.core.robSize, 96),
             [](SimConfig &c) { c.core.robSize = 96; }},
            {differs("DRAM tCAS", config.mem.dram.tCAS,
                     config.mem.dram.tCAS + 10),
             [](SimConfig &c) { c.mem.dram.tCAS += 10; }},
        };
    for (const auto &[difference, change] : changes) {
        SimConfig other = config;
        change(other);
        ExperimentRunner runner(other, cache);
        try {
            runner.run(spec, "SPP");
            ADD_FAILURE() << "replayed a baseline computed with "
                          << difference;
        } catch (const std::invalid_argument &error) {
            const std::string what = error.what();
            EXPECT_NE(what.find("mcf.syn"), std::string::npos) << what;
            EXPECT_NE(what.find(difference), std::string::npos) << what;
        }
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
