/**
 * @file
 * Equivalence tests for the event-driven fast paths and the batched
 * run loop. All three are designed to be exactly result-preserving:
 *
 *  - the MSHR quiescence short-circuit (Cache): every query answered
 *    without scanning once the clock passes the latest registered
 *    completion must match the full scan;
 *  - the DRAM queue-prune short-circuit: clearing a fully-completed
 *    queue in O(1) must leave the same state as filtering it;
 *  - the batched Simulator pipeline: identical counters, cycle
 *    counts, and IPC whatever the block sizes it is stepped in.
 *
 * The micro tests drive randomized op sequences through a fast and a
 * reference instance side by side; the system test runs whole cells
 * (including an idle-heavy one where the short-circuits are hot) with
 * the fast paths on and off and compares the full exported counter
 * registries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/hotpath.hpp"
#include "common/rng.hpp"
#include "core/registry.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "sim/simulator.hpp"
#include "trace/counters.hpp"
#include "workloads/suite.hpp"

namespace dol
{
namespace
{

/** RAII restore of the process-wide fast-path flag. */
struct FastPathGuard
{
    bool saved = hotpath::fastPath();
    ~FastPathGuard() { hotpath::overrideFastPath(saved); }
};

Cache
makeCache(bool fast_path)
{
    hotpath::overrideFastPath(fast_path);
    Cache::Params params;
    params.name = "fp";
    params.sizeBytes = 4096;
    params.assoc = 4;
    params.mshrs = 8;
    return Cache(params);
}

TEST(FastPath, MshrQueriesMatchReference)
{
    FastPathGuard guard;
    Cache fast = makeCache(true);
    Cache ref = makeCache(false);

    Rng rng(0xFA57001);
    Cycle now = 0;
    for (int op = 0; op < 50000; ++op) {
        const Addr addr = 0x40 * rng.below(32);
        // Advance time in bursts so the file regularly goes quiescent
        // (the case the short-circuit serves) and regularly stays hot.
        now += rng.below(3) == 0 ? rng.below(400) : rng.below(8);
        switch (rng.below(3)) {
        case 0: {
            const Cycle completion = now + rng.below(200);
            fast.addMshr(addr, completion);
            ref.addMshr(addr, completion);
            break;
        }
        case 1: {
            Cache::MshrEntry *a = fast.pendingEntry(addr, now);
            Cache::MshrEntry *b = ref.pendingEntry(addr, now);
            ASSERT_EQ(a != nullptr, b != nullptr) << "op " << op;
            if (a) {
                EXPECT_EQ(a->completion, b->completion);
                EXPECT_EQ(a->lineAddr, b->lineAddr);
            }
            break;
        }
        default:
            ASSERT_EQ(fast.mshrFull(now), ref.mshrFull(now))
                << "op " << op;
            break;
        }
    }
}

TEST(FastPath, DramMatchesReference)
{
    FastPathGuard guard;
    DramParams params;
    params.queueCapacity = 8; // small queue: drops and stalls happen
    hotpath::overrideFastPath(true);
    Dram fast(params);
    hotpath::overrideFastPath(false);
    Dram ref(params);

    Rng rng(0xFA57002);
    Cycle now = 0;
    for (int op = 0; op < 50000; ++op) {
        const Addr addr = 0x40 * rng.below(4096);
        now += rng.below(4) == 0 ? rng.below(2000) : rng.below(30);
        if (rng.below(5) == 0) {
            ASSERT_EQ(fast.occupancy(addr, now), ref.occupancy(addr, now))
                << "op " << op;
            continue;
        }
        const bool is_write = rng.below(8) == 0;
        const bool is_prefetch = !is_write && rng.below(2) == 1;
        // Both instances see the identical request stream, and their
        // internal drop-victim RNGs share a seed, so any divergence
        // can only come from the fast-path short-circuits.
        const auto prio = static_cast<std::uint8_t>(rng.below(4));
        const auto a =
            fast.access(addr, now, is_write, is_prefetch, prio);
        const auto b =
            ref.access(addr, now, is_write, is_prefetch, prio);
        ASSERT_EQ(a.completion, b.completion) << "op " << op;
        ASSERT_EQ(a.dropped, b.dropped) << "op " << op;
        ASSERT_EQ(fast.stats().droppedPrefetches,
                  ref.stats().droppedPrefetches)
            << "op " << op;
    }
    EXPECT_EQ(fast.linesTransferred(), ref.linesTransferred());
    EXPECT_EQ(fast.stats().rowHits, ref.stats().rowHits);
    EXPECT_EQ(fast.stats().queueFullDemandStalls,
              ref.stats().queueFullDemandStalls);
}

struct CellRun
{
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    std::string counters;
};

/** Run one cell end to end, with the fast paths on or off at
 *  component construction. */
CellRun
runCell(const std::string &workload, const std::string &prefetcher_name,
        bool fast_path)
{
    hotpath::overrideFastPath(fast_path);
    MemoryImage image;
    const WorkloadSpec &spec = findWorkload(workload);
    auto kernel = spec.factory(image);
    auto prefetcher = prefetcher_name == "none"
                          ? nullptr
                          : makePrefetcher(prefetcher_name, &image);

    SimConfig config;
    config.maxInstrs = 60000;
    Simulator sim(config, *kernel, prefetcher.get());
    sim.run();

    CellRun out;
    out.instructions = sim.instructions();
    out.ipc = sim.ipc();
    CounterRegistry registry;
    sim.exportCounters(registry);
    out.counters = registry.toText();
    return out;
}

TEST(FastPath, SimulatorEquivalenceAcrossCells)
{
    FastPathGuard guard;
    // libquantum/none is the idle-heavy cell: a streaming kernel with
    // no prefetcher leaves the MSHR file and DRAM queues quiescent
    // between miss bursts, so the short-circuits fire constantly.
    // The composite cell is the busy extreme (chained prefetch fills
    // keep the queues live), and shuflist relinks its image as it
    // generates.
    const std::pair<const char *, const char *> cells[] = {
        {"libquantum.syn", "none"},
        {"libquantum.syn", "TPC"},
        {"mcf.syn", "SPP"},
        {"shuflist.syn", "TPC+SPP+Triangel+PChase"},
    };
    for (const auto &[workload, prefetcher] : cells) {
        const CellRun optimised = runCell(workload, prefetcher, true);
        const CellRun ref = runCell(workload, prefetcher, false);
        EXPECT_EQ(optimised.instructions, ref.instructions)
            << workload << "/" << prefetcher;
        EXPECT_EQ(optimised.ipc, ref.ipc)
            << workload << "/" << prefetcher;
        EXPECT_EQ(optimised.counters, ref.counters)
            << workload << "/" << prefetcher;
    }
}

TEST(FastPath, RandomStepBlocksMatchRun)
{
    FastPathGuard guard;
    hotpath::overrideFastPath(true);
    // Same kernel executed two ways: by run()'s fixed-size blocks and
    // by stepBlock calls of random size (including sizes that straddle
    // generate() calls), as the multicore driver interleaves cores.
    MemoryImage image_a, image_b;
    const WorkloadSpec &spec = findWorkload("omnetpp.syn");
    auto kernel_a = spec.factory(image_a);
    auto kernel_b = spec.factory(image_b);
    auto pf_a = makePrefetcher("TPC", &image_a);
    auto pf_b = makePrefetcher("TPC", &image_b);

    SimConfig config;
    config.maxInstrs = 30000;
    Simulator a(config, *kernel_a, pf_a.get());
    Simulator b(config, *kernel_b, pf_b.get());

    a.run();
    Rng rng(0xFA57003);
    while (b.instructions() < config.maxInstrs) {
        const std::size_t max = 1 + rng.below(300);
        if (b.stepBlock(static_cast<std::size_t>(std::min<std::uint64_t>(
                max, config.maxInstrs - b.instructions()))) == 0)
            break;
    }

    EXPECT_EQ(a.instructions(), b.instructions());
    EXPECT_EQ(a.ipc(), b.ipc());
    CounterRegistry ra, rb;
    a.exportCounters(ra);
    b.exportCounters(rb);
    EXPECT_EQ(ra.toText(), rb.toText());
}

} // namespace
} // namespace dol
