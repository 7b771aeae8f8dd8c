/**
 * @file
 * Equivalence test for the batched run loop: a Simulator stepped in
 * blocks of any size must give identical counters, cycle counts and
 * IPC to one driven by run().
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/counters.hpp"
#include "workloads/suite.hpp"

namespace dol
{
namespace
{

TEST(FastPath, RandomStepBlocksMatchRun)
{
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
