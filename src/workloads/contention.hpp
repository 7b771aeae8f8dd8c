/**
 * @file
 * Named multi-core contention scenarios (paper section V-A).
 *
 * A CoreSpec binds one core to a workload, a prefetcher registry name
 * and an optional private instruction budget, so a mix can pit an
 * aggressive streaming prefetcher against a pointer-chaser on the
 * same shared L3 and DRAM channel. The mix library names the
 * recurring experiment shapes — a streamer starving a pointer chase,
 * four temporal co-runners fighting for bandwidth, a prefetch storm
 * next to a quiet ALU core — so sweeps, tests and benches reference
 * one canonical definition. Seeded random mixes (makeMixes) build
 * the same CoreSpec lists for the paper's 4-core experiments.
 */

#ifndef DOL_WORKLOADS_CONTENTION_HPP
#define DOL_WORKLOADS_CONTENTION_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace dol
{

/** One core's configuration inside a heterogeneous mix. */
struct CoreSpec
{
    /** Workload registry name (findWorkload). */
    std::string workload;
    /** Prefetcher registry name; empty disables prefetching. */
    std::string prefetcher;
    /** Private instruction budget; 0 = the SimConfig budget. */
    std::uint64_t maxInstrs = 0;
};

/** A named contention scenario: one CoreSpec per core. */
struct ContentionMix
{
    std::string name;
    std::string description;
    std::vector<CoreSpec> cores;
};

/** The canonical contention scenarios, in stable order. */
const std::vector<ContentionMix> &contentionMixes();

/** Find a mix by name (fatal on unknown, listing valid names). */
const ContentionMix &findContentionMix(const std::string &name);

/** "core0|core1|..." label of the per-core prefetcher names. */
std::string mixPrefetcherLabel(const ContentionMix &mix);

/**
 * Seeded random 4-core mixes drawn from allWorkloads() (the paper's
 * multiprogrammed experiments), every core running @p prefetcher.
 * A seed draws the same workloads whatever the prefetcher.
 */
std::vector<std::vector<CoreSpec>>
makeMixes(unsigned count, std::uint64_t seed,
          const std::string &prefetcher = "");

} // namespace dol

#endif // DOL_WORKLOADS_CONTENTION_HPP
