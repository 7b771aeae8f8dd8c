/**
 * @file
 * Seeded random workload generation for the differential checker.
 *
 * A fuzz case is a pure function of one 64-bit case seed: the seed
 * fixes both the component parameters under test (makeFuzzParams) and
 * the synthetic trace (makeFuzzTrace). Traces interleave the access
 * patterns the paper's components specialise in — constant strides
 * with run lengths straddling the confirmation thresholds, pointer
 * chains with coherent in-memory values, dense and sparse regions
 * around C1's density cut, prefetch-hit "zigzag" pairs that exercise
 * coordinator rebinding, temporal-correlation sequences revisited
 * cyclically, and plain noise — as straight-line code.
 *
 * Domain restrictions (what keeps the reference models simple):
 *  - no control instructions: mPC == PC, T2's loop detector stays
 *    idle, distance is always the default;
 *  - at most ~16 distinct memory PCs: far below the SIT / I-cache
 *    state-table capacities, so production never evicts;
 *  - one value per address (a chase never revisits a node with a
 *    different successor): the first-touch heap a ReplayKernel
 *    rebuilds from the records is the exact heap P1 chases, for the
 *    whole trace and for any subset the shrinker keeps, so shrunk
 *    reproducers replay bit-identically.
 */

#ifndef DOL_CHECK_FUZZ_WORKLOAD_HPP
#define DOL_CHECK_FUZZ_WORKLOAD_HPP

#include <cstdint>
#include <vector>

#include "core/t2.hpp"
#include "workloads/trace_file.hpp"

namespace dol::check
{

/** Seed of case @p index within a campaign. */
std::uint64_t caseSeed(std::uint64_t campaign_seed, std::uint64_t index);

/** Everything a fuzz case randomises besides the trace itself. */
struct FuzzParams
{
    T2Prefetcher::Params t2{};
    bool enableP1 = true;
    bool enableC1 = true;
    /** Degrees of the next-line extra components. */
    unsigned extraDegree1 = 1;
    unsigned extraDegree2 = 2;
    unsigned extraDegree3 = 1;
    /** Extras behind the coordinator (2 or 3). */
    unsigned numExtras = 2;
    /** Include a temporal-correlation slot in the trace. */
    bool temporalSlot = false;
    /** Seed of the standalone cache differential's op stream. */
    std::uint64_t opSeed = 1;
    /** Geometry of the standalone cache differential (16 sets). */
    std::uint32_t cacheSizeBytes = 4096;
    std::uint32_t cacheAssoc = 4;
};

FuzzParams makeFuzzParams(std::uint64_t case_seed);

std::vector<TraceRecord> makeFuzzTrace(std::uint64_t case_seed,
                                       const FuzzParams &params);

} // namespace dol::check

#endif // DOL_CHECK_FUZZ_WORKLOAD_HPP
