/**
 * @file
 * Differential checks for the multicore contention subsystem.
 *
 * A multicore fuzz case (`--fuzz-multicore`, run by check/campaign.hpp)
 * is a pure function of one 64-bit seed: the
 * seed fixes the core count (2–4), each core's workload and
 * prefetcher (heterogeneous by construction), the arbitration
 * policy, the bandwidth window and the instruction budget. Each case
 * asserts two properties the rest of the repo leans on:
 *
 *  - byte determinism: two executions of the same case export
 *    byte-identical counter-registry text (the property that makes
 *    golden snapshots and --jobs-invariant sweeps possible);
 *  - attribution conservation: the per-core DRAM line counts sum
 *    exactly to the shared controller's total, and prefetch lines
 *    never exceed a core's total lines.
 *
 * The kArbitrationDrift mutation flips the arbitration policy on the
 * second execution only; the determinism check must catch it, which
 * proves the check has the power to see a real arbitration-order bug.
 */

#ifndef DOL_CHECK_MULTICORE_CHECK_HPP
#define DOL_CHECK_MULTICORE_CHECK_HPP

#include <cstdint>

#include "check/differential.hpp"

namespace dol::check
{

/** One multicore fuzz case; ok() == false carries the first diff. */
DiffResult checkMulticoreCase(std::uint64_t case_seed,
                              Mutation mutation = Mutation::kNone);

} // namespace dol::check

#endif // DOL_CHECK_MULTICORE_CHECK_HPP
