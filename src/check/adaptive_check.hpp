/**
 * @file
 * Differential checks for the adaptive coordinator (`--fuzz-adaptive`,
 * run by check/campaign.hpp).
 *
 * An adaptive fuzz case is a pure function of one 64-bit seed: the
 * seed fixes the composite configuration and trace (the same
 * makeFuzzParams/makeFuzzTrace generators as the main campaign) plus a
 * small-window AdaptiveParams draw, so decision windows close many
 * times even on short fuzz traces. Each case asserts four properties:
 *
 *  1. demand-stream identity: the hardwired and adaptive coordinators
 *     run the identical trace and must observe the identical demand
 *     access sequence (pc, mPc, addr, kind, value). Adaptation is
 *     observer-side only — it may change which prefetches issue,
 *     never what the program does. Hit bits and timing legitimately
 *     differ (different prefetches land in the caches) and are
 *     excluded from the comparison;
 *  2. window-decision lockstep: every AdaptiveWindowRecord the
 *     production coordinator logs is replayed through the naive
 *     ReferenceAdaptive policy and diffed field by field;
 *  3. trace round-trip: the case's instructions survive a ChampSim
 *     encode -> decode cycle structurally intact (the ingest frontend
 *     is exercised under fuzz, not just on committed fixtures);
 *  4. byte determinism: the adaptive run repeats from scratch and the
 *     full counter registry — `adapt.` scope included — must match
 *     byte for byte.
 *
 * The kDegreeRampStuck mutation pins the reference's extras at
 * maxDegree; check 2 must catch it on the first closed window.
 */

#ifndef DOL_CHECK_ADAPTIVE_CHECK_HPP
#define DOL_CHECK_ADAPTIVE_CHECK_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "core/adaptive.hpp"

namespace dol::check
{

/** Small-window adaptive parameter draw for case @p case_seed. */
AdaptiveParams makeAdaptiveParams(std::uint64_t case_seed);

/** Run every adaptive check over @p records with fixed parameters
 *  (the shrinker holds params constant while minimising the trace). */
DiffResult checkAdaptiveTrace(const std::vector<TraceRecord> &records,
                              const FuzzParams &params,
                              const AdaptiveParams &adapt,
                              Mutation mutation = Mutation::kNone);

} // namespace dol::check

#endif // DOL_CHECK_ADAPTIVE_CHECK_HPP
