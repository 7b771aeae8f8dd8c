/**
 * @file
 * Seeded fuzz campaigns of every kind on the sweep executor.
 *
 * A campaign of N cases queues one runner::SweepRunner job per case,
 * whatever its kind — the differential checker (`--fuzz`), the
 * adaptive coordinator (`--fuzz-adaptive`) or multicore contention
 * (`--fuzz-multicore`) — so every kind runs on the sweep's workers
 * with its checkpoint journal, graceful drain and fault injection.
 *
 * Case i's seed derives from the campaign seed by SplitMix64, so every
 * case is fixed before any worker starts and the summary text is a
 * pure function of (kind, seed, cases, mutation) at any job count. A
 * case that finds a diff ends its job by throwing the diff, so the
 * sweep quarantines it: the journal records it as a failed cell, never
 * as a pass, and `--resume` re-runs it, regenerating the identical
 * diff. Differential failures are shrunk in the worker that found them
 * and written to the reproducer directory as a DOLINS01 instruction
 * trace plus a text sidecar with the exact replay command; adaptive
 * and multicore failures report their diff only.
 */

#ifndef DOL_CHECK_CAMPAIGN_HPP
#define DOL_CHECK_CAMPAIGN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "runner/sweep.hpp"

namespace dol::check
{

enum class CampaignKind
{
    kDifferential, ///< production vs reference models (differential.hpp)
    kAdaptive,     ///< adaptive vs hardwired coordinator (adaptive_check)
    kMulticore,    ///< contention determinism (multicore_check)
};

/** The mutations @p kind's checker can plant, as "|"-separated
 *  --fuzz-mutate names (e.g. "lru|rebind|t2confirm|rebind3"). */
std::string plantableMutations(CampaignKind kind);

/** True when @p kind can plant @p mutation; kNone always can. */
bool canPlant(CampaignKind kind, Mutation mutation);

struct CampaignOptions
{
    CampaignKind kind = CampaignKind::kDifferential;
    std::uint64_t cases = 1000;
    std::uint64_t seed = 1;
    /** Reference-model mutation for checker self-tests; runCampaign
     *  rejects one the kind cannot plant. */
    Mutation mutation = Mutation::kNone;
    /** Directory for shrunk differential reproducers (created on the
     *  first failure). */
    std::string reproDir = "fuzz-repro";
    /** Shrinker budget for each differential failure, which is always
     *  shrunk before it is written out. */
    std::size_t maxShrinkEvaluations = 2000;
    /** How the cases run: workers, progress line, checkpoint/resume,
     *  stop flag, fault plan. No case polls a cell timeout. onError is
     *  ignored: a failing case is always quarantined so the campaign
     *  completes around it. */
    runner::SweepOptions sweep;
};

struct CaseFailure
{
    std::uint64_t index = 0;
    std::uint64_t caseSeed = 0;
    DiffResult diff;
    /** Set instead of diff when the case ended without a verdict (its
     *  job threw or timed out): "<kind>: <what>". */
    std::string error;
    std::size_t originalRecords = 0;
    std::size_t shrunkRecords = 0;
    std::string reproPath;
};

struct CampaignReport
{
    CampaignKind kind = CampaignKind::kDifferential;
    std::uint64_t cases = 0;
    std::uint64_t seed = 0;
    std::vector<CaseFailure> failures; ///< ascending case index

    /** Cases that reached a verdict in this run / skipped as passes
     *  journaled by an earlier one. */
    std::uint64_t casesRun = 0;
    std::uint64_t casesResumed = 0;
    /** A stop request drained the campaign before every case ran. */
    bool interrupted = false;

    bool ok() const { return failures.empty() && !interrupted; }

    /** Deterministic human-readable summary (diffed in CI). */
    std::string summaryText() const;
};

/** Run a campaign. Throws std::invalid_argument for a mutation the
 *  kind cannot plant and std::runtime_error for a checkpoint that
 *  cannot be opened or belongs to another sweep or campaign. */
CampaignReport runCampaign(const CampaignOptions &options);

/**
 * Scan cases sequentially until one fails, shrink it (trace kinds),
 * and return the failure; no reproducer is written. Used by the
 * mutation self-tests, which assert a planted bug is caught within a
 * case budget and shrinks below a size bound.
 */
struct MutationProbe
{
    bool found = false;
    CaseFailure failure;
    /** The shrunk trace; empty for the multicore kind. */
    std::vector<TraceRecord> shrunk;
};

MutationProbe probeMutation(CampaignKind kind,
                            std::uint64_t campaign_seed,
                            std::uint64_t max_cases, Mutation mutation,
                            std::size_t max_shrink_evaluations = 2000);

} // namespace dol::check

#endif // DOL_CHECK_CAMPAIGN_HPP
