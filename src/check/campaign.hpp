/**
 * @file
 * Seeded fuzz campaigns: N differential cases, run in parallel on the
 * experiment runner's thread pool, with byte-identical reporting
 * regardless of the job count.
 *
 * Case i's seed derives from the campaign seed by SplitMix64, so the
 * workload of every case is fixed before any thread starts; results
 * land in a pre-sized slot vector indexed by case, so the summary
 * text is a pure function of (seed, cases, mutation). Failures are
 * shrunk in the worker that found them and written to the reproducer
 * directory as a DOLINS01 instruction trace plus a text sidecar
 * containing the exact replay command.
 */

#ifndef DOL_CHECK_CAMPAIGN_HPP
#define DOL_CHECK_CAMPAIGN_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "check/differential.hpp"

namespace dol::check
{

struct CampaignOptions
{
    std::uint64_t cases = 1000;
    std::uint64_t seed = 1;
    /** Worker threads; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /** Directory for shrunk reproducers (created if missing). */
    std::string reproDir = "fuzz-repro";
    /** Reference-model mutation for checker self-tests. */
    Mutation mutation = Mutation::kNone;
    /** Shrink failures before writing them out. */
    bool shrink = true;
    std::size_t maxShrinkEvaluations = 2000;

    /**
     * Journal passing cases here (crash-safe resume); empty = no
     * checkpointing. Failing cases are never journaled: a resumed
     * campaign re-runs them, regenerating the identical diff summary
     * and reproducer files, so an interrupted-then-resumed campaign
     * reports byte-identically to an uninterrupted one.
     */
    std::string checkpointPath;
    /** Skip the cases checkpointPath records as passed. */
    bool resume = false;
    /** Graceful-drain flag shared with the signal handlers; nullptr =
     *  campaign-private flag. */
    std::atomic<bool> *stopFlag = nullptr;
    /** Test hook: raise the stop flag after this many cases complete
     *  in this run (0 = never). Makes "interrupt mid-campaign"
     *  deterministic without signals. */
    std::uint64_t stopAfterCases = 0;
};

struct CaseFailure
{
    std::uint64_t index = 0;
    std::uint64_t caseSeed = 0;
    DiffResult diff;
    std::size_t originalRecords = 0;
    std::size_t shrunkRecords = 0;
    std::string reproPath;
};

struct CampaignReport
{
    std::uint64_t cases = 0;
    std::uint64_t seed = 0;
    std::vector<CaseFailure> failures; ///< ascending case index

    /** Cases executed in this run / skipped via the checkpoint. */
    std::uint64_t casesRun = 0;
    std::uint64_t casesResumed = 0;
    /** A stop request drained the campaign before every case ran. */
    bool interrupted = false;

    bool ok() const { return failures.empty() && !interrupted; }

    /** Deterministic human-readable summary (diffed in CI). */
    std::string summaryText() const;
};

CampaignReport runCampaign(const CampaignOptions &options);

/**
 * Scan cases sequentially until one fails, shrink it, and return the
 * failure (reproducer is not written). Used by the mutation
 * self-tests, which assert a planted bug is caught within a case
 * budget and shrinks below a size bound.
 */
struct MutationProbe
{
    bool found = false;
    CaseFailure failure;
    std::vector<TraceRecord> shrunk;
};

MutationProbe probeMutation(std::uint64_t campaign_seed,
                            std::uint64_t max_cases, Mutation mutation,
                            std::size_t max_shrink_evaluations = 2000);

} // namespace dol::check

#endif // DOL_CHECK_CAMPAIGN_HPP
