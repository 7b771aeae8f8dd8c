/**
 * @file
 * Streaming merge of sharded DOLCKPT1 journals into one dol-sweep-v1
 * document (`dolsim --merge`).
 *
 * Each `dolsim --shard i/N` run journals one contiguous cell range of
 * the same grid; every journal opens with the full grid's plan
 * record, so the journals share one identity and their records merge
 * by cell index. The merge takes that plan from the first journal and
 * needs no grid arguments of its own.
 *
 * Two passes, bounded memory:
 *
 *  1. Index: stream every journal once in argument order, recording
 *     only (input, file offset, failed?) per cell — never a decoded
 *     row. When a cell was journaled twice (a resumed shard re-runs
 *     the cells it quarantined), the first-committed record wins:
 *     earliest journal argument, earliest append order. The one
 *     exception is that a successful record beats an earlier
 *     kCellFailed for the same cell — a resumed run that succeeded
 *     where the first one quarantined is strictly better data. Losing
 *     records are discarded and counted.
 *
 *  2. Emit: walk cells 0..N-1 in grid order, seek each winner's
 *     offset, decode that one record, serialize its rows through the
 *     exact writeMetricsRowJson and envelope (writeSweepHead,
 *     finishSweepDocument) that ResultStore::toJson() uses, and
 *     flush. At most one job's rows are ever materialized (the
 *     peakRowsHeld probe in MergeStats proves it), so a 10k-cell
 *     merge holds one cell of data plus O(cells) of bare offsets.
 *
 * The emitted document's deterministic prefix — everything before
 * the "timing" key — is byte-identical to a single-process
 * `--jobs N` run of the same grid; that is the sharding correctness
 * contract and what the kill-and-merge check memcmps.
 */

#ifndef DOL_RUNNER_MERGE_HPP
#define DOL_RUNNER_MERGE_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/checkpoint.hpp"
#include "runner/result_store.hpp"

namespace dol::runner
{

struct MergeOptions
{
    /** Journals in commit order; the first one's plan is the grid
     *  identity every other journal must match. */
    std::vector<std::string> journals;
    /** Header/timing fields for the merged document. maxInstrs comes
     *  from the plan and wallMs and failedCells from the journals;
     *  generator, jobs, elapsedSeconds and resumedJobs pass
     *  through. */
    SweepMeta meta;
};

/**
 * Receives the document in order, in bounded chunks. Return false to
 * abort the merge (e.g. on a write error).
 */
using MergeSink = std::function<bool(const std::string &chunk)>;

struct MergeStats
{
    bool ok = false;
    std::string error;
    /** Cells emitted into "results". */
    std::uint64_t mergedCells = 0;
    /** Cells surfaced in "failed_cells" (quarantined everywhere). */
    std::uint64_t failedCells = 0;
    /** Records for cells an earlier record already committed. */
    std::uint64_t duplicatesDiscarded = 0;
    /** Max metric rows materialized at once during emission — the
     *  streaming bound the tests assert on. */
    std::size_t peakRowsHeld = 0;
};

/** Merge @p options.journals into @p sink. Fails (stats.ok=false)
 *  on no journals, a missing/invalid journal, a plan mismatch, or a
 *  cell no journal covers. */
MergeStats mergeJournals(const MergeOptions &options,
                         const MergeSink &sink);

/** Convenience: merge into a file, written in one pass. */
MergeStats mergeJournalsToFile(const MergeOptions &options,
                               const std::string &path);

/** Convenience: merge into a string (tests). */
MergeStats mergeJournalsToString(const MergeOptions &options,
                                 std::string &out);

} // namespace dol::runner

#endif // DOL_RUNNER_MERGE_HPP
