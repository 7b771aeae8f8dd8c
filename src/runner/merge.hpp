/**
 * @file
 * Merge of sharded DOLCKPT1 journals into one dol-sweep-v1 document
 * (`dolsim --merge`).
 *
 * Each `dolsim --shard i/N` run journals one contiguous cell range of
 * the same grid; every journal opens with the full grid's plan
 * record, so the journals share one identity and their records merge
 * by cell index. The merge takes that plan from the first journal and
 * needs no grid arguments of its own.
 *
 * Each journal is read with CheckpointJournal::load(), the loader
 * `--resume` uses, so a journal's clean prefix ends at the same
 * record for both. When a cell was journaled twice (a resumed shard
 * re-runs the cells it quarantined), the first-committed record wins:
 * earliest journal argument, earliest append order. The one exception
 * is that a successful record beats an earlier kCellFailed for the
 * same cell — a resumed run that succeeded where the first one
 * quarantined is strictly better data. Losing records are discarded
 * and counted.
 *
 * The winners' rows are appended to a ResultStore in cell order, so
 * the document ResultStore writes is byte-identical, up to the
 * "timing" key, to a single-process `--jobs N` run of the same grid;
 * that is the sharding correctness contract and what the
 * kill-and-merge check compares.
 */

#ifndef DOL_RUNNER_MERGE_HPP
#define DOL_RUNNER_MERGE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "runner/result_store.hpp"

namespace dol::runner
{

struct MergeStats
{
    bool ok = false;
    std::string error;
    /** Cells whose rows were appended to the store. */
    std::uint64_t mergedCells = 0;
    /** Cells surfaced in "failed_cells" (quarantined everywhere). */
    std::uint64_t failedCells = 0;
    /** Records for cells an earlier record already committed. */
    std::uint64_t duplicatesDiscarded = 0;
};

/**
 * Merge @p journals, given in commit order: the winners' rows go to
 * @p store in cell order, and @p meta gets the plan's maxInstrs, the
 * journaled wall times and the quarantined cells (its other fields
 * pass through). Fails (ok=false) on no journals, a missing or
 * invalid journal, a plan mismatch, or a cell no journal covers.
 */
MergeStats mergeJournals(const std::vector<std::string> &journals,
                         ResultStore &store, SweepMeta &meta);

} // namespace dol::runner

#endif // DOL_RUNNER_MERGE_HPP
