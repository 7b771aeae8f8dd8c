#include "runner/merge.hpp"

#include <optional>

#include "runner/checkpoint.hpp"

namespace dol::runner
{

namespace
{

MergeStats
fail(std::string error)
{
    MergeStats stats;
    stats.error = std::move(error);
    return stats;
}

} // namespace

MergeStats
mergeJournals(const std::vector<std::string> &journals,
              ResultStore &store, SweepMeta &meta)
{
    if (journals.empty())
        return fail("no journals to merge");

    // The winner of a cell is its first committed success, else its
    // first committed quarantine. The first journal's plan is the
    // identity the rest must match.
    std::optional<JournalPlan> plan;
    std::vector<std::optional<JournalJobDone>> done;
    std::vector<std::optional<FailedCell>> failed;
    std::uint64_t records = 0;
    for (const std::string &path : journals) {
        CheckpointJournal::Load load = CheckpointJournal::load(path);
        if (!load.fileExists)
            return fail("missing journal " + path);
        if (!load.valid)
            return fail(load.error);
        if (!load.plan)
            return fail(path + " has no plan record");
        if (!plan) {
            plan = load.plan;
            done.resize(plan->itemCount);
            failed.resize(plan->itemCount);
        } else if (!(*load.plan == *plan)) {
            return fail(path + " was written for a different sweep "
                               "plan than " +
                        journals.front());
        }
        for (JournalJobDone &job : load.jobs) {
            if (job.jobIndex >= plan->itemCount)
                return fail(path + " records a cell outside the plan");
            ++records;
            if (!done[job.jobIndex])
                done[job.jobIndex] = std::move(job);
        }
        for (JournalCellFailed &rec : load.failedCells) {
            if (rec.jobIndex >= plan->itemCount)
                return fail(path + " records a cell outside the plan");
            ++records;
            if (!failed[rec.jobIndex])
                failed[rec.jobIndex] = std::move(rec.cell);
        }
    }

    // Wall times and quarantined cells come from the journals.
    MergeStats stats;
    meta.maxInstrs = plan->maxInstrs;
    meta.wallMs.clear();
    meta.failedCells.clear();
    for (std::uint64_t cell = 0; cell < plan->itemCount; ++cell) {
        if (done[cell]) {
            for (MetricsRow &row : done[cell]->rows) {
                store.append(std::move(row));
                meta.wallMs.push_back(done[cell]->wallMs);
            }
            ++stats.mergedCells;
        } else if (failed[cell]) {
            meta.failedCells.push_back(std::move(*failed[cell]));
            ++stats.failedCells;
        } else {
            return fail("no journal covers cell " +
                        std::to_string(cell));
        }
    }
    stats.duplicatesDiscarded = records - plan->itemCount;
    stats.ok = true;
    return stats;
}

} // namespace dol::runner
