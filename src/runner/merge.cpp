#include "runner/merge.hpp"

#include <cstdio>
#include <memory>
#include <optional>

#include "runner/json_writer.hpp"

namespace dol::runner
{

namespace
{

constexpr std::size_t kNoInput = SIZE_MAX;

/** Pass-1 index entry: where a cell's winning record lives. */
struct Winner
{
    std::size_t input = kNoInput;
    std::uint64_t offset = 0;
    bool failed = false;
};

MergeStats
fail(MergeStats stats, std::string error)
{
    stats.ok = false;
    stats.error = std::move(error);
    return stats;
}

} // namespace

MergeStats
mergeJournals(const MergeOptions &options, const MergeSink &sink)
{
    MergeStats stats;

    if (options.journals.empty())
        return fail(std::move(stats), "no journals to merge");

    // Pass 1: index every journal, keeping only winners' offsets.
    // The first journal's plan is the identity the rest must match.
    std::optional<JournalPlan> plan;
    std::vector<std::unique_ptr<CheckpointReader>> readers;
    std::vector<Winner> winners;
    for (std::size_t input = 0; input < options.journals.size();
         ++input) {
        const std::string &path = options.journals[input];
        auto reader = std::make_unique<CheckpointReader>();
        if (!reader->open(path)) {
            return fail(std::move(stats),
                        reader->fileExists()
                            ? path + " is not a DOLCKPT1 checkpoint"
                            : "missing journal " + path);
        }
        bool sawPlan = false;
        FramedReader::Record rec;
        while (reader->next(rec)) {
            const auto type = static_cast<JournalRecord>(rec.type);
            if (type == JournalRecord::kPlan) {
                JournalPlan journal_plan;
                if (!decodePlanPayload(rec.payload, journal_plan))
                    return fail(std::move(stats),
                                "corrupt plan record in " + path);
                if (!plan) {
                    plan = journal_plan;
                    winners.resize(plan->itemCount);
                } else if (!(journal_plan == *plan)) {
                    return fail(std::move(stats),
                                path + " was written for a different "
                                       "sweep plan than " +
                                    options.journals.front());
                }
                sawPlan = true;
                continue;
            }
            if (type != JournalRecord::kJobDone &&
                type != JournalRecord::kCellFailed)
                continue;
            if (!sawPlan)
                return fail(std::move(stats),
                            path + " has a cell record before its "
                                   "plan record");
            std::uint64_t cell = 0;
            if (!decodeJobIndex(rec.payload, cell))
                return fail(std::move(stats),
                            "corrupt record in " + path);
            if (cell >= winners.size())
                return fail(std::move(stats),
                            path + " records a cell outside the plan");
            Winner &winner = winners[cell];
            const bool failedRecord =
                type == JournalRecord::kCellFailed;
            if (winner.input == kNoInput) {
                winner = Winner{input, rec.offset, failedRecord};
            } else if (winner.failed && !failedRecord) {
                // A successful re-run outranks an earlier quarantine.
                winner = Winner{input, rec.offset, false};
                ++stats.duplicatesDiscarded;
            } else {
                // First committed wins; the duplicate is dropped.
                ++stats.duplicatesDiscarded;
            }
        }
        if (!sawPlan)
            return fail(std::move(stats), path + " has no plan record");
        readers.push_back(std::move(reader));
    }
    for (std::uint64_t cell = 0; cell < winners.size(); ++cell) {
        if (winners[cell].input == kNoInput)
            return fail(std::move(stats),
                        "no journal covers cell " +
                            std::to_string(cell));
    }

    // Pass 2: emit in grid order, one winning record decoded at a
    // time, inside the envelope ResultStore::toJson() writes — that
    // is what makes the deterministic prefix byte-identical. Wall
    // times and quarantined cells come from the journals.
    const auto flush = [&](JsonWriter &json) {
        return sink(json.take());
    };
    SweepMeta meta = options.meta;
    meta.maxInstrs = plan->maxInstrs;
    meta.wallMs.clear();
    meta.failedCells.clear();
    std::size_t rowsHeld = 0;

    JsonWriter json;
    writeSweepHead(json, meta);
    if (!flush(json))
        return fail(std::move(stats), "merge sink rejected output");

    for (std::uint64_t cell = 0; cell < winners.size(); ++cell) {
        const Winner &winner = winners[cell];
        CheckpointReader &reader = *readers[winner.input];
        FramedReader::Record rec;
        if (!reader.seek(winner.offset) || !reader.next(rec))
            return fail(std::move(stats),
                        "cannot re-read cell " +
                            std::to_string(cell) + " from " +
                            options.journals[winner.input]);
        if (winner.failed) {
            JournalCellFailed failed;
            if (!decodeCellFailedPayload(rec.payload, failed))
                return fail(std::move(stats),
                            "corrupt kCellFailed record for cell " +
                                std::to_string(cell));
            meta.failedCells.push_back(std::move(failed.cell));
            ++stats.failedCells;
            continue;
        }
        JournalJobDone job;
        if (!decodeJobDonePayload(rec.payload, job))
            return fail(std::move(stats),
                        "corrupt kJobDone record for cell " +
                            std::to_string(cell));
        rowsHeld += job.rows.size();
        if (rowsHeld > stats.peakRowsHeld)
            stats.peakRowsHeld = rowsHeld;
        for (const MetricsRow &row : job.rows) {
            writeMetricsRowJson(json, row);
            meta.wallMs.push_back(job.wallMs);
        }
        ++stats.mergedCells;
        if (!flush(json))
            return fail(std::move(stats),
                        "merge sink rejected output");
        rowsHeld -= job.rows.size();
    }
    if (!sink(finishSweepDocument(json, meta)))
        return fail(std::move(stats), "merge sink rejected output");

    stats.ok = true;
    return stats;
}

MergeStats
mergeJournalsToFile(const MergeOptions &options,
                    const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file) {
        MergeStats stats;
        stats.error = "cannot create " + path;
        return stats;
    }
    MergeStats stats =
        mergeJournals(options, [&](const std::string &chunk) {
            return std::fwrite(chunk.data(), 1, chunk.size(), file) ==
                   chunk.size();
        });
    if (std::fclose(file) != 0 && stats.ok) {
        stats.ok = false;
        stats.error = "cannot finish writing " + path;
    }
    return stats;
}

MergeStats
mergeJournalsToString(const MergeOptions &options, std::string &out)
{
    out.clear();
    return mergeJournals(options, [&](const std::string &chunk) {
        out += chunk;
        return true;
    });
}

} // namespace dol::runner
