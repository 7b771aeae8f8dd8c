/**
 * @file
 * Shard merge tests: range partitioning properties and the journal
 * merge behind `dolsim --merge` (first-committed-wins dedup, success
 * over an earlier quarantine, quarantine surfacing, a clean prefix
 * that ends where `--resume` ends it, and refusal of uncovered cells
 * and foreign plans).
 *
 * The journals hold fabricated rows (a pure function of the cell
 * index), not simulated ones: the property under test is the merge,
 * not the simulator. The end-to-end shard check — real dolsim
 * processes, one killed and resumed — is tools/dol_resume_check.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/wire.hpp"
#include "runner/checkpoint.hpp"
#include "runner/framed_file.hpp"
#include "runner/merge.hpp"
#include "runner/sweep.hpp"

namespace
{

using namespace dol;

std::string
freshDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    return dir;
}

/** Synthetic metric row: a pure function of the cell index. */
runner::MetricsRow
rowFor(std::uint64_t cell)
{
    runner::MetricsRow row;
    row.workload = "syn" + std::to_string(cell % 7) + ".syn";
    row.prefetcher = (cell % 2) ? "SPP" : "TPC";
    row.variant = ":v" + std::to_string(cell);
    row.seed = 0x9e3779b97f4a7c15ull * (cell + 1);
    row.baselineIpc = 0.5 + 0.001 * static_cast<double>(cell);
    row.ipc = 1.0 + 0.002 * static_cast<double>(cell);
    row.speedup = row.ipc / row.baselineIpc;
    row.baselineMpkiL1 = 10.0 + static_cast<double>(cell);
    row.prefetchesIssued = 1000 + cell;
    row.scope = 0.5;
    row.effAccuracyL1 = 0.25;
    row.effCoverageL1 = 0.125;
    row.effAccuracyL2 = 0.0625;
    row.effCoverageL2 = 0.03125;
    row.trafficNormalized = 1.0 + 0.001 * static_cast<double>(cell);
    row.instructions = 4000;
    row.counters.set("t2", "streams", cell);
    return row;
}

runner::JournalJobDone
jobFor(std::uint64_t cell)
{
    runner::JournalJobDone job;
    job.jobIndex = cell;
    const runner::MetricsRow row = rowFor(cell);
    job.label = row.prefetcher + "/" + row.workload;
    job.variant = row.variant;
    job.seed = row.seed;
    job.wallMs = 1.0; // deterministic: not under test
    job.rows.push_back(row);
    return job;
}

runner::FailedCell
failureFor(std::uint64_t cell)
{
    runner::FailedCell out;
    out.label = rowFor(cell).prefetcher + "/" + rowFor(cell).workload;
    out.variant = ":v" + std::to_string(cell);
    out.seed = rowFor(cell).seed;
    out.kind = "error";
    out.error = "synthetic failure in cell " + std::to_string(cell);
    return out;
}

/** Journal @p jobs (after @p failed) into a fresh journal at @p path. */
void
writeJournal(const std::string &path, const runner::JournalPlan &plan,
             const std::vector<runner::JournalJobDone> &jobs,
             const std::vector<runner::JournalCellFailed> &failed = {})
{
    runner::CheckpointJournal journal;
    ASSERT_TRUE(journal.create(path, plan));
    for (const auto &rec : failed)
        ASSERT_TRUE(journal.appendCellFailed(rec));
    for (const auto &job : jobs)
        ASSERT_TRUE(journal.appendJobDone(job));
}

runner::JournalPlan
plan3()
{
    runner::JournalPlan plan;
    plan.itemCount = 3;
    plan.gridHash = 0xABCull;
    plan.maxInstrs = 4000;
    return plan;
}

runner::JournalJobDone
markedJob(std::uint64_t cell, double ipc_marker)
{
    runner::JournalJobDone job = jobFor(cell);
    job.rows[0].ipc = ipc_marker;
    return job;
}

runner::JournalCellFailed
failedRecord(std::uint64_t cell)
{
    runner::JournalCellFailed failed;
    failed.jobIndex = cell;
    failed.cell = failureFor(cell);
    return failed;
}

/** Merge @p journals; on success @p document holds the merged
 *  dol-sweep-v1 document. */
runner::MergeStats
mergeToString(const std::vector<std::string> &journals,
              std::string &document)
{
    runner::ResultStore store;
    runner::SweepMeta meta;
    const runner::MergeStats stats =
        runner::mergeJournals(journals, store, meta);
    document = stats.ok ? store.toJson(meta) : "";
    return stats;
}

// ---------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------

TEST(PartitionRange, CoversEveryCellWithBalancedContiguousRanges)
{
    for (std::uint64_t count = 0; count <= 257; ++count) {
        for (unsigned parts = 1; parts <= 16; ++parts) {
            const auto ranges = runner::partitionRange(count, parts);
            const std::uint64_t expect_ranges =
                count < parts ? count : parts;
            ASSERT_EQ(ranges.size(), expect_ranges)
                << "count=" << count << " parts=" << parts;
            std::uint64_t next = 0;
            std::uint64_t smallest = UINT64_MAX, largest = 0;
            for (const auto &[begin, end] : ranges) {
                ASSERT_EQ(begin, next);
                ASSERT_LT(begin, end);
                const std::uint64_t len = end - begin;
                smallest = std::min(smallest, len);
                largest = std::max(largest, len);
                next = end;
            }
            ASSERT_EQ(next, count);
            if (!ranges.empty()) {
                ASSERT_LE(largest - smallest, 1u)
                    << "count=" << count << " parts=" << parts;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------

TEST(Merge, FirstCommittedWinsAndSuccessOutranksFailure)
{
    const std::string dir = freshDir("merge_dedup");
    // Journal a committed cell 0, quarantined cell 1, committed cell
    // 2. Journal b (the re-run) re-committed cells 1 and 2.
    writeJournal(dir + "/a.ckpt", plan3(),
                 {markedJob(0, 1.5), markedJob(2, 3.5)},
                 {failedRecord(1)});
    writeJournal(dir + "/b.ckpt", plan3(),
                 {markedJob(1, 2.5), markedJob(2, 9.75)});

    std::string merged;
    const runner::MergeStats stats =
        mergeToString({dir + "/a.ckpt", dir + "/b.ckpt"}, merged);
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.mergedCells, 3u);
    EXPECT_EQ(stats.failedCells, 0u);
    // Two losers: a's quarantine of cell 1 (outranked by b's success)
    // and b's duplicate of cell 2.
    EXPECT_EQ(stats.duplicatesDiscarded, 2u);
    EXPECT_NE(merged.find("1.5"), std::string::npos);
    EXPECT_NE(merged.find("2.5"), std::string::npos);
    EXPECT_NE(merged.find("3.5"), std::string::npos);
    EXPECT_EQ(merged.find("9.75"), std::string::npos)
        << "b's duplicate of cell 2 must lose to a's first-committed "
           "record";
    EXPECT_EQ(merged.find("failed_cells"), std::string::npos);
}

TEST(Merge, QuarantinedEverywhereSurfacesInFailedCells)
{
    const std::string dir = freshDir("merge_failed");
    writeJournal(dir + "/a.ckpt", plan3(),
                 {markedJob(0, 1.5), markedJob(2, 3.5)},
                 {failedRecord(1)});

    std::string merged;
    const runner::MergeStats stats =
        mergeToString({dir + "/a.ckpt"}, merged);
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.mergedCells, 2u);
    EXPECT_EQ(stats.failedCells, 1u);
    EXPECT_NE(merged.find("\"failed_cells\""), std::string::npos);
    EXPECT_NE(merged.find("synthetic failure in cell 1"),
              std::string::npos);
}

TEST(Merge, UndecodableRecordEndsThatJournalsCleanPrefix)
{
    const std::string dir = freshDir("merge_undecodable");
    // Journal a: cell 0, then a record for cell 1 whose checksum
    // verifies but whose payload does not decode, then cell 2.
    // Journal b covers cells 1 and 2.
    const std::string a = dir + "/a.ckpt";
    writeJournal(a, plan3(), {markedJob(0, 1.5)});
    {
        std::string undecodable;
        wire::putU64(undecodable, 1);
        wire::putU32(undecodable, 1000); // label past the end
        runner::FramedWriter writer;
        ASSERT_TRUE(
            writer.openAppend(a, std::filesystem::file_size(a)));
        ASSERT_TRUE(writer.appendRecord(
            static_cast<std::uint8_t>(runner::JournalRecord::kJobDone),
            undecodable));
        ASSERT_TRUE(writer.appendRecord(
            static_cast<std::uint8_t>(runner::JournalRecord::kJobDone),
            runner::encodeJobDonePayload(markedJob(2, 3.5))));
    }
    writeJournal(dir + "/b.ckpt", plan3(),
                 {markedJob(1, 2.5), markedJob(2, 9.75)});

    // a's clean prefix ends before the undecodable record, where a
    // resumed shard would truncate a and re-run cells 1 and 2.
    const auto loaded = runner::CheckpointJournal::load(a);
    EXPECT_FALSE(loaded.cleanTail);
    EXPECT_EQ(loaded.jobs.size(), 1u);

    std::string merged;
    const runner::MergeStats stats =
        mergeToString({a, dir + "/b.ckpt"}, merged);
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_EQ(stats.mergedCells, 3u);
    EXPECT_EQ(stats.duplicatesDiscarded, 0u);
    EXPECT_NE(merged.find("1.5"), std::string::npos);
    EXPECT_NE(merged.find("2.5"), std::string::npos);
    EXPECT_NE(merged.find("9.75"), std::string::npos);
    EXPECT_EQ(merged.find("3.5"), std::string::npos)
        << "a's record of cell 2 lies past its clean prefix";
}

TEST(Merge, FailsOnUncoveredCellOrForeignPlan)
{
    const std::string dir = freshDir("merge_errors");
    writeJournal(dir + "/a.ckpt", plan3(), {markedJob(0, 1.5)});

    std::string merged;
    runner::MergeStats stats = mergeToString({}, merged);
    EXPECT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("no journals"), std::string::npos)
        << stats.error;

    std::vector<std::string> journals = {dir + "/a.ckpt"};
    stats = mergeToString(journals, merged);
    EXPECT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("no journal covers cell"),
              std::string::npos)
        << stats.error;

    // The first journal's plan is the identity: a journal of another
    // grid is refused even when it would cover the missing cells.
    runner::JournalPlan other = plan3();
    other.gridHash ^= 1;
    writeJournal(dir + "/b.ckpt", other,
                 {markedJob(1, 2.5), markedJob(2, 3.5)});
    journals.push_back(dir + "/b.ckpt");
    stats = mergeToString(journals, merged);
    EXPECT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("different sweep plan"),
              std::string::npos)
        << stats.error;

    stats = mergeToString({dir + "/a.ckpt", dir + "/missing.ckpt"},
                          merged);
    EXPECT_FALSE(stats.ok);
    EXPECT_NE(stats.error.find("missing journal"), std::string::npos)
        << stats.error;
}

} // namespace
