/**
 * @file
 * Fault-tolerance tests: checkpoint journal round trips, torn-tail
 * recovery and fuzzed malformed journals, kill-and-resume byte
 * equality (fork + abort fault, so the "crash" is a real process
 * death with no unwinding), per-cell timeout/quarantine supervision,
 * graceful drain, shard ranges, the golden-trace cells resumed across
 * a crash, and fuzz campaigns on the same executor (a faulted case is
 * reported as its failure; resume refuses a foreign journal).
 *
 * Every fault point is a deterministic function of a FaultPlan spec
 * and the grid order, so each scenario replays bit-identically.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "check/campaign.hpp"
#include "common/hash.hpp"
#include "common/wire.hpp"
#include "runner/checkpoint.hpp"
#include "runner/fault.hpp"
#include "runner/framed_file.hpp"
#include "runner/progress.hpp"
#include "runner/sweep.hpp"
#include "trace/trace_io.hpp"
#include "workloads/suite.hpp"

namespace
{

using namespace dol;

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

std::uint64_t
fileSize(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    return in.good() ? static_cast<std::uint64_t>(in.tellg()) : 0;
}

/** Peak resident set of this process so far, in KiB. */
long
peakRssKib()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// Journal format
// ---------------------------------------------------------------------

runner::JournalPlan
samplePlan()
{
    runner::JournalPlan plan;
    plan.itemCount = 3;
    plan.gridHash = 0xdeadbeefcafef00dull;
    plan.maxInstrs = 123456789ull;
    return plan;
}

runner::JournalJobDone
sampleJob()
{
    runner::JournalJobDone rec;
    rec.jobIndex = 1;
    rec.label = "TPC/libquantum.syn:l1";
    rec.variant = ":l1";
    // Full-64-bit values: a double (JSON number) round trip would
    // corrupt these — the binary journal must not.
    rec.seed = 0xffffffffffffff01ull;
    rec.wallMs = 12.75;

    runner::MetricsRow row;
    row.workload = "libquantum.syn";
    row.prefetcher = "TPC";
    row.variant = ":l1";
    row.seed = 0x8000000000000001ull;
    row.baselineIpc = 0.12345678901234567;
    row.ipc = 1.5;
    row.speedup = row.ipc / row.baselineIpc;
    row.baselineMpkiL1 = 33.25;
    row.prefetchesIssued = (1ull << 53) + 1; // not a double
    row.scope = 0.875;
    row.effAccuracyL1 = 0.5;
    row.effCoverageL1 = 0.25;
    row.effAccuracyL2 = -0.125;
    row.effCoverageL2 = 0.0625;
    row.trafficNormalized = 1.03125;
    row.instructions = 987654321ull;
    row.counters.set("t2", "streams", 42);
    row.counters.set("core", "cycles", (1ull << 62) + 7);
    row.counters.set("trace", "bytes_fnv64", 0xabcdef0123456789ull);
    rec.rows.push_back(std::move(row));
    return rec;
}

runner::JournalCellFailed
sampleFailed(std::uint64_t job_index)
{
    runner::JournalCellFailed failed;
    failed.jobIndex = job_index;
    failed.cell.label = "TPC/mcf.syn";
    failed.cell.kind = "error";
    failed.cell.error = "injected";
    return failed;
}

/** Job indices of a load's quarantined cells, in journal order. */
std::vector<std::uint64_t>
failedIndices(const runner::CheckpointJournal::Load &loaded)
{
    std::vector<std::uint64_t> indices;
    for (const runner::JournalCellFailed &failed : loaded.failedCells)
        indices.push_back(failed.jobIndex);
    return indices;
}

void
expectJobEqual(const runner::JournalJobDone &actual,
               const runner::JournalJobDone &expected)
{
    EXPECT_EQ(actual.jobIndex, expected.jobIndex);
    EXPECT_EQ(actual.label, expected.label);
    EXPECT_EQ(actual.variant, expected.variant);
    EXPECT_EQ(actual.seed, expected.seed);
    EXPECT_EQ(actual.wallMs, expected.wallMs);
    ASSERT_EQ(actual.rows.size(), expected.rows.size());
    for (std::size_t i = 0; i < actual.rows.size(); ++i) {
        const runner::MetricsRow &a = actual.rows[i];
        const runner::MetricsRow &e = expected.rows[i];
        EXPECT_EQ(a.workload, e.workload);
        EXPECT_EQ(a.prefetcher, e.prefetcher);
        EXPECT_EQ(a.variant, e.variant);
        EXPECT_EQ(a.seed, e.seed);
        EXPECT_EQ(a.baselineIpc, e.baselineIpc); // bit-exact, not near
        EXPECT_EQ(a.ipc, e.ipc);
        EXPECT_EQ(a.speedup, e.speedup);
        EXPECT_EQ(a.baselineMpkiL1, e.baselineMpkiL1);
        EXPECT_EQ(a.prefetchesIssued, e.prefetchesIssued);
        EXPECT_EQ(a.scope, e.scope);
        EXPECT_EQ(a.effAccuracyL1, e.effAccuracyL1);
        EXPECT_EQ(a.effCoverageL1, e.effCoverageL1);
        EXPECT_EQ(a.effAccuracyL2, e.effAccuracyL2);
        EXPECT_EQ(a.effCoverageL2, e.effCoverageL2);
        EXPECT_EQ(a.trafficNormalized, e.trafficNormalized);
        EXPECT_EQ(a.instructions, e.instructions);
        EXPECT_EQ(a.counters.entries(), e.counters.entries());
        EXPECT_EQ(a.counters.toText(), e.counters.toText());
    }
}

TEST(CheckpointJournal, RoundTripsPlanJobsAndCases)
{
    const std::string path = tempPath("ckpt_roundtrip.bin");
    std::remove(path.c_str());

    const runner::JournalPlan plan = samplePlan();
    const runner::JournalJobDone rec = sampleJob();
    {
        runner::CheckpointJournal journal;
        std::string error;
        ASSERT_TRUE(journal.create(path, plan, &error)) << error;
        ASSERT_TRUE(journal.appendJobDone(rec));
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(7)));
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(0)));
    }

    const auto loaded = runner::CheckpointJournal::load(path);
    EXPECT_TRUE(loaded.fileExists);
    EXPECT_TRUE(loaded.valid) << loaded.error;
    EXPECT_TRUE(loaded.cleanTail);
    EXPECT_EQ(loaded.goodBytes, fileSize(path));
    ASSERT_TRUE(loaded.plan.has_value());
    EXPECT_TRUE(*loaded.plan == plan);
    ASSERT_EQ(loaded.jobs.size(), 1u);
    expectJobEqual(loaded.jobs[0], rec);
    ASSERT_EQ(loaded.failedCells.size(), 2u);
    EXPECT_EQ(loaded.failedCells[0].jobIndex, 7u);
    EXPECT_EQ(loaded.failedCells[1].jobIndex, 0u);
}

TEST(CheckpointJournal, MissingFileAndGarbageFile)
{
    const auto missing =
        runner::CheckpointJournal::load(tempPath("ckpt_missing.bin"));
    EXPECT_FALSE(missing.fileExists);
    EXPECT_FALSE(missing.valid);

    const std::string path = tempPath("ckpt_garbage.bin");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "definitely not a checkpoint journal";
    }
    const auto garbage = runner::CheckpointJournal::load(path);
    EXPECT_TRUE(garbage.fileExists);
    EXPECT_FALSE(garbage.valid);
    EXPECT_FALSE(garbage.error.empty());
}

TEST(CheckpointJournal, TornTailIsDroppedAndTruncatedOnResume)
{
    const std::string path = tempPath("ckpt_torn.bin");
    std::remove(path.c_str());

    const runner::JournalPlan plan = samplePlan();
    const runner::JournalJobDone rec = sampleJob();
    {
        runner::CheckpointJournal journal;
        ASSERT_TRUE(journal.create(path, plan));
        ASSERT_TRUE(journal.appendJobDone(rec));
    }
    const std::uint64_t clean_bytes = fileSize(path);

    // A crash mid-append leaves a torn tail: simulate with garbage.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out << "\x02torn";
    }
    auto loaded = runner::CheckpointJournal::load(path);
    EXPECT_TRUE(loaded.valid);
    EXPECT_FALSE(loaded.cleanTail);
    EXPECT_EQ(loaded.goodBytes, clean_bytes);
    ASSERT_EQ(loaded.jobs.size(), 1u); // prior record survives
    expectJobEqual(loaded.jobs[0], rec);

    // Resume truncates the tail before appending; the journal is
    // whole again afterwards.
    {
        runner::CheckpointJournal journal;
        std::string error;
        ASSERT_TRUE(
            journal.openAppend(path, loaded.goodBytes, &error))
            << error;
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(5)));
    }
    loaded = runner::CheckpointJournal::load(path);
    EXPECT_TRUE(loaded.valid);
    EXPECT_TRUE(loaded.cleanTail);
    ASSERT_EQ(loaded.jobs.size(), 1u);
    ASSERT_EQ(loaded.failedCells.size(), 1u);
    EXPECT_EQ(loaded.failedCells[0].jobIndex, 5u);
}

TEST(CheckpointJournal, TruncatedMidRecordKeepsPriorRecords)
{
    const std::string path = tempPath("ckpt_chopped.bin");
    std::remove(path.c_str());
    {
        runner::CheckpointJournal journal;
        ASSERT_TRUE(journal.create(path, samplePlan()));
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(1)));
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(2)));
    }
    const std::uint64_t full = fileSize(path);
    // Chop into the last record (its payload sits at the end).
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        bytes = buffer.str();
    }
    ASSERT_EQ(bytes.size(), full);
    bytes.resize(bytes.size() - 3);
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    const auto loaded = runner::CheckpointJournal::load(path);
    EXPECT_TRUE(loaded.valid);
    EXPECT_FALSE(loaded.cleanTail);
    ASSERT_EQ(loaded.failedCells.size(), 1u);
    EXPECT_EQ(loaded.failedCells[0].jobIndex, 1u);
}

// ---------------------------------------------------------------------
// Sweep supervision: crash, resume, timeout, quarantine, drain
// ---------------------------------------------------------------------

/** 4-cell grid (2 workloads x 2 prefetchers), small budget. */
runner::SweepRunner
makeGridSweep(runner::SweepOptions options)
{
    SimConfig config;
    config.maxInstrs = 4000;
    options.progress = false;
    runner::SweepRunner sweep(config, std::move(options));
    sweep.addGrid(
        {findWorkload("libquantum.syn"), findWorkload("mcf.syn")},
        {"TPC", "SPP"});
    return sweep;
}

/**
 * Run @p body in a forked child (gtest's process is single-threaded
 * here, so fork without exec is safe) and return its wait status. The
 * abort fault _Exit()s the child exactly like SIGKILL would — nothing
 * is flushed, nothing unwinds.
 */
template <typename Body>
int
runInChild(Body body)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        body();
        std::_Exit(0);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    return status;
}

TEST(FaultTolerance, ResumeAfterCrashMatchesUninterruptedByteForByte)
{
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));

        runner::SweepOptions base_options;
        base_options.jobs = jobs;
        auto baseline_sweep = makeGridSweep(base_options);
        const auto baseline = baseline_sweep.run();
        const std::string baseline_results =
            baseline.store.resultsJson();
        const std::string baseline_csv = baseline.store.toCsv();

        const std::string ckpt =
            tempPath("ckpt_crash_j" + std::to_string(jobs) + ".bin");
        std::remove(ckpt.c_str());

        runner::FaultPlan plan;
        ASSERT_TRUE(runner::FaultPlan::parse("abort@2", plan));

        const int status = runInChild([&] {
            runner::SweepOptions options;
            options.jobs = jobs;
            options.checkpointPath = ckpt;
            options.faultPlan = &plan;
            auto sweep = makeGridSweep(options);
            (void)sweep.run(); // dies at cell 2
        });
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 137);

        runner::SweepOptions resume_options;
        resume_options.jobs = jobs;
        resume_options.checkpointPath = ckpt;
        resume_options.resume = true;
        auto resumed_sweep = makeGridSweep(resume_options);
        const auto resumed = resumed_sweep.run();

        EXPECT_FALSE(resumed.interrupted);
        EXPECT_TRUE(resumed.meta.failedCells.empty());
        if (jobs == 1) {
            // Sequential: cells 0 and 1 journaled before the crash.
            EXPECT_EQ(resumed.meta.resumedJobs, 2u);
        }
        EXPECT_EQ(resumed.store.resultsJson(), baseline_results);
        EXPECT_EQ(resumed.store.toCsv(), baseline_csv);
    }
}

TEST(FaultTolerance, FaultIndexDerivedFromSeedIsDeterministic)
{
    // SplitMix64 step: the kill point is a pure function of the seed,
    // so this scenario replays bit-identically from "seed 0xD01".
    const std::size_t kill_cell = static_cast<std::size_t>(
        dol::splitMix64(0xD01) % 3 + 1); // in [1, 3]: never the first cell

    auto baseline_sweep = makeGridSweep({});
    const std::string baseline_results =
        baseline_sweep.run().store.resultsJson();

    const std::string ckpt = tempPath("ckpt_seeded.bin");
    std::remove(ckpt.c_str());
    runner::FaultPlan plan;
    ASSERT_TRUE(runner::FaultPlan::parse(
        "abort@" + std::to_string(kill_cell), plan));

    const int status = runInChild([&] {
        runner::SweepOptions options;
        options.jobs = 1;
        options.checkpointPath = ckpt;
        options.faultPlan = &plan;
        auto sweep = makeGridSweep(options);
        (void)sweep.run();
    });
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 137);

    const auto loaded = runner::CheckpointJournal::load(ckpt);
    ASSERT_TRUE(loaded.valid);
    EXPECT_EQ(loaded.jobs.size(), kill_cell); // cells [0, kill_cell)

    runner::SweepOptions resume_options;
    resume_options.jobs = 1;
    resume_options.checkpointPath = ckpt;
    resume_options.resume = true;
    auto resumed_sweep = makeGridSweep(resume_options);
    const auto resumed = resumed_sweep.run();
    EXPECT_EQ(resumed.meta.resumedJobs, kill_cell);
    EXPECT_EQ(resumed.store.resultsJson(), baseline_results);
}

TEST(FaultTolerance, ResumeRefusesMismatchedGrid)
{
    const std::string ckpt = tempPath("ckpt_mismatch.bin");
    std::remove(ckpt.c_str());
    {
        runner::SweepOptions options;
        options.checkpointPath = ckpt;
        auto sweep = makeGridSweep(options);
        (void)sweep.run();
    }
    // Same checkpoint, different grid: must refuse, not merge.
    SimConfig config;
    config.maxInstrs = 4000;
    runner::SweepOptions options;
    options.progress = false;
    options.checkpointPath = ckpt;
    options.resume = true;
    runner::SweepRunner sweep(config, options);
    sweep.addGrid({findWorkload("libquantum.syn")}, {"TPC"});
    EXPECT_THROW((void)sweep.run(), std::runtime_error);
}

TEST(FaultTolerance, ThrowingCellIsQuarantinedInFailedCells)
{
    // throw@1 fires every time cell 1 runs: the cell runs once and is
    // quarantined (a --resume without the fault is what re-runs it).
    runner::FaultPlan plan;
    ASSERT_TRUE(runner::FaultPlan::parse("throw@1", plan));
    runner::SweepOptions options;
    options.onError = runner::SweepOptions::OnError::kQuarantine;
    options.faultPlan = &plan;
    auto sweep = makeGridSweep(options);
    const auto report = sweep.run();

    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(report.store.rows().size(), 3u); // sweep completed
    ASSERT_EQ(report.meta.failedCells.size(), 1u);
    const runner::FailedCell &cell = report.meta.failedCells[0];
    EXPECT_EQ(cell.label, "SPP/libquantum.syn");
    EXPECT_EQ(cell.kind, "error");
    EXPECT_NE(cell.error.find("injected fault"), std::string::npos);

    // The quarantine surfaces in the document's failed_cells section.
    const std::string json = report.store.toJson(report.meta);
    EXPECT_NE(json.find("\"failed_cells\": ["), std::string::npos);
    EXPECT_NE(json.find("\"SPP/libquantum.syn\""), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"error\""), std::string::npos);
}

TEST(FaultTolerance, CleanRunDocumentHasNoFailedCellsSection)
{
    auto sweep = makeGridSweep({});
    const auto report = sweep.run();
    const std::string json = report.store.toJson(report.meta);
    EXPECT_EQ(json.find("failed_cells"), std::string::npos);
}

TEST(FaultTolerance, HangingCellTimesOutAndIsQuarantined)
{
    runner::FaultPlan plan;
    ASSERT_TRUE(runner::FaultPlan::parse("hang@1", plan));
    runner::SweepOptions options;
    options.cellTimeoutMs = 150.0;
    options.onError = runner::SweepOptions::OnError::kQuarantine;
    options.faultPlan = &plan;
    auto sweep = makeGridSweep(options);
    const auto report = sweep.run();

    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(report.store.rows().size(), 3u);
    ASSERT_EQ(report.meta.failedCells.size(), 1u);
    EXPECT_EQ(report.meta.failedCells[0].kind, "timeout");
}

TEST(FaultTolerance, PropagateModeRethrowsInjectedFault)
{
    runner::FaultPlan plan;
    ASSERT_TRUE(runner::FaultPlan::parse("throw@0", plan));
    runner::SweepOptions options;
    options.faultPlan = &plan; // default OnError::kPropagate
    auto sweep = makeGridSweep(options);
    EXPECT_THROW((void)sweep.run(), std::runtime_error);
}

TEST(FaultTolerance, StopFaultDrainsAndResumeCompletes)
{
    auto baseline_sweep = makeGridSweep({});
    const std::string baseline_results =
        baseline_sweep.run().store.resultsJson();

    const std::string ckpt = tempPath("ckpt_drain.bin");
    std::remove(ckpt.c_str());
    runner::FaultPlan plan;
    ASSERT_TRUE(runner::FaultPlan::parse("stop@1", plan));

    runner::SweepOptions options;
    options.jobs = 1;
    options.checkpointPath = ckpt;
    options.faultPlan = &plan;
    auto sweep = makeGridSweep(options);
    const auto drained = sweep.run();

    // The stop fault models SIGTERM as cell 1 starts: cell 1 (in
    // flight) finishes and journals, cells 2..3 are skipped.
    EXPECT_TRUE(drained.interrupted);
    EXPECT_EQ(drained.store.rows().size(), 2u);
    const auto loaded = runner::CheckpointJournal::load(ckpt);
    ASSERT_TRUE(loaded.valid);
    EXPECT_EQ(loaded.jobs.size(), 2u);

    runner::SweepOptions resume_options;
    resume_options.jobs = 1;
    resume_options.checkpointPath = ckpt;
    resume_options.resume = true;
    auto resumed_sweep = makeGridSweep(resume_options);
    const auto resumed = resumed_sweep.run();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_EQ(resumed.meta.resumedJobs, 2u);
    EXPECT_EQ(resumed.store.resultsJson(), baseline_results);
}

TEST(FaultTolerance, ExternalStopFlagSkipsQueuedJobs)
{
    std::atomic<bool> stop{true}; // raised before the sweep starts
    runner::SweepOptions options;
    options.jobs = 1;
    options.stopFlag = &stop;
    auto sweep = makeGridSweep(options);
    const auto report = sweep.run();
    EXPECT_TRUE(report.interrupted);
    EXPECT_TRUE(report.store.rows().empty());
    EXPECT_TRUE(report.outputs.empty());
}

// ---------------------------------------------------------------------
// Golden-trace cells across a kill + resume
// ---------------------------------------------------------------------

struct GoldenCell
{
    const char *workload;
    const char *prefetcher;
};

/** Same cells and budget as test_golden_trace.cpp. */
constexpr std::uint64_t kGoldenInstrs = 20000;
const GoldenCell kGoldenCells[] = {
    {"libquantum.syn", "TPC"}, {"mcf.syn", "TPC"},
    {"omnetpp.syn", "TPC"},    {"bfs.syn", "TPC"},
    {"libquantum.syn", "SPP"},
};

std::string
goldenTracePath(const GoldenCell &cell)
{
    return tempPath(std::string("ckpt_golden.") + cell.workload + "." +
                    cell.prefetcher + ".trc");
}

runner::SweepRunner
makeGoldenSweep(runner::SweepOptions options)
{
    SimConfig config;
    config.maxInstrs = kGoldenInstrs;
    options.jobs = 1;
    options.progress = false;
    runner::SweepRunner sweep(config, std::move(options));
    for (const GoldenCell &cell : kGoldenCells) {
        RunOptions run_options;
        run_options.collectCounters = true;
        run_options.tracePath = goldenTracePath(cell);
        sweep.addCell(findWorkload(cell.workload), cell.prefetcher,
                      std::move(run_options));
    }
    return sweep;
}

std::uint64_t
counterValue(const runner::MetricsRow &row, const std::string &scope,
             const std::string &name, bool &found)
{
    for (const auto &[s, n, value] : row.counters.entries()) {
        if (s == scope && n == name) {
            found = true;
            return value;
        }
    }
    found = false;
    return 0;
}

TEST(FaultTolerance, GoldenCellsSurviveKillAndResume)
{
    // Kill a traced 5-cell sweep after cell 2 (cells 0-2 journaled,
    // their DOLTRC01 files already closed), resume, and hold the
    // merged result to the same bar as an uninterrupted run: every
    // per-cell counter snapshot must match tests/golden byte for
    // byte, and every trace file's recomputed digest must match the
    // trace.bytes_fnv64 its cell recorded.
    for (const GoldenCell &cell : kGoldenCells)
        std::remove(goldenTracePath(cell).c_str());
    const std::string ckpt = tempPath("ckpt_golden.bin");
    std::remove(ckpt.c_str());

    runner::FaultPlan plan;
    ASSERT_TRUE(runner::FaultPlan::parse("abort@3", plan));
    const int status = runInChild([&] {
        runner::SweepOptions options;
        options.checkpointPath = ckpt;
        options.faultPlan = &plan;
        auto sweep = makeGoldenSweep(options);
        (void)sweep.run();
    });
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137);
    {
        const auto loaded = runner::CheckpointJournal::load(ckpt);
        ASSERT_TRUE(loaded.valid);
        ASSERT_EQ(loaded.jobs.size(), 3u);
    }

    runner::SweepOptions resume_options;
    resume_options.checkpointPath = ckpt;
    resume_options.resume = true;
    auto sweep = makeGoldenSweep(resume_options);
    const auto report = sweep.run();
    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(report.meta.resumedJobs, 3u);
    const auto rows = report.store.rows();
    ASSERT_EQ(rows.size(), 5u);

    for (std::size_t i = 0; i < rows.size(); ++i) {
        const GoldenCell &cell = kGoldenCells[i];
        SCOPED_TRACE(std::string(cell.workload) + "/" +
                     cell.prefetcher);

        // Counter snapshot, exactly as test_golden_trace renders it.
        std::string fresh = "dol-golden-v1 ";
        fresh += cell.workload;
        fresh += ' ';
        fresh += cell.prefetcher;
        fresh += " instrs=" + std::to_string(kGoldenInstrs) + "\n";
        fresh += rows[i].counters.toText();

        const std::string golden_path = std::string(DOL_GOLDEN_DIR) +
                                        "/" + cell.workload + "." +
                                        cell.prefetcher + ".golden";
        std::ifstream in(golden_path, std::ios::binary);
        ASSERT_TRUE(in.good()) << "missing " << golden_path;
        std::ostringstream golden;
        golden << in.rdbuf();
        EXPECT_EQ(golden.str(), fresh);

        // Trace file digest: recompute FNV-1a over the record bytes
        // (after the 16-byte header) and compare with the counter the
        // cell recorded before the kill / after the resume.
        std::ifstream trc(goldenTracePath(cell), std::ios::binary);
        ASSERT_TRUE(trc.good()) << "missing trace for cell " << i;
        std::ostringstream trace_bytes;
        trace_bytes << trc.rdbuf();
        const std::string &bytes = trace_bytes.str();
        ASSERT_GT(bytes.size(), kTraceHeaderBytes);
        const std::uint64_t digest =
            fnv64(bytes.data() + kTraceHeaderBytes,
                  bytes.size() - kTraceHeaderBytes);
        bool found = false;
        const std::uint64_t recorded =
            counterValue(rows[i], "trace", "bytes_fnv64", found);
        ASSERT_TRUE(found);
        EXPECT_EQ(digest, recorded);
    }
    for (const GoldenCell &cell : kGoldenCells)
        std::remove(goldenTracePath(cell).c_str());
}

// ---------------------------------------------------------------------
// Multi-journal regressions: --merge reads journals other processes
// wrote, so the loader must tolerate records it does not know and
// must never manufacture progress from records it cannot decode.
// ---------------------------------------------------------------------

TEST(CheckpointJournal, UnknownRecordTypesAreSkippedNotTruncated)
{
    const std::string path = tempPath("ckpt_unknown.bin");
    std::remove(path.c_str());
    {
        runner::CheckpointJournal journal;
        ASSERT_TRUE(journal.create(path, samplePlan()));
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(1)));
    }
    // A record type from a future tool version, checksum intact.
    {
        runner::FramedWriter writer;
        std::string error;
        ASSERT_TRUE(writer.openAppend(path, fileSize(path), &error))
            << error;
        ASSERT_TRUE(writer.appendRecord(200, "from-the-future"));
    }

    auto loaded = runner::CheckpointJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    EXPECT_TRUE(loaded.cleanTail) << "unknown is not torn";
    EXPECT_EQ(loaded.goodBytes, fileSize(path))
        << "the clean prefix must span the unknown record, or a "
           "resuming writer would truncate it mid-file";
    ASSERT_EQ(loaded.failedCells.size(), 1u);

    // Appending through the journal keeps the unknown record whole.
    {
        runner::CheckpointJournal journal;
        ASSERT_TRUE(journal.openAppend(path, loaded.goodBytes));
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(2)));
    }
    loaded = runner::CheckpointJournal::load(path);
    ASSERT_TRUE(loaded.valid);
    EXPECT_TRUE(loaded.cleanTail);
    EXPECT_EQ(failedIndices(loaded),
              (std::vector<std::uint64_t>{1, 2}));
}

TEST(CheckpointJournal, UndecodablePayloadEndsCleanPrefixNotACase)
{
    const std::string path = tempPath("ckpt_phantom.bin");
    std::remove(path.c_str());
    {
        runner::CheckpointJournal journal;
        ASSERT_TRUE(journal.create(path, samplePlan()));
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(1)));
    }
    const std::uint64_t before = fileSize(path);
    // A kCellFailed whose checksum verifies but whose payload is 3
    // bytes (an index needs 8): as suspect as a torn tail.
    {
        runner::FramedWriter writer;
        ASSERT_TRUE(writer.openAppend(path, before, nullptr));
        ASSERT_TRUE(writer.appendRecord(
            static_cast<std::uint8_t>(
                runner::JournalRecord::kCellFailed),
            "abc"));
    }

    const auto loaded = runner::CheckpointJournal::load(path);
    ASSERT_TRUE(loaded.valid);
    EXPECT_FALSE(loaded.cleanTail);
    EXPECT_EQ(loaded.goodBytes, before)
        << "a resuming writer must truncate the undecodable record";
    ASSERT_EQ(loaded.failedCells.size(), 1u)
        << "no phantom cell may be manufactured from the payload";
    EXPECT_EQ(loaded.failedCells[0].jobIndex, 1u);
}

TEST(CheckpointJournal, CellFailedRecordsRoundTrip)
{
    const std::string path = tempPath("ckpt_cellfailed.bin");
    std::remove(path.c_str());

    runner::JournalCellFailed failed;
    failed.jobIndex = 2;
    failed.cell.label = "TPC/mcf.syn";
    failed.cell.variant = ":v1";
    failed.cell.seed = 0xfeedfacefeedfaceull;
    failed.cell.kind = "timeout";
    failed.cell.error = "cell deadline expired";
    {
        runner::CheckpointJournal journal;
        ASSERT_TRUE(journal.create(path, samplePlan()));
        ASSERT_TRUE(journal.appendJobDone(sampleJob()));
        ASSERT_TRUE(journal.appendCellFailed(failed));
    }

    const auto loaded = runner::CheckpointJournal::load(path);
    ASSERT_TRUE(loaded.valid) << loaded.error;
    EXPECT_TRUE(loaded.cleanTail);
    ASSERT_EQ(loaded.jobs.size(), 1u);
    ASSERT_EQ(loaded.failedCells.size(), 1u);
    const runner::JournalCellFailed &got = loaded.failedCells[0];
    EXPECT_EQ(got.jobIndex, failed.jobIndex);
    EXPECT_EQ(got.cell.label, failed.cell.label);
    EXPECT_EQ(got.cell.variant, failed.cell.variant);
    EXPECT_EQ(got.cell.seed, failed.cell.seed);
    EXPECT_EQ(got.cell.kind, failed.cell.kind);
    EXPECT_EQ(got.cell.error, failed.cell.error);

    // The payload keeps the retired attempts slot: written as 1, and
    // skipped on read, so a journal written while cells were retried
    // (here: 3 attempts) still decodes to the same cell.
    const auto payloadWithAttempts = [&](std::uint64_t attempts) {
        std::string payload;
        wire::putU64(payload, failed.jobIndex);
        wire::putString(payload, failed.cell.label);
        wire::putString(payload, failed.cell.variant);
        wire::putU64(payload, failed.cell.seed);
        wire::putU64(payload, attempts);
        wire::putString(payload, failed.cell.kind);
        wire::putString(payload, failed.cell.error);
        return payload;
    };
    EXPECT_EQ(runner::encodeCellFailedPayload(failed),
              payloadWithAttempts(1));
    const std::string legacy = payloadWithAttempts(3);
    runner::JournalCellFailed decoded;
    ASSERT_TRUE(runner::decodeCellFailedPayload(legacy, decoded));
    EXPECT_EQ(decoded.jobIndex, failed.jobIndex);
    EXPECT_EQ(decoded.cell.label, failed.cell.label);
    EXPECT_EQ(decoded.cell.kind, failed.cell.kind);
    EXPECT_EQ(decoded.cell.error, failed.cell.error);
}

TEST(FaultTolerance, ResumeReRunsJournaledFailedCells)
{
    runner::SweepOptions base_options;
    base_options.jobs = 1;
    auto baseline_sweep = makeGridSweep(base_options);
    const std::string baseline_results =
        baseline_sweep.run().store.resultsJson();

    const std::string ckpt = tempPath("ckpt_failed_resume.bin");
    std::remove(ckpt.c_str());
    runner::FaultPlan plan;
    ASSERT_TRUE(runner::FaultPlan::parse("throw@2", plan));
    {
        runner::SweepOptions options;
        options.jobs = 1;
        options.checkpointPath = ckpt;
        options.onError = runner::SweepOptions::OnError::kQuarantine;
        options.faultPlan = &plan;
        auto sweep = makeGridSweep(options);
        const auto report = sweep.run();
        ASSERT_EQ(report.meta.failedCells.size(), 1u);
    }
    const auto journal = runner::CheckpointJournal::load(ckpt);
    ASSERT_TRUE(journal.valid) << journal.error;
    EXPECT_TRUE(journal.cleanTail);
    ASSERT_EQ(journal.failedCells.size(), 1u);
    EXPECT_EQ(journal.failedCells[0].jobIndex, 2u);
    EXPECT_EQ(journal.jobs.size(), 3u);

    // Resume without the fault: the journaled failure does not count
    // as done, so the cell re-runs, succeeds, and the document
    // completes byte-identical to the uninterrupted baseline.
    runner::SweepOptions resume_options;
    resume_options.jobs = 1;
    resume_options.checkpointPath = ckpt;
    resume_options.resume = true;
    auto resumed_sweep = makeGridSweep(resume_options);
    const auto resumed = resumed_sweep.run();
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_TRUE(resumed.meta.failedCells.empty());
    EXPECT_EQ(resumed.meta.resumedJobs, 3u);
    EXPECT_EQ(resumed.store.resultsJson(), baseline_results);
}

TEST(CheckpointJournal, OversizedLengthIsATornTailNotAnAllocation)
{
    // A plan plus two failed-cell records, with the high byte of the
    // second record's u32 length set: the reader must stop there as
    // at a torn tail, without zero-filling gigabytes for a payload the
    // file does not hold.
    const std::string path = tempPath("ckpt_oversized.bin");
    {
        runner::CheckpointJournal journal;
        ASSERT_TRUE(journal.create(path, samplePlan()));
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(1)));
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(2)));
    }
    const std::string pristine = readBytes(path);
    // The last record is envelope + payload; its length field starts
    // one byte (the type) into the envelope.
    const std::size_t last =
        pristine.size() - runner::kFrameEnvelopeBytes -
        runner::encodeCellFailedPayload(sampleFailed(2)).size();
    for (const unsigned char high : {0x10, 0x7f, 0xff}) {
        std::string bytes = pristine;
        bytes[last + 4] = static_cast<char>(high);
        writeBytes(path, bytes);

        const long rss_before = peakRssKib();
        const auto loaded = runner::CheckpointJournal::load(path);
        EXPECT_TRUE(loaded.valid);
        EXPECT_FALSE(loaded.cleanTail);
        EXPECT_EQ(loaded.goodBytes, last);
        EXPECT_EQ(failedIndices(loaded), (std::vector<std::uint64_t>{1}));
        // Even the smallest case (0x10) would zero-fill 256 MiB.
        EXPECT_LT(peakRssKib() - rss_before, 64 * 1024)
            << "high byte " << unsigned(high);

        runner::FramedReader reader;
        ASSERT_TRUE(reader.open(path, runner::kCheckpointMagic));
        runner::FramedReader::Record rec;
        int records = 0;
        while (reader.next(rec))
            ++records;
        EXPECT_EQ(records, 2); // plan + first failed cell
        EXPECT_TRUE(reader.tornTail());
        EXPECT_EQ(reader.goodBytes(), last);
    }
}

TEST(CheckpointJournal, MalformedInputsNeverCrashTheReader)
{
    const std::string path = tempPath("ckpt_fuzzed.bin");

    // Seeded mutation fuzz over a healthy journal holding every
    // record kind: truncations, bit flips, splices, and duplicated
    // slices must never crash, hang, throw, or over-allocate, either
    // in load() or in the framing it reads through.
    {
        runner::CheckpointJournal journal;
        ASSERT_TRUE(journal.create(path, samplePlan()));
        ASSERT_TRUE(journal.appendJobDone(sampleJob()));
        ASSERT_TRUE(journal.appendCellFailed(sampleFailed(2)));
    }
    const std::string pristine = readBytes(path);

    std::mt19937_64 rng(0xD01F1EE7ull);
    for (int iteration = 0; iteration < 300; ++iteration) {
        std::string bytes = pristine;
        switch (rng() % 4) {
        case 0: // truncate anywhere, including inside the magic
            bytes.resize(rng() % (bytes.size() + 1));
            break;
        case 1: { // flip a bit
            const std::size_t at = rng() % bytes.size();
            bytes[at] = static_cast<char>(bytes[at] ^
                                          (1u << (rng() % 8)));
            break;
        }
        case 2: { // splice garbage into the middle
            const std::size_t at = rng() % bytes.size();
            std::string junk;
            for (std::size_t i = 0; i < 1 + rng() % 16; ++i)
                junk.push_back(static_cast<char>(rng()));
            bytes.insert(at, junk);
            break;
        }
        default: { // duplicate a slice (repeated records)
            const std::size_t from = rng() % bytes.size();
            const std::size_t len = 1 + rng() % (bytes.size() - from);
            bytes.append(bytes, from, len);
            break;
        }
        }
        writeBytes(path, bytes);

        const auto loaded = runner::CheckpointJournal::load(path);
        EXPECT_TRUE(loaded.fileExists);
        EXPECT_LE(loaded.goodBytes, bytes.size());
        if (!loaded.valid) {
            EXPECT_FALSE(loaded.error.empty())
                << "iteration " << iteration;
        }
        for (const runner::JournalJobDone &job : loaded.jobs)
            EXPECT_LE(job.rows.size(), bytes.size());

        runner::FramedReader reader;
        if (!reader.open(path, runner::kCheckpointMagic)) {
            EXPECT_FALSE(loaded.valid) << "iteration " << iteration;
            continue;
        }
        runner::FramedReader::Record rec;
        std::uint64_t end = runner::kFrameMagicBytes;
        while (reader.next(rec)) {
            end += runner::kFrameEnvelopeBytes + rec.payload.size();
            EXPECT_LE(end, bytes.size()) << "iteration " << iteration;
        }
        EXPECT_EQ(reader.goodBytes(), end);
        // load() may end its clean prefix earlier (at an undecodable
        // payload), never later than the framing allows.
        EXPECT_LE(loaded.goodBytes, reader.goodBytes());
    }
}

TEST(SweepRunner, ExecutesExactlyItsRange)
{
    const std::string ckpt = tempPath("ckpt_range.bin");
    std::remove(ckpt.c_str());
    runner::SweepOptions options;
    options.jobs = 1;
    options.checkpointPath = ckpt;
    options.rangeBegin = 1;
    options.rangeEnd = 3;
    auto sweep = makeGridSweep(options);
    const runner::JournalPlan plan = sweep.plan();
    const auto report = sweep.run();
    EXPECT_FALSE(report.interrupted)
        << "cells outside the range are another shard's, not a drain";
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.store.rows().size(), 2u);

    const auto journal = runner::CheckpointJournal::load(ckpt);
    ASSERT_TRUE(journal.valid) << journal.error;
    ASSERT_TRUE(journal.plan.has_value());
    EXPECT_TRUE(*journal.plan == plan)
        << "a shard journals the full grid's plan";
    std::vector<std::uint64_t> cells;
    for (const runner::JournalJobDone &job : journal.jobs)
        cells.push_back(job.jobIndex);
    EXPECT_EQ(cells, (std::vector<std::uint64_t>{1, 2}));
}

// ---------------------------------------------------------------------
// Fuzz campaigns: one sweep job per case, on the same executor
// ---------------------------------------------------------------------

check::CampaignOptions
smallCampaign(std::uint64_t cases)
{
    check::CampaignOptions options;
    options.cases = cases;
    options.sweep.jobs = 1;
    options.sweep.progress = false;
    return options;
}

TEST(FaultTolerance, CampaignReportsAThrowingCaseAsItsFailure)
{
    // A case that ends without a verdict is quarantined like any cell
    // and named in the summary; the campaign completes around it.
    runner::FaultPlan plan;
    ASSERT_TRUE(runner::FaultPlan::parse("throw@3", plan));
    check::CampaignOptions options = smallCampaign(8);
    options.sweep.faultPlan = &plan;
    const check::CampaignReport report = check::runCampaign(options);
    EXPECT_FALSE(report.interrupted);
    EXPECT_EQ(report.casesRun, 8u);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].index, 3u);
    EXPECT_EQ(report.summaryText(),
              "fuzz campaign: 8 cases, seed 1, 1 failure\n  case 3 (seed " +
                  std::to_string(check::caseSeed(1, 3)) +
                  "): error: injected fault: throw at job 3\n");
}

TEST(FaultTolerance, CampaignResumeRefusesAForeignJournal)
{
    const std::string ckpt = tempPath("ckpt_campaign.bin");
    const check::CampaignOptions base = smallCampaign(2);
    const auto resumeFrom = [&](check::CampaignOptions options) {
        options.sweep.checkpointPath = ckpt;
        options.sweep.resume = true;
        return check::runCampaign(options);
    };

    // A sweep's journal.
    std::remove(ckpt.c_str());
    {
        runner::SweepOptions options;
        options.checkpointPath = ckpt;
        auto sweep = makeGridSweep(options);
        (void)sweep.run();
    }
    EXPECT_THROW((void)resumeFrom(base), std::runtime_error);

    // A journal as the retired campaign code wrote it: its own plan (no
    // instruction budget) and one type-3 record per passing case.
    {
        runner::JournalPlan plan;
        plan.itemCount = base.cases;
        plan.gridHash = 0xcbf29ce484222325ull;
        runner::CheckpointJournal journal;
        ASSERT_TRUE(journal.create(ckpt, plan));
    }
    {
        std::string index;
        wire::putU64(index, 0);
        runner::FramedWriter writer;
        ASSERT_TRUE(writer.openAppend(ckpt, fileSize(ckpt), nullptr));
        ASSERT_TRUE(writer.appendRecord(3, index));
    }
    EXPECT_THROW((void)resumeFrom(base), std::runtime_error);

    // A campaign's own journal resumes; one with another kind, seed,
    // mutation or case count is refused.
    std::remove(ckpt.c_str());
    {
        check::CampaignOptions options = base;
        options.sweep.checkpointPath = ckpt;
        ASSERT_TRUE(check::runCampaign(options).ok());
    }
    check::CampaignOptions other = base;
    other.kind = check::CampaignKind::kAdaptive;
    EXPECT_THROW((void)resumeFrom(other), std::runtime_error);
    other = base;
    other.seed = 2;
    EXPECT_THROW((void)resumeFrom(other), std::runtime_error);
    other = base;
    other.mutation = check::Mutation::kLruVictimOffByOne;
    EXPECT_THROW((void)resumeFrom(other), std::runtime_error);
    other = base;
    other.cases = 3;
    EXPECT_THROW((void)resumeFrom(other), std::runtime_error);
    const check::CampaignReport resumed = resumeFrom(base);
    EXPECT_TRUE(resumed.ok()) << resumed.summaryText();
    EXPECT_EQ(resumed.casesResumed, 2u);
}

} // namespace
