/**
 * @file
 * SweepRunner: expands a declarative (workload × prefetcher ×
 * config) grid into jobs, runs them on worker threads that take jobs
 * in submission order from one counter, and aggregates results in
 * grid order.
 *
 * Determinism contract: each job's seed derives from its cell key
 * (workload, prefetcher, variant) — never from the thread schedule —
 * and per-job simulator state (kernel, memory hierarchy, DRAM drop
 * RNG) is private to the job, so `--jobs 1` and `--jobs 16` produce
 * bit-identical metric rows. Baseline runs are shared through a
 * thread-safe per-sweep cache: the first job needing a workload's
 * baseline computes it once, everyone else blocks on the same future.
 *
 * Fault tolerance (all opt-in through SweepOptions):
 *  - checkpointPath journals every completed job (rows + counters,
 *    fsync'd) and every quarantined cell through a CheckpointJournal;
 *    resume=true skips the completed jobs, re-runs the quarantined
 *    ones, and merges the journaled rows back so the final document
 *    is byte-identical to an uninterrupted run's deterministic parts.
 *    A failed append (a full disk) starts no further jobs, and run()
 *    throws once the running ones finish: a shard's journal is its
 *    only output, so a lost record must not pass as success.
 *  - cellTimeoutMs arms a per-cell cooperative deadline (the
 *    simulator polls it every few thousand instructions). A cell that
 *    throws or times out runs once: with onError = kQuarantine it is
 *    recorded in Report::meta.failedCells and the sweep completes
 *    around it; the default kPropagate rethrows after the drain. A
 *    cell's result is a pure function of its key, so there is no
 *    in-process retry — `--resume` is how a quarantined cell re-runs.
 *  - stopFlag is polled before each job starts: once raised (signal
 *    handler, fault plan, or test), in-flight jobs finish and are
 *    journaled, queued jobs are skipped, and run() returns an
 *    interrupted, resumable report.
 *  - faultPlan deterministically injects throw/hang/abort/stop faults
 *    into worker jobs for the crash-safety tests.
 *
 * The same executor runs the fuzz campaigns (check/campaign.hpp): one
 * addJob per case, so every campaign kind shares this journal, drain
 * and fault injection.
 */

#ifndef DOL_RUNNER_SWEEP_HPP
#define DOL_RUNNER_SWEEP_HPP

#include <atomic>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "runner/checkpoint.hpp"
#include "runner/fault.hpp"
#include "runner/result_store.hpp"
#include "sim/experiment.hpp"
#include "workloads/suite.hpp"

namespace dol::runner
{

/**
 * Deterministic per-cell seed: FNV-1a over the cell key. Identical
 * on every platform and independent of scheduling.
 */
std::uint64_t cellSeed(std::string_view workload,
                       std::string_view prefetcher,
                       std::string_view variant = "");

/**
 * Split @p count cells into at most @p parts contiguous, non-empty,
 * balanced [begin, end) ranges that exactly cover [0, count) in
 * order. Fewer than @p parts ranges come back when count < parts;
 * count == 0 yields no ranges. `dolsim --shard i/N` runs range i.
 */
std::vector<std::pair<std::uint64_t, std::uint64_t>>
partitionRange(std::uint64_t count, unsigned parts);

struct SweepOptions
{
    /** Worker threads; 0 = hardware concurrency. run() starts no
     *  more workers than it has jobs to run. */
    unsigned jobs = 0;
    /** Print the live progress line to stderr. */
    bool progress = true;

    /** Journal completed jobs here; empty = no checkpointing. */
    std::string checkpointPath;
    /** Load checkpointPath first and skip the jobs it records. A
     *  missing/empty journal resumes nothing; a journal written for a
     *  different grid is an error. */
    bool resume = false;

    /** Per-cell wall-clock budget in ms; 0 = none. Cooperative:
     *  enforced at simulator cancellation points. */
    double cellTimeoutMs = 0.0;

    enum class OnError
    {
        /** Rethrow the first job error from run() after draining. */
        kPropagate,
        /** Complete the sweep; record the cell in failedCells. */
        kQuarantine,
    };
    OnError onError = OnError::kPropagate;

    /** Graceful-drain flag (e.g. &signalStopFlag()); may also be
     *  raised by a stop@K fault. nullptr = sweep-private flag. */
    std::atomic<bool> *stopFlag = nullptr;

    /** Deterministic fault injection (tests); nullptr = none. */
    const FaultPlan *faultPlan = nullptr;

    /** Execute only jobs [rangeBegin, rangeEnd) of the queued grid —
     *  one shard of a sharded sweep. Jobs outside the range are
     *  skipped without marking the sweep interrupted, and the journal
     *  plan still describes the full grid, so every shard's journal
     *  shares one identity and their records merge by job index.
     *  rangeEnd = 0 means "to the end of the grid". */
    std::uint64_t rangeBegin = 0;
    std::uint64_t rangeEnd = 0;
};

/**
 * A job body runs on a worker with a job-private ExperimentRunner
 * (seeded per the cell key, sharing the sweep's baseline cache) and
 * returns the outputs to record, in order. Simple grid cells return
 * exactly one output; composite jobs (e.g. a dependent
 * baseline→measure chain) may return several or none.
 */
using JobBody =
    std::function<std::vector<RunOutput>(ExperimentRunner &)>;

class SweepRunner
{
  public:
    explicit SweepRunner(const SimConfig &base,
                         SweepOptions options = {});

    /** Replace the execution options (worker count, progress). */
    void setOptions(SweepOptions options)
    {
        _options = std::move(options);
    }

    /** One (workload, prefetcher) cell with optional run options. */
    void addCell(const WorkloadSpec &spec,
                 const std::string &prefetcher,
                 RunOptions run_options = {},
                 const std::string &variant = "");

    /** Full cross product: every workload × every prefetcher. */
    void addGrid(const std::vector<WorkloadSpec> &specs,
                 const std::vector<std::string> &prefetchers,
                 const RunOptions &run_options = {},
                 const std::string &variant = "");

    /**
     * Custom job for flows that don't fit a plain cell (multicore
     * mixes, dependent run chains). Outputs land in submission order
     * like any other job's.
     */
    void addJob(const std::string &label, JobBody body,
                const std::string &variant = "");

    struct Report
    {
        /** Outputs of jobs executed this run, flattened in submission
         *  order. Jobs merged from a checkpoint contribute metric
         *  rows to `store` but no RunOutput (the journal keeps rows,
         *  not full simulator state). */
        std::vector<RunOutput> outputs;
        /** Flattened metric rows, appended in grid order once the
         *  workers finished — executed and resumed jobs alike. */
        ResultStore store;
        /** Header/timing info for ResultStore::toJson(), including
         *  failedCells and the resumed-job count. */
        SweepMeta meta;
        /** A stop request drained the sweep early; the skipped jobs
         *  are absent from `store` and the checkpoint can resume
         *  them. */
        bool interrupted = false;

        bool ok() const
        {
            return !interrupted && meta.failedCells.empty();
        }
    };

    /**
     * Execute all queued jobs. Blocks until the sweep completes or
     * drains. In kPropagate mode an exception thrown by a job body
     * is rethrown here once every other job drained;
     * in kQuarantine mode failures land in meta.failedCells instead.
     * Throws when the checkpoint cannot be opened, belongs to another
     * grid, or fails an append.
     * The queue is consumed: a second run() starts empty.
     */
    Report run();

    std::size_t pendingJobs() const { return _pending.size(); }

    /** Journal identity of the currently queued grid — exactly what
     *  run() writes as the kPlan record. */
    JournalPlan plan() const;

    /** Resolved worker count (options.jobs or hw concurrency). */
    unsigned workerCount() const;

  private:
    struct PendingJob
    {
        std::string label;
        std::string variant;
        std::uint64_t seed;
        JobBody body;
    };

    /** FNV-1a over every pending job's (label, variant, seed):
     *  identifies the grid a checkpoint belongs to. */
    std::uint64_t gridHash(const std::vector<PendingJob> &jobs) const;

    SimConfig _base;
    SweepOptions _options;
    std::vector<PendingJob> _pending;
};

} // namespace dol::runner

#endif // DOL_RUNNER_SWEEP_HPP
