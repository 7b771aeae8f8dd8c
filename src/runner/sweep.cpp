#include "runner/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <thread>

#include "common/cancel.hpp"
#include "common/hash.hpp"
#include "common/wire.hpp"
#include "runner/checkpoint.hpp"
#include "runner/progress.hpp"

namespace dol::runner
{

namespace
{

/** FNV-1a of @p text and a '\x1f' separator, continuing @p hash, so
 *  ("ab","c") and ("a","bc") hash differently. */
std::uint64_t
hashField(std::uint64_t hash, std::string_view text)
{
    const unsigned char separator = 0x1f;
    return fnv64(&separator, 1, fnv64(text.data(), text.size(), hash));
}

} // namespace

std::uint64_t
cellSeed(std::string_view workload, std::string_view prefetcher,
         std::string_view variant)
{
    std::uint64_t hash = kFnv64Basis;
    for (const std::string_view field : {workload, prefetcher, variant})
        hash = hashField(hash, field);
    return hash;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
partitionRange(std::uint64_t count, unsigned parts)
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
    if (count == 0 || parts == 0)
        return ranges;
    const std::uint64_t n = parts < count ? parts : count;
    // First (count % n) ranges take one extra cell.
    const std::uint64_t base = count / n;
    const std::uint64_t extra = count % n;
    std::uint64_t begin = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t size = base + (i < extra ? 1 : 0);
        ranges.emplace_back(begin, begin + size);
        begin += size;
    }
    return ranges;
}

SweepRunner::SweepRunner(const SimConfig &base, SweepOptions options)
    : _base(base), _options(std::move(options))
{}

unsigned
SweepRunner::workerCount() const
{
    if (_options.jobs)
        return _options.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
SweepRunner::addCell(const WorkloadSpec &spec,
                     const std::string &prefetcher,
                     RunOptions run_options, const std::string &variant)
{
    PendingJob job;
    job.label = prefetcher + "/" + spec.name + variant;
    job.variant = variant;
    job.seed = cellSeed(spec.name, prefetcher, variant);
    job.body = [spec, prefetcher, run_options = std::move(run_options)](
                   ExperimentRunner &runner) {
        std::vector<RunOutput> out;
        out.push_back(runner.run(spec, prefetcher, run_options));
        return out;
    };
    _pending.push_back(std::move(job));
}

void
SweepRunner::addGrid(const std::vector<WorkloadSpec> &specs,
                     const std::vector<std::string> &prefetchers,
                     const RunOptions &run_options,
                     const std::string &variant)
{
    for (const WorkloadSpec &spec : specs) {
        for (const std::string &prefetcher : prefetchers)
            addCell(spec, prefetcher, run_options, variant);
    }
}

void
SweepRunner::addJob(const std::string &label, JobBody body,
                    const std::string &variant)
{
    PendingJob job;
    job.label = label;
    job.variant = variant;
    job.seed = cellSeed(label, "", variant);
    job.body = std::move(body);
    _pending.push_back(std::move(job));
}

std::uint64_t
SweepRunner::gridHash(const std::vector<PendingJob> &jobs) const
{
    std::uint64_t hash = kFnv64Basis;
    for (const PendingJob &job : jobs) {
        unsigned char seed[8];
        wire::storeU64(seed, job.seed);
        hash = fnv64(seed, sizeof seed,
                     hashField(hashField(hash, job.label), job.variant));
    }
    return hash;
}

namespace
{

/**
 * Act out one fault site on the worker thread. kThrow and kHang leave
 * via exceptions, kAbort leaves via the process exiting, kStop
 * returns so the job it targets still runs (it models a SIGTERM
 * arriving just as the cell starts: the in-flight cell completes and
 * journals, everything queued behind it drains).
 */
void
injectFault(FaultPlan::Kind kind, std::size_t job_index,
            std::atomic<bool> &stop, const CancelToken &token)
{
    switch (kind) {
    case FaultPlan::Kind::kThrow:
        throw std::runtime_error("injected fault: throw at job " +
                                 std::to_string(job_index));
    case FaultPlan::Kind::kHang:
        for (;;) {
            if (stop.load(std::memory_order_relaxed))
                throw CancelledError(
                    "injected hang interrupted by stop request");
            if (token.expired())
                throw CancelledError(
                    "injected hang exceeded the cell timeout");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    case FaultPlan::Kind::kAbort:
        // No unwinding, no stdio flushing — indistinguishable from
        // SIGKILL except for the exit code.
        std::_Exit(137);
    case FaultPlan::Kind::kStop:
        stop.store(true, std::memory_order_relaxed);
        return;
    }
}

} // namespace

JournalPlan
SweepRunner::plan() const
{
    JournalPlan plan;
    plan.itemCount = _pending.size();
    plan.gridHash = gridHash(_pending);
    plan.maxInstrs = _base.maxInstrs;
    return plan;
}

SweepRunner::Report
SweepRunner::run()
{
    const JournalPlan plan = this->plan();
    std::vector<PendingJob> jobs;
    jobs.swap(_pending);

    std::atomic<bool> private_stop{false};
    std::atomic<bool> &stop =
        _options.stopFlag ? *_options.stopFlag : private_stop;

    enum : std::uint8_t
    {
        kPending, ///< not run (skipped by a drain if the sweep ends)
        kDone,    ///< executed this run
        kResumed, ///< merged from the checkpoint journal
        kFailed,  ///< threw or timed out (quarantined or rethrown)
        kForeign, ///< outside [rangeBegin, rangeEnd): another
                  ///< shard's cells, skipped without "interrupted"
    };
    std::vector<std::uint8_t> state(jobs.size(), kPending);

    // `loaded` owns the records `resumed` points into.
    CheckpointJournal journal;
    CheckpointJournal::Load loaded;
    std::vector<const JournalJobDone *> resumed(jobs.size(), nullptr);
    if (!_options.checkpointPath.empty()) {
        std::string error;
        bool append = false;
        if (_options.resume) {
            loaded = CheckpointJournal::load(_options.checkpointPath);
            if (loaded.fileExists) {
                if (!loaded.valid)
                    throw std::runtime_error(
                        "checkpoint " + _options.checkpointPath +
                        ": " + loaded.error);
                if (!loaded.plan || !(*loaded.plan == plan))
                    throw std::runtime_error(
                        "checkpoint " + _options.checkpointPath +
                        " was written for a different sweep or campaign "
                        "(grid, campaign or instruction budget "
                        "mismatch)");
                for (const JournalJobDone &rec : loaded.jobs) {
                    if (rec.jobIndex < jobs.size() &&
                        !resumed[rec.jobIndex]) {
                        resumed[rec.jobIndex] = &rec;
                        state[rec.jobIndex] = kResumed;
                    }
                }
                append = true;
            }
        }
        const bool opened =
            append ? journal.openAppend(_options.checkpointPath,
                                        loaded.goodBytes, &error)
                   : journal.create(_options.checkpointPath, plan,
                                    &error);
        if (!opened)
            throw std::runtime_error("checkpoint " +
                                     _options.checkpointPath + ": " +
                                     error);
    }

    const std::uint64_t range_end =
        _options.rangeEnd ? _options.rangeEnd : jobs.size();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (state[i] == kPending &&
            (i < _options.rangeBegin || i >= range_end))
            state[i] = kForeign;
    }

    const auto cache = std::make_shared<BaselineCache>();
    ProgressMeter meter(jobs.size(), _options.progress);

    std::vector<std::vector<RunOutput>> per_job(jobs.size());
    std::vector<double> per_job_ms(jobs.size(), 0.0);
    std::vector<FailedCell> failed(jobs.size());
    std::vector<std::exception_ptr> errors(jobs.size());

    // The jobs this run executes, in submission order: neither
    // journaled nor outside this shard's range.
    std::vector<std::size_t> runnable;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (state[i] == kPending)
            runnable.push_back(i);
        else
            meter.onJobSkipped(jobs[i].label);
    }

    // A failed journal append loses that job's record, and a shard's
    // journal is its only output: start no further jobs, and fail the
    // run once the running ones finish.
    std::atomic<bool> journal_failed{false};

    const auto supervise = [&](std::size_t i) {
        // Drain check: once stop is raised, jobs that have not started
        // stay kPending and re-run on resume.
        if (stop.load(std::memory_order_relaxed) || journal_failed)
            return;
        const PendingJob &job = jobs[i];
        const FaultPlan::Site *site =
            _options.faultPlan ? _options.faultPlan->siteFor(i)
                               : nullptr;
        CancelToken sim_token;
        if (_options.cellTimeoutMs > 0.0) {
            sim_token.deadline =
                std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        _options.cellTimeoutMs));
        }
        FailedCell cell;
        std::exception_ptr exception;
        try {
            if (site)
                injectFault(site->kind, i, stop, sim_token);
            // Job-private config: only the seed differs between
            // cells, so shared baselines stay valid.
            SimConfig config = _base;
            config.mem.dram.rngSeed = job.seed;
            ExperimentRunner runner(config, cache);
            if (sim_token.hasDeadline())
                runner.setCancelToken(&sim_token);
            const auto start = std::chrono::steady_clock::now();
            std::vector<RunOutput> outs = job.body(runner);
            per_job_ms[i] = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
            if (journal.isOpen()) {
                JournalJobDone rec;
                rec.jobIndex = i;
                rec.label = job.label;
                rec.variant = job.variant;
                rec.seed = job.seed;
                rec.wallMs = per_job_ms[i];
                rec.rows.reserve(outs.size());
                for (const RunOutput &out : outs)
                    rec.rows.push_back(
                        makeMetricsRow(out, job.variant, job.seed));
                if (!journal.appendJobDone(rec))
                    journal_failed = true;
            }
            per_job[i] = std::move(outs);
            state[i] = kDone;
            meter.onJobDone(job.label, per_job_ms[i]);
            return;
        } catch (const CancelledError &e) {
            if (stop.load(std::memory_order_relaxed))
                return; // drained, not failed: re-runs on resume
            cell.kind = "timeout";
            cell.error = e.what();
            exception = std::current_exception();
        } catch (const std::exception &e) {
            cell.kind = "error";
            cell.error = e.what();
            exception = std::current_exception();
        } catch (...) {
            cell.kind = "error";
            cell.error = "unknown exception";
            exception = std::current_exception();
        }
        state[i] = kFailed;
        if (_options.onError == SweepOptions::OnError::kPropagate) {
            errors[i] = exception;
            return;
        }
        cell.label = job.label;
        cell.variant = job.variant;
        cell.seed = job.seed;
        if (journal.isOpen() && !journal.appendCellFailed({i, cell}))
            journal_failed = true;
        meter.onJobDone(job.label + " [failed]", per_job_ms[i]);
        failed[i] = std::move(cell);
    };

    // Workers take jobs in submission order from one counter, and a
    // sweep starts no more workers than it has jobs to run.
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> escaped(runnable.size());
    {
        const auto work = [&] {
            for (std::size_t k; (k = next.fetch_add(1)) < runnable.size();) {
                try {
                    supervise(runnable[k]);
                } catch (...) {
                    escaped[k] = std::current_exception();
                }
            }
        };
        std::vector<std::jthread> workers(
            std::min<std::size_t>(workerCount(), runnable.size()));
        for (std::jthread &worker : workers)
            worker = std::jthread(work);
    }
    meter.finish();
    journal.close();

    // Supervision catches job errors itself; anything escaping it is
    // an infrastructure bug — surface the first one.
    for (const std::exception_ptr &error : escaped) {
        if (error)
            std::rethrow_exception(error);
    }
    if (journal_failed)
        throw std::runtime_error("checkpoint " +
                                 _options.checkpointPath +
                                 ": cannot append a record");

    // kPropagate: rethrow the first job failure in submission order,
    // after every other job drained (legacy semantics).
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (errors[i])
            std::rethrow_exception(errors[i]);
    }

    // Aggregate in submission order: deterministic regardless of the
    // completion schedule above.
    Report report;
    report.meta.maxInstrs = _base.maxInstrs;
    report.meta.jobs = workerCount();
    report.meta.elapsedSeconds = meter.elapsedSeconds();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        switch (state[i]) {
        case kDone:
            for (RunOutput &out : per_job[i]) {
                report.store.append(makeMetricsRow(
                    out, jobs[i].variant, jobs[i].seed));
                report.meta.wallMs.push_back(per_job_ms[i]);
                report.outputs.push_back(std::move(out));
            }
            break;
        case kResumed:
            for (const MetricsRow &row : resumed[i]->rows) {
                report.store.append(row);
                report.meta.wallMs.push_back(resumed[i]->wallMs);
            }
            ++report.meta.resumedJobs;
            break;
        case kFailed:
            report.meta.failedCells.push_back(std::move(failed[i]));
            break;
        case kForeign:
            // Another shard's cells: absent from this report by
            // design, not an interruption.
            break;
        default:
            report.interrupted = true;
            break;
        }
    }
    return report;
}

} // namespace dol::runner
