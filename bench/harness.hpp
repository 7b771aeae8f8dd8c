/**
 * @file
 * Scaffolding for the bench program.
 *
 * The program queues its (workload, prefetcher, variant) cells — or
 * custom jobs for dependent/multicore flows — on a Collector, then
 * calls benchMain(), which runs the whole grid in parallel on the
 * runner subsystem (SweepRunner): deterministic per-cell seeding, a
 * shared baseline cache, per-job wall time and a live progress line.
 * Results land in registration order regardless of worker count, so
 * the paper-style summary tables are bit-identical for any --jobs N.
 *
 * Flags: --jobs N (default: hardware threads), --json FILE
 * (dol-sweep-v1 structured results), --quiet.
 */

#ifndef DOL_BENCH_HARNESS_HPP
#define DOL_BENCH_HARNESS_HPP

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "metrics/table.hpp"
#include "runner/cli.hpp"
#include "runner/sweep.hpp"
#include "sim/experiment.hpp"
#include "workloads/suite.hpp"

namespace dol::bench
{

/** Queued sweep + result store; single-core cells run 200k
 *  instructions (DOL_QUICK=1: 60k). */
class Collector
{
  public:
    Collector() : _sweep(makeBenchConfig(200000)) {}

    /** Queue one plain (workload, prefetcher) cell. */
    void
    addCell(const WorkloadSpec &spec, const std::string &prefetcher,
            RunOptions options = {},
            const std::string &label_suffix = "")
    {
        _sweep.addCell(spec, prefetcher, std::move(options),
                       label_suffix);
    }

    /**
     * Queue a custom job (multicore mixes, dependent run chains).
     * The body runs on a worker with a job-private ExperimentRunner
     * sharing the sweep's baseline cache; returned outputs are
     * recorded in registration order under @p variant.
     */
    void
    addJob(const std::string &label, runner::JobBody body,
           const std::string &variant = "")
    {
        _sweep.addJob(label, std::move(body), variant);
    }

    /** Execute every queued job. */
    void
    runAll(runner::SweepOptions options)
    {
        _sweep.setOptions(options);
        runner::SweepRunner::Report report = _sweep.run();
        _outputs = std::move(report.outputs);
        _store = std::move(report.store);
        _meta = std::move(report.meta);
        _meta.generator = "bench";
    }

    const runner::ResultStore &store() const { return _store; }
    const runner::SweepMeta &meta() const { return _meta; }

    /** All results of one (prefetcher, variant), in registration
     *  order. _outputs[i] is the run behind store().rows()[i]. */
    std::vector<const RunOutput *>
    byPrefetcher(const std::string &name,
                 const std::string &variant = "") const
    {
        std::vector<const RunOutput *> out;
        for (std::size_t i = 0; i < _outputs.size(); ++i) {
            if (_outputs[i].prefetcher == name &&
                _store.rows()[i].variant == variant)
                out.push_back(&_outputs[i]);
        }
        return out;
    }

    /** byPrefetcher(name)'s runs of the SPEC-like suite, the grid of
     *  Figures 1, 8, 9, 10, 12 and 13, in speclikeSuite() order. */
    std::vector<const RunOutput *>
    specRuns(const std::string &name) const
    {
        std::vector<const RunOutput *> out;
        for (const RunOutput *run : byPrefetcher(name)) {
            if (findWorkload(run->workload).suite == "spec")
                out.push_back(run);
        }
        return out;
    }

    /** SPEC-like suite geomean speedup (Fig. 8). */
    double
    geomeanSpeedup(const std::string &name) const
    {
        std::vector<double> speedups;
        for (const RunOutput *run : specRuns(name))
            speedups.push_back(std::max(run->speedup(), 1e-6));
        return geomean(speedups);
    }

    /** Suite-wide average weighted by prefetches issued (Fig. 10). */
    double
    weightedAccuracy(const std::string &name) const
    {
        double num = 0.0, den = 0.0;
        for (const RunOutput *run : specRuns(name)) {
            num += run->effAccuracyL1 *
                   static_cast<double>(run->prefetchesIssued);
            den += static_cast<double>(run->prefetchesIssued);
        }
        return den > 0 ? num / den : 0.0;
    }

    /** Suite-wide scope weighted by baseline MPKI (Fig. 10/12). */
    double
    weightedScope(const std::string &name) const
    {
        double num = 0.0, den = 0.0;
        for (const RunOutput *run : specRuns(name)) {
            num += run->scope * run->baselineMpkiL1;
            den += run->baselineMpkiL1;
        }
        return den > 0 ? num / den : 0.0;
    }

  private:
    runner::SweepRunner _sweep;
    std::vector<RunOutput> _outputs;
    runner::ResultStore _store;
    runner::SweepMeta _meta;
};

/**
 * Standard bench main: run the queued sweep in parallel, then print
 * the summary tables. Unknown arguments, and a --json file that
 * cannot be written, are an error (exit status 1).
 */
inline int
benchMain(int argc, char **argv, Collector *collector,
          const std::function<void()> &summary)
{
    runner::SweepOptions sweep_options;
    std::string json_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            // Strict, like dolsim: "-1" must not wrap to four billion
            // workers, nor "abc" silently mean "all cores".
            const std::string value = argv[++i];
            std::uint64_t jobs = 0;
            if (!runner::parseUnsignedInRange(value, 0, 4096, jobs)) {
                std::fprintf(stderr,
                             "%s: bad --jobs value: '%s' (0-4096)\n",
                             argv[0], value.c_str());
                return 1;
            }
            sweep_options.jobs = static_cast<unsigned>(jobs);
        } else if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg == "--quiet") {
            sweep_options.progress = false;
        } else {
            std::fprintf(stderr,
                         "%s: unrecognized argument '%s' (flags: "
                         "--jobs N, --json FILE, --quiet)\n",
                         argv[0], arg.c_str());
            return 1;
        }
    }

    collector->runAll(sweep_options);

    if (!json_path.empty()) {
        if (!collector->store().writeJsonFile(json_path,
                                              collector->meta())) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
    }

    summary();
    return 0;
}

} // namespace dol::bench

#endif // DOL_BENCH_HARNESS_HPP
