/**
 * @file
 * One benchmark sweep through the public SweepRunner API, with the
 * clocks read only at job boundaries.
 */

#ifndef DOLBENCH_SWEEP_HPP
#define DOLBENCH_SWEEP_HPP

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "runner/sweep.hpp"

namespace dolbench
{

/** Job-boundary timings of one job (seconds). */
struct JobTimes
{
    double start = 0.0; ///< wall, job body entry
    double end = 0.0;   ///< wall, job body exit
    /** Thread CPU and wall inside ExperimentRunner::baseline (grid
     *  cells) — computing it, waiting for it, or a cache hit. */
    double baselineCpu = 0.0;
    double baselineWall = 0.0;
    /** The cell proper: ExperimentRunner::run for a grid cell, the
     *  whole job for a mix. Thread CPU plus reaped children (the xz
     *  decoder of .xz ChampSim traces). */
    double cellCpu = 0.0;
    double cellWall = 0.0;
    /** Child-process CPU inside the baseline call and the cell. */
    double baselineChildCpu = 0.0;
    double cellChildCpu = 0.0;
    bool done = false;
};

/**
 * Runs one cell on a sweep worker. The default body calls
 * ExperimentRunner::baseline then ::run (or runContentionScenario) and
 * fills @p times.
 */
using CellBody = std::function<dol::RunOutput(
    dol::ExperimentRunner &, const Cell &, JobTimes &times)>;

/** The untraced job body. */
dol::RunOutput defaultCellBody(dol::ExperimentRunner &runner,
                               const Cell &cell, JobTimes &times);

struct SweepResult
{
    double wall = 0.0;     ///< SweepRunner::run wall seconds
    double cpu = 0.0;      ///< process user+sys during the sweep
    double childCpu = 0.0; ///< reaped-children CPU during the sweep
    double start = 0.0;    ///< wall at SweepRunner::run entry
    std::vector<JobTimes> jobs;
    /** Output of each job that completed (nullptr otherwise). */
    std::vector<const dol::RunOutput *> outputs;
    /** Digest of each completed job's row in report.store ("" otherwise). */
    std::vector<std::string> digests;
    /** The per-cell seed SweepRunner gave each completed job (its
     *  row's `seed`; the DRAM drop-RNG seed), 0 otherwise. */
    std::vector<std::uint64_t> seeds;
    std::vector<dol::runner::FailedCell> failed;
    /** Simulated instructions: cells, grid baselines, solo runs. */
    std::uint64_t simInstructions = 0;
    dol::runner::SweepRunner::Report report;
};

/**
 * Queue @p cells on a fresh one-worker SweepRunner and run them, job i
 * pinned to allowed CPU (i + @p rotation) mod count. @p on_first
 * (optional) runs on the worker that enters the first job body.
 */
SweepResult runSweep(const WorkloadDef &def,
                     const std::vector<Cell> &cells, unsigned rotation = 0,
                     const CellBody &body = defaultCellBody,
                     const std::function<void()> &on_first = {},
                     std::atomic<bool> *stop = nullptr);

} // namespace dolbench

#endif // DOLBENCH_SWEEP_HPP
