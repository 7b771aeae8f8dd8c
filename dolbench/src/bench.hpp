/**
 * @file
 * Shared declarations of the repository benchmark: the three sweep
 * workloads, host clocks, and the JSON output the measuring program uses
 * to hand raw measurements to dolbench/run.py.
 */

#ifndef DOLBENCH_BENCH_HPP
#define DOLBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "mem/dram.hpp"
#include "runner/json_writer.hpp"
#include "runner/result_store.hpp"
#include "sim/experiment.hpp"
#include "workloads/contention.hpp"
#include "workloads/suite.hpp"

namespace dolbench
{

// Clocks -------------------------------------------------------------

/** Wall clock, seconds (steady). */
inline double
wallS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the calling thread, seconds. */
inline double
threadCpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** CLOCK_MONOTONIC in ns: comparable across processes on one host. */
inline std::int64_t
monotonicNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 +
           ts.tv_nsec;
}

inline double
tvS(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/** user+sys CPU seconds of this process (all threads). */
inline double
processCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return tvS(ru.ru_utime) + tvS(ru.ru_stime);
}

/** user+sys CPU seconds of reaped child processes (xz decoders). */
inline double
childCpuS()
{
    rusage ru{};
    getrusage(RUSAGE_CHILDREN, &ru);
    return tvS(ru.ru_utime) + tvS(ru.ru_stime);
}

inline long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

// Workloads ----------------------------------------------------------

/** One benchmark workload: a serial sweep run inside one process. */
struct WorkloadDef
{
    std::string name;
    /** Instruction budget of every run in the sweep. */
    std::uint64_t instrs = 0;
};

/** The seed picks one of this many variant labels (":s<k>"). */
constexpr unsigned kSeedVariants = 8;

const WorkloadDef *findWorkloadDef(const std::string &name);

/** One sweep job: a grid cell, or a contention-mix job. */
struct Cell
{
    /** SweepRunner job label ("<pf>/<workload><variant>" or
     *  "mix:<name>"). */
    std::string label;
    /** Variant label, seed suffix included. */
    std::string variant;
    /** Variant label without the seed suffix (the pin key's part). */
    std::string pinVariant;

    /** Grid cells. */
    dol::WorkloadSpec spec;
    std::string prefetcher;
    dol::RunOptions options;

    /** Contention jobs (nullptr for grid cells). */
    const dol::ContentionMix *mix = nullptr;
    dol::ArbitrationPolicy arbitration =
        dol::ArbitrationPolicy::kDemandFirst;

    /** Pin key: workload|prefetcher|variant-without-seed, as the
     *  row names them. */
    std::string pinKey() const;
};

/** Expand @p def into its jobs, labelled for seed variant @p k. */
std::vector<Cell> buildCells(const WorkloadDef &def, unsigned k);

/** FNV-1a 64 of @p row serialized as a one-entry dol-sweep-v1
 *  "results" array, hex. */
std::string rowDigest(const dol::runner::MetricsRow &row);

/** Simulated instructions a job ran: the row's own plus, for a mix,
 *  the solo baseline runs (same per-core budgets). Grid baselines are
 *  counted per workload by the caller. */
std::uint64_t jobInstructions(const dol::RunOutput &out,
                              const Cell &cell);

// Output -------------------------------------------------------------

/** Raw measurements go to run.py as compact JSON. */
using Json = dol::runner::JsonWriter;

/** Write @p text to @p path; false on I/O error. */
bool writeFile(const std::string &path, const std::string &text);

// Modes --------------------------------------------------------------

struct Args
{
    std::string mode;
    std::string workload;
    unsigned variant = 0;
    double seconds = 0.0;
    std::string out;
    std::string spans;
    std::int64_t t0Ns = 0;
    /** Trace mode: cell index whose replay is checked against an
     *  altered row (gate self-test); -1 for none. */
    std::int64_t plantMismatch = -1;
};

/** Untraced sweeps for `seconds` (end-to-end metrics). */
int runMeasure(const WorkloadDef &def, const Args &args);

/** One fresh-process set-up: process start to the first job body. */
int runSetup(const WorkloadDef &def, const Args &args);

/** Traced run: spans, sampled prefetcher hooks, layer replays. */
int runTraced(const WorkloadDef &def, const Args &args);

} // namespace dolbench

#endif // DOLBENCH_BENCH_HPP
