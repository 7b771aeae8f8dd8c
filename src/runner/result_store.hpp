/**
 * @file
 * The metric rows of a sweep and their serializations (CSV and the
 * dol-sweep-v1 JSON document).
 *
 * A ResultStore is a plain list of rows in append order. Its callers
 * append in grid order — SweepRunner::run() after its workers finish,
 * the journal merge in cell order — so the serializations are
 * byte-identical between `--jobs 1` and `--jobs N` runs and between
 * a merged and a single-process sweep. Wall-clock timings are
 * deliberately kept out of the metric rows — they live in a
 * separate, documented-as-nondeterministic "timing" section of the
 * JSON document.
 */

#ifndef DOL_RUNNER_RESULT_STORE_HPP
#define DOL_RUNNER_RESULT_STORE_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"

namespace dol::runner
{

/** One flattened (workload, prefetcher, config) metric row. */
struct MetricsRow
{
    std::string workload;
    std::string prefetcher;
    /** Config variant label (e.g. ":L1", destination policy). */
    std::string variant;
    /** Deterministic per-cell seed the job ran with. */
    std::uint64_t seed = 0;

    double baselineIpc = 0.0;
    double ipc = 0.0;
    double speedup = 1.0;
    double baselineMpkiL1 = 0.0;
    std::uint64_t prefetchesIssued = 0;
    double scope = 0.0;
    double effAccuracyL1 = 0.0;
    double effCoverageL1 = 0.0;
    double effAccuracyL2 = 0.0;
    double effCoverageL2 = 0.0;
    double trafficNormalized = 1.0;
    std::uint64_t instructions = 0;

    /** Optional end-of-run counter snapshot (dolsim --counters);
     *  serialized as the row's "counters" JSON object when non-empty. */
    CounterRegistry counters;
};

/** Flatten a RunOutput into a metric row. */
MetricsRow makeMetricsRow(const RunOutput &out,
                          const std::string &variant,
                          std::uint64_t seed);

/**
 * A quarantined cell: it threw or timed out. The sweep completes
 * around it; the document records the loss explicitly instead of
 * aborting, and `--resume` re-runs it.
 */
struct FailedCell
{
    std::string label;
    std::string variant;
    std::uint64_t seed = 0;
    /** "error" (threw) or "timeout" (cell deadline expired). */
    std::string kind;
    /** what() of the cell's exception. */
    std::string error;
};

/** Sweep-level metadata serialized into the JSON header and tail. */
struct SweepMeta
{
    std::string generator = "dolsim";
    std::uint64_t maxInstrs = 0;
    unsigned jobs = 1;
    /** Total sweep wall-clock (nondeterministic; timing section). */
    double elapsedSeconds = 0.0;
    /** Per-row wall milliseconds, grid order (timing section). */
    std::vector<double> wallMs;
    /** Jobs merged from a checkpoint instead of re-run (timing
     *  section: deterministic results stay byte-identical). */
    std::uint64_t resumedJobs = 0;
    /** Quarantined cells, submission order. Serialized as the
     *  "failed_cells" array — only when non-empty, so documents from
     *  clean sweeps keep their exact historical bytes. */
    std::vector<FailedCell> failedCells;
};

class ResultStore
{
  public:
    /** Append a row at the end. */
    void append(MetricsRow row) { _rows.push_back(std::move(row)); }

    /** Every row, in append order. */
    const std::vector<MetricsRow> &rows() const { return _rows; }

    static const char *csvHeader();
    static std::string csvLine(const MetricsRow &row);

    /** Whole store as CSV (header + rows, append order). */
    std::string toCsv() const;

    /**
     * Whole store as a dol-sweep-v1 JSON document. The "results"
     * array is deterministic for a given grid; "timing" is not.
     */
    std::string toJson(const SweepMeta &meta) const;

    /** Just the deterministic "results" array (determinism checks). */
    std::string resultsJson() const;

    /** Write toJson() to a file; false on I/O error. */
    bool writeJsonFile(const std::string &path,
                       const SweepMeta &meta) const;

  private:
    std::vector<MetricsRow> _rows;
};

} // namespace dol::runner

#endif // DOL_RUNNER_RESULT_STORE_HPP
