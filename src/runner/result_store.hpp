/**
 * @file
 * Thread-safe result aggregation for parallel sweeps.
 *
 * Workers complete cells in schedule-dependent order; the store keeps
 * every row in its pre-assigned grid slot so serialization (CSV, the
 * dol-sweep-v1 JSON document) is always in grid order and therefore
 * byte-identical between `--jobs 1` and `--jobs N` runs. Wall-clock
 * timings are deliberately kept out of the metric rows — they live in
 * a separate, documented-as-nondeterministic "timing" section of the
 * JSON document.
 */

#ifndef DOL_RUNNER_RESULT_STORE_HPP
#define DOL_RUNNER_RESULT_STORE_HPP

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace dol::runner
{

class JsonWriter;

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
 * Serialize one row as its dol-sweep-v1 "results" array element.
 * ResultStore::toJson() and the streaming journal merge both emit rows
 * through this exact function, which is what makes a merged document
 * byte-identical to a single-process one.
 */
void writeMetricsRowJson(JsonWriter &json, const MetricsRow &row);

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

/**
 * The dol-sweep-v1 envelope around the "results" rows. A document is
 * writeSweepHead(), one writeMetricsRowJson() per row, then
 * finishSweepDocument(), which closes "results", writes
 * "failed_cells" (only when non-empty) and "timing", and returns the
 * writer's remaining text, newline-terminated. ResultStore::toJson()
 * and the streaming journal merge both write through this pair, so a
 * merged document is byte-identical to a single-process one.
 */
void writeSweepHead(JsonWriter &json, const SweepMeta &meta);
std::string finishSweepDocument(JsonWriter &json, const SweepMeta &meta);

class ResultStore
{
  public:
    ResultStore() = default;

    /** Pre-size the grid: every row index must be < slots. */
    explicit ResultStore(std::size_t slots) { resize(slots); }

    /** Movable (fresh mutex); the source must be quiescent. */
    ResultStore(ResultStore &&other) noexcept;
    ResultStore &operator=(ResultStore &&other) noexcept;

    void resize(std::size_t slots);
    std::size_t size() const;

    /** Place @p row into grid slot @p index. Thread-safe. */
    void set(std::size_t index, MetricsRow row);

    /** Append a row at the end. Thread-safe. */
    void append(MetricsRow row);

    /** Snapshot of all filled rows, grid order. */
    std::vector<MetricsRow> rows() const;

    static const char *csvHeader();
    static std::string csvLine(const MetricsRow &row);

    /** Whole store as CSV (header + rows, grid order). */
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
    mutable std::mutex _mutex;
    std::vector<MetricsRow> _rows;
    std::vector<bool> _filled;
};

} // namespace dol::runner

#endif // DOL_RUNNER_RESULT_STORE_HPP
