#include "runner/result_store.hpp"

#include <cstdio>

#include "runner/json_writer.hpp"

namespace dol::runner
{

MetricsRow
makeMetricsRow(const RunOutput &out, const std::string &variant,
               std::uint64_t seed)
{
    MetricsRow row;
    row.workload = out.workload;
    row.prefetcher = out.prefetcher;
    row.variant = variant;
    row.seed = seed;
    row.baselineIpc = out.baselineIpc;
    row.ipc = out.ipc;
    row.speedup = out.speedup();
    row.baselineMpkiL1 = out.baselineMpkiL1;
    row.prefetchesIssued = out.prefetchesIssued;
    row.scope = out.scope;
    row.effAccuracyL1 = out.effAccuracyL1;
    row.effCoverageL1 = out.effCoverageL1;
    row.effAccuracyL2 = out.effAccuracyL2;
    row.effCoverageL2 = out.effCoverageL2;
    row.trafficNormalized = out.trafficNormalized;
    row.instructions = out.instructions;
    row.counters = out.counters;
    return row;
}

const char *
ResultStore::csvHeader()
{
    return "workload,prefetcher,variant,seed,baseline_ipc,ipc,speedup,"
           "mpki,issued,scope,acc_l1,cov_l1,acc_l2,cov_l2,traffic,"
           "instructions";
}

std::string
ResultStore::csvLine(const MetricsRow &row)
{
    char buffer[512];
    std::snprintf(
        buffer, sizeof buffer,
        "%s,%s,%s,%llu,%.4f,%.4f,%.4f,%.2f,%llu,%.4f,%.4f,%.4f,%.4f,"
        "%.4f,%.4f,%llu",
        row.workload.c_str(), row.prefetcher.c_str(),
        row.variant.c_str(),
        static_cast<unsigned long long>(row.seed), row.baselineIpc,
        row.ipc, row.speedup, row.baselineMpkiL1,
        static_cast<unsigned long long>(row.prefetchesIssued),
        row.scope, row.effAccuracyL1, row.effCoverageL1,
        row.effAccuracyL2, row.effCoverageL2, row.trafficNormalized,
        static_cast<unsigned long long>(row.instructions));
    return buffer;
}

std::string
ResultStore::toCsv() const
{
    std::string out = csvHeader();
    out.push_back('\n');
    for (const MetricsRow &row : rows()) {
        out += csvLine(row);
        out.push_back('\n');
    }
    return out;
}

namespace
{

/** One dol-sweep-v1 "results" array element. */
void
writeMetricsRowJson(JsonWriter &json, const MetricsRow &row)
{
    json.beginObject();
    json.field("workload", row.workload);
    json.field("prefetcher", row.prefetcher);
    json.field("variant", row.variant);
    json.field("seed", row.seed);
    json.key("metrics").beginObject();
    json.field("baseline_ipc", row.baselineIpc);
    json.field("ipc", row.ipc);
    json.field("speedup", row.speedup);
    json.field("baseline_mpki_l1", row.baselineMpkiL1);
    json.field("prefetches_issued", row.prefetchesIssued);
    json.field("scope", row.scope);
    json.field("eff_accuracy_l1", row.effAccuracyL1);
    json.field("eff_coverage_l1", row.effCoverageL1);
    json.field("eff_accuracy_l2", row.effAccuracyL2);
    json.field("eff_coverage_l2", row.effCoverageL2);
    json.field("traffic_normalized", row.trafficNormalized);
    json.field("instructions", row.instructions);
    json.endObject();
    if (!row.counters.empty()) {
        // Sorted by (scope, name): deterministic like "results".
        json.key("counters").beginObject();
        for (const auto &[name, value] : row.counters.sorted())
            json.field(name, value);
        json.endObject();
    }
    json.endObject();
}

/** One "failed_cells" array element. */
void
writeFailedCellJson(JsonWriter &json, const FailedCell &cell)
{
    json.beginObject();
    json.field("label", cell.label);
    json.field("variant", cell.variant);
    json.field("seed", cell.seed);
    json.field("kind", cell.kind);
    json.field("error", cell.error);
    json.endObject();
}

} // namespace

std::string
ResultStore::resultsJson() const
{
    JsonWriter json;
    json.beginArray();
    for (const MetricsRow &row : rows())
        writeMetricsRowJson(json, row);
    json.endArray();
    return json.take();
}

std::string
ResultStore::toJson(const SweepMeta &meta) const
{
    JsonWriter json;
    json.beginObject();
    json.field("schema", "dol-sweep-v1");
    json.field("generator", meta.generator);
    json.key("config").beginObject();
    json.field("max_instrs", meta.maxInstrs);
    json.endObject();
    json.key("results").beginArray();
    for (const MetricsRow &row : rows())
        writeMetricsRowJson(json, row);
    json.endArray();

    // Quarantined cells. Emitted only when present: a clean sweep's
    // document is byte-identical to one produced before fault
    // tolerance existed.
    if (!meta.failedCells.empty()) {
        json.key("failed_cells").beginArray();
        for (const FailedCell &cell : meta.failedCells)
            writeFailedCellJson(json, cell);
        json.endArray();
    }

    // Everything below is wall-clock dependent and excluded from the
    // determinism contract (see README "JSON schema").
    json.key("timing").beginObject();
    json.field("jobs", meta.jobs);
    json.field("elapsed_seconds", meta.elapsedSeconds);
    json.field("resumed_jobs", meta.resumedJobs);
    json.key("wall_ms").beginArray();
    for (const double ms : meta.wallMs)
        json.value(ms);
    json.endArray();
    json.endObject();

    json.endObject();
    std::string out = json.take();
    out.push_back('\n');
    return out;
}

bool
ResultStore::writeJsonFile(const std::string &path,
                           const SweepMeta &meta) const
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return false;
    const std::string text = toJson(meta);
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), file) == text.size();
    return std::fclose(file) == 0 && ok;
}

} // namespace dol::runner
