/**
 * @file
 * Runner subsystem tests: sweep determinism (`--jobs 1` vs `--jobs 8`
 * produce byte-identical metric rows), the sweep's worker count and
 * error propagation, the shared baseline cache, and the dol-sweep-v1
 * JSON writer's exact text.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/rng.hpp"
#include "runner/progress.hpp"
#include "runner/json_writer.hpp"
#include "runner/result_store.hpp"
#include "runner/sweep.hpp"
#include "workloads/suite.hpp"

namespace
{

using namespace dol;
using namespace dol::runner;

// --------------------------------------------------------------- sweep

SweepRunner
makeSmallSweep(unsigned jobs)
{
    SimConfig config;
    config.maxInstrs = 20000;
    SweepOptions options;
    options.jobs = jobs;
    options.progress = false;
    SweepRunner sweep(config, options);

    std::vector<WorkloadSpec> specs{findWorkload("libquantum.syn"),
                                    findWorkload("mcf.syn")};
    sweep.addGrid(specs, {"NextLine", "BOP"});
    return sweep;
}

TEST(SweepRunner, SerialAndParallelRowsAreByteIdentical)
{
    SweepRunner serial = makeSmallSweep(1);
    SweepRunner parallel = makeSmallSweep(8);

    const auto serial_report = serial.run();
    const auto parallel_report = parallel.run();

    // Metric rows: identical bytes in CSV and in the JSON results
    // array, independent of worker count.
    EXPECT_EQ(serial_report.store.toCsv(),
              parallel_report.store.toCsv());
    EXPECT_EQ(serial_report.store.resultsJson(),
              parallel_report.store.resultsJson());

    const auto rows = serial_report.store.rows();
    ASSERT_EQ(rows.size(), 4u);
    // Grid order: workload-major, prefetcher-minor.
    EXPECT_EQ(rows[0].workload, "libquantum.syn");
    EXPECT_EQ(rows[0].prefetcher, "NextLine");
    EXPECT_EQ(rows[1].prefetcher, "BOP");
    EXPECT_EQ(rows[2].workload, "mcf.syn");
    // Simulations really happened.
    for (const MetricsRow &row : rows) {
        EXPECT_GT(row.instructions, 0u);
        EXPECT_GT(row.baselineIpc, 0.0);
    }
}

TEST(SweepRunner, SeedsDeriveFromCellKeyNotSchedule)
{
    const std::uint64_t seed =
        cellSeed("libquantum.syn", "NextLine");
    EXPECT_EQ(seed, cellSeed("libquantum.syn", "NextLine"));
    EXPECT_NE(seed, cellSeed("libquantum.syn", "BOP"));
    EXPECT_NE(seed, cellSeed("mcf.syn", "NextLine"));
    EXPECT_NE(cellSeed("ab", "c"), cellSeed("a", "bc"));

    const auto report = makeSmallSweep(4).run();
    for (const MetricsRow &row : report.store.rows())
        EXPECT_EQ(row.seed, cellSeed(row.workload, row.prefetcher));
}

TEST(SweepRunner, JobExceptionPropagatesAfterDraining)
{
    SimConfig config;
    config.maxInstrs = 5000;
    SweepOptions options;
    options.jobs = 2;
    options.progress = false;
    SweepRunner sweep(config, options);

    std::atomic<int> completed{0};
    sweep.addJob("ok-1", [&](ExperimentRunner &) {
        completed.fetch_add(1);
        return std::vector<RunOutput>{};
    });
    sweep.addJob("boom", [](ExperimentRunner &)
                     -> std::vector<RunOutput> {
        throw std::runtime_error("cell failed");
    });
    sweep.addJob("ok-2", [&](ExperimentRunner &) {
        completed.fetch_add(1);
        return std::vector<RunOutput>{};
    });

    EXPECT_THROW(sweep.run(), std::runtime_error);
    // Every non-failing job still ran to completion.
    EXPECT_EQ(completed.load(), 2);
}

/** Threads of this process: the entries of /proc/self/task. */
std::size_t
threadCount()
{
    return static_cast<std::size_t>(std::distance(
        std::filesystem::directory_iterator("/proc/self/task"), {}));
}

TEST(SweepRunner, StartsNoMoreWorkersThanJobs)
{
    // A sanitizer runtime may start a thread of its own with the
    // first thread; start one first so the baseline holds it. Without
    // one, the baseline is the test thread alone.
    std::thread([] {}).join();
    const std::size_t before = threadCount();

    SweepOptions options;
    options.jobs = 64;
    options.progress = false;
    SweepRunner sweep(SimConfig{}, options);
    std::vector<std::size_t> seen(2);
    for (std::size_t i = 0; i < seen.size(); ++i) {
        sweep.addJob("count-" + std::to_string(i),
                     [&seen, i](ExperimentRunner &) {
                         seen[i] = threadCount();
                         return std::vector<RunOutput>{};
                     });
    }
    EXPECT_TRUE(sweep.run().ok());
    // Two jobs, two workers at most, however many --jobs allows.
    for (const std::size_t threads : seen)
        EXPECT_LE(threads, before + 2);
}

// ------------------------------------------------------------ progress

TEST(Progress, EtaExtrapolatesFromExecutedJobs)
{
    // 2 executed in 10s -> 5s per job, 4 remaining -> 20s.
    EXPECT_DOUBLE_EQ(etaSeconds(2, 0, 6, 10.0), 20.0);
    // Skipped (checkpoint-merged) jobs shrink the remaining count but
    // never feed the rate: 2 executed + 2 merged of 6 leaves 2 cells
    // at 5s per executed job.
    EXPECT_DOUBLE_EQ(etaSeconds(2, 2, 6, 10.0), 10.0);
}

TEST(Progress, EtaDegenerateSweepsReportZero)
{
    // Nothing executed yet: no rate to extrapolate from.
    EXPECT_DOUBLE_EQ(etaSeconds(0, 0, 6, 10.0), 0.0);
    // Resume of a finished sweep: every cell merged from the journal.
    EXPECT_DOUBLE_EQ(etaSeconds(0, 6, 6, 10.0), 0.0);
    // Sweep complete.
    EXPECT_DOUBLE_EQ(etaSeconds(6, 0, 6, 10.0), 0.0);
    // Counters overran the total (done + skipped > total) must not
    // underflow the remaining count into a huge unsigned value.
    EXPECT_DOUBLE_EQ(etaSeconds(5, 3, 6, 10.0), 0.0);
    // Empty sweep and negative clock skew.
    EXPECT_DOUBLE_EQ(etaSeconds(0, 0, 0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(etaSeconds(2, 0, 6, -1.0), 0.0);
}

TEST(BaselineCache, ComputesEachWorkloadOnce)
{
    BaselineCache cache;
    std::atomic<int> computed{0};
    const auto compute = [&] {
        computed.fetch_add(1);
        ExperimentRunner::Baseline base;
        base.ipc = 1.5;
        return base;
    };

    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i) {
        threads.emplace_back([&] {
            const auto &base = cache.get("wl", compute);
            EXPECT_DOUBLE_EQ(base.ipc, 1.5);
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(computed.load(), 1);
    EXPECT_EQ(cache.size(), 1u);
}

// ---------------------------------------------------------------- json

TEST(Json, WriterEscapesAndStructures)
{
    JsonWriter json(0);
    json.beginObject();
    json.field("name", "a\"b\\c\n\t\x01");
    json.field("count", std::uint64_t{42});
    json.field("ratio", 0.25);
    json.field("flag", true);
    json.key("list").beginArray().value(1).value(2).endArray();
    json.endObject();
    EXPECT_EQ(json.str(),
              "{\"name\":\"a\\\"b\\\\c\\n\\t\\u0001\",\"count\":42,"
              "\"ratio\":0.25,\"flag\":true,\"list\":[1,2]}");
}

/**
 * The test's own JSON string rule, one character at a time: '"' and
 * '\' take a backslash, the five named control characters their
 * letter, every other byte below 0x20 a \u00XX escape, and anything
 * else (raw UTF-8 included) passes through.
 */
std::string
jsonString(std::string_view text)
{
    static const char kHex[] = "0123456789abcdef";
    const std::string_view named = "\"\\\b\f\n\r\t";
    const std::string_view letter = "\"\\bfnrt";
    std::string out = "\"";
    for (const char c : text) {
        const auto byte = static_cast<unsigned char>(c);
        if (const std::size_t i = named.find(c); i != named.npos) {
            out += '\\';
            out += letter[i];
        } else if (byte < 0x20) {
            out += "\\u00";
            out += kHex[byte >> 4];
            out += kHex[byte & 0xf];
        } else {
            out += c;
        }
    }
    return out + '"';
}

/** Printed with %.10g: equal up to 10 significant digits. */
bool
nearPrinted(double a, double b)
{
    if (a == b)
        return true;
    const double scale = std::max(std::fabs(a), std::fabs(b));
    return std::fabs(a - b) <= 5e-10 * scale;
}

/**
 * Reads a document against the text it must hold: each literal piece
 * matches byte for byte, and each double is read back with
 * std::strtod. The first mismatch stops the walk, so one wrong byte
 * reports once.
 */
class DocWalk
{
  public:
    explicit DocWalk(const std::string &text) : _text(text) {}

    void
    text(const std::string &piece)
    {
        if (!_ok)
            return;
        _ok = _text.compare(_pos, piece.size(), piece) == 0;
        EXPECT_TRUE(_ok) << "at byte " << _pos << ": want \"" << piece
                         << "\", have \""
                         << _text.substr(_pos, piece.size()) << "\"";
        _pos += piece.size();
    }

    void
    number(double want)
    {
        if (!_ok)
            return;
        const char *begin = _text.c_str() + _pos;
        char *end = nullptr;
        const double got = std::strtod(begin, &end);
        _ok = end != begin && nearPrinted(got, want);
        EXPECT_TRUE(_ok) << "at byte " << _pos << ": want " << want
                         << ", have \"" << _text.substr(_pos, 24)
                         << "\"";
        _pos += static_cast<std::size_t>(end - begin);
    }

    bool atEnd() const { return _ok && _pos == _text.size(); }

  private:
    const std::string &_text;
    std::size_t _pos = 0;
    bool _ok = true;
};

/** One "results" element, laid out as ResultStore::toJson prints it. */
void
walkRow(DocWalk &doc, const MetricsRow &row)
{
    doc.text("\n    {\n      \"workload\": " + jsonString(row.workload) +
             ",\n      \"prefetcher\": " + jsonString(row.prefetcher) +
             ",\n      \"variant\": " + jsonString(row.variant) +
             ",\n      \"seed\": " + std::to_string(row.seed) +
             ",\n      \"metrics\": {");
    const auto metric = [&doc](const char *name, double value) {
        doc.text(std::string("\n        \"") + name + "\": ");
        doc.number(value);
        doc.text(",");
    };
    metric("baseline_ipc", row.baselineIpc);
    metric("ipc", row.ipc);
    metric("speedup", row.speedup);
    metric("baseline_mpki_l1", row.baselineMpkiL1);
    doc.text("\n        \"prefetches_issued\": " +
             std::to_string(row.prefetchesIssued) + ",");
    metric("scope", row.scope);
    metric("eff_accuracy_l1", row.effAccuracyL1);
    metric("eff_coverage_l1", row.effCoverageL1);
    metric("eff_accuracy_l2", row.effAccuracyL2);
    metric("eff_coverage_l2", row.effCoverageL2);
    metric("traffic_normalized", row.trafficNormalized);
    doc.text("\n        \"instructions\": " +
             std::to_string(row.instructions) + "\n      }");
    // Counters: absent when empty, exact integers when present.
    if (!row.counters.empty()) {
        doc.text(",\n      \"counters\": {");
        const char *separator = "";
        for (const auto &[name, value] : row.counters.sorted()) {
            doc.text(separator + std::string("\n        ") +
                     jsonString(name) + ": " + std::to_string(value));
            separator = ",";
        }
        doc.text("\n      }");
    }
    doc.text("\n    }");
}

TEST(Json, ReaderParsesWriterOutput)
{
    JsonWriter json;
    json.beginObject();
    json.field("text", "line1\nline2 \"quoted\" back\\slash");
    json.field("num", 3.140000001);
    json.field("neg", std::int64_t{-7});
    json.key("nested").beginObject().field("deep", "x").endObject();
    json.key("arr").beginArray().value(false).null().endArray();
    json.endObject();

    EXPECT_EQ(json.str(),
              "{\n"
              "  \"text\": \"line1\\nline2 \\\"quoted\\\" back\\\\slash\",\n"
              "  \"num\": 3.140000001,\n"
              "  \"neg\": -7,\n"
              "  \"nested\": {\n"
              "    \"deep\": \"x\"\n"
              "  },\n"
              "  \"arr\": [\n"
              "    false,\n"
              "    null\n"
              "  ]\n"
              "}");
    EXPECT_EQ(jsonString("line1\nline2 \"quoted\" back\\slash"),
              "\"line1\\nline2 \\\"quoted\\\" back\\\\slash\"");
    EXPECT_EQ(std::strtod("3.140000001", nullptr), 3.140000001);
}

TEST(ResultStore, JsonRoundTripPreservesRows)
{
    ResultStore store;
    MetricsRow row;
    row.workload = "weird \"name\"\n";
    row.prefetcher = "TPC+SMS";
    row.variant = ":L1";
    row.seed = 0xdeadbeefcafeull;
    row.baselineIpc = 1.2345;
    row.ipc = 1.5;
    row.speedup = 1.5 / 1.2345;
    row.baselineMpkiL1 = 12.75;
    row.prefetchesIssued = 123456789ull;
    row.scope = 0.625;
    row.effAccuracyL1 = 0.875;
    row.effCoverageL1 = 0.5;
    row.effAccuracyL2 = -0.125; // induced misses can go negative
    row.effCoverageL2 = 0.25;
    row.trafficNormalized = 1.0625;
    row.instructions = 200000;
    store.append(row);

    SweepMeta meta;
    meta.generator = "test";
    meta.maxInstrs = 200000;
    meta.jobs = 8;
    meta.elapsedSeconds = 1.5;
    meta.wallMs = {42.0};

    EXPECT_EQ(store.toJson(meta),
              "{\n"
              "  \"schema\": \"dol-sweep-v1\",\n"
              "  \"generator\": \"test\",\n"
              "  \"config\": {\n"
              "    \"max_instrs\": 200000\n"
              "  },\n"
              "  \"results\": [\n"
              "    {\n"
              "      \"workload\": \"weird \\\"name\\\"\\n\",\n"
              "      \"prefetcher\": \"TPC+SMS\",\n"
              "      \"variant\": \":L1\",\n"
              "      \"seed\": 244837814094590,\n"
              "      \"metrics\": {\n"
              "        \"baseline_ipc\": 1.2345,\n"
              "        \"ipc\": 1.5,\n"
              "        \"speedup\": 1.215066829,\n"
              "        \"baseline_mpki_l1\": 12.75,\n"
              "        \"prefetches_issued\": 123456789,\n"
              "        \"scope\": 0.625,\n"
              "        \"eff_accuracy_l1\": 0.875,\n"
              "        \"eff_coverage_l1\": 0.5,\n"
              "        \"eff_accuracy_l2\": -0.125,\n"
              "        \"eff_coverage_l2\": 0.25,\n"
              "        \"traffic_normalized\": 1.0625,\n"
              "        \"instructions\": 200000\n"
              "      }\n"
              "    }\n"
              "  ],\n"
              "  \"timing\": {\n"
              "    \"jobs\": 8,\n"
              "    \"elapsed_seconds\": 1.5,\n"
              "    \"resumed_jobs\": 0,\n"
              "    \"wall_ms\": [\n"
              "      42\n"
              "    ]\n"
              "  }\n"
              "}\n");
    EXPECT_TRUE(nearPrinted(std::strtod("1.215066829", nullptr),
                            row.speedup));
}

/**
 * Property test: a dol-sweep-v1 document holds exactly the rows it
 * was given, for randomized rows — awkward strings (quotes,
 * backslashes, control characters forced through \u00XX escapes, raw
 * UTF-8), extreme doubles at the edges of the %.10g format, and rows
 * with and without a counters object.
 *
 * The oracles are the test's own: jsonString() for strings, std::strtod
 * for doubles (equal up to the 10 significant digits printed), and
 * decimal text for integers and counters, which must match exactly.
 */
TEST(ResultStore, JsonRoundTripPropertyRandomizedRows)
{
    const double palette[] = {0.0,     -0.0,   1.0 / 3.0,
                              17.25,   -2.5e-9, 1e300,
                              -1e300,  1e-300,  3.141592653589793,
                              1234567.875};
    const std::string names[] = {
        "plain",        "with space",  "qu\"ote",
        "back\\slash",  "new\nline",   "tab\tand\rcr",
        "ctl\x01\x1f!\b\f", "unicode \xce\xbb\xe2\x88\x80"};
    EXPECT_EQ(jsonString(names[6]), "\"ctl\\u0001\\u001f!\\b\\f\"");
    EXPECT_EQ(jsonString(names[5]), "\"tab\\tand\\rcr\"");
    EXPECT_EQ(jsonString(names[7]), "\"" + names[7] + "\"");

    Rng rng(20260807);
    const auto pick_double = [&] {
        return palette[rng.below(std::size(palette))];
    };
    const auto pick_name = [&] {
        return names[rng.below(std::size(names))];
    };

    for (int iteration = 0; iteration < 30; ++iteration) {
        SCOPED_TRACE("iteration " + std::to_string(iteration));
        const std::size_t count = 1 + rng.below(4);
        ResultStore store;
        std::vector<MetricsRow> rows;
        for (std::size_t i = 0; i < count; ++i) {
            MetricsRow row;
            row.workload = pick_name();
            row.prefetcher = pick_name();
            row.variant = rng.chance(0.3) ? "" : pick_name();
            row.seed = rng.below(1ull << 50);
            row.baselineIpc = pick_double();
            row.ipc = pick_double();
            row.speedup = pick_double();
            row.baselineMpkiL1 = pick_double();
            row.prefetchesIssued = rng.below(1ull << 53);
            row.scope = pick_double();
            row.effAccuracyL1 = pick_double();
            row.effCoverageL1 = pick_double();
            row.effAccuracyL2 = pick_double();
            row.effCoverageL2 = pick_double();
            row.trafficNormalized = pick_double();
            row.instructions = rng.below(1ull << 53);
            if (rng.chance(0.5)) {
                const std::size_t counters = 1 + rng.below(3);
                for (std::size_t c = 0; c < counters; ++c) {
                    row.counters.set("scope" + std::to_string(c),
                                     pick_name(),
                                     rng.below(1ull << 53));
                }
            }
            rows.push_back(row);
            store.append(row);
        }

        SweepMeta meta;
        meta.maxInstrs = rng.below(1ull << 40);
        meta.jobs = 1 + static_cast<unsigned>(rng.below(16));

        // Serialization is deterministic: two calls, identical bytes.
        const std::string text = store.toJson(meta);
        ASSERT_EQ(text, store.toJson(meta));

        DocWalk doc(text);
        doc.text("{\n  \"schema\": \"dol-sweep-v1\",\n  \"generator\": "
                 "\"dolsim\",\n  \"config\": {\n    \"max_instrs\": " +
                 std::to_string(meta.maxInstrs) +
                 "\n  },\n  \"results\": [");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (i > 0)
                doc.text(",");
            walkRow(doc, rows[i]);
        }
        doc.text("\n  ],\n  \"timing\": {\n    \"jobs\": " +
                 std::to_string(meta.jobs) +
                 ",\n    \"elapsed_seconds\": 0,\n    \"resumed_jobs\": "
                 "0,\n    \"wall_ms\": []\n  }\n}\n");
        EXPECT_TRUE(doc.atEnd());
    }
}

} // namespace
