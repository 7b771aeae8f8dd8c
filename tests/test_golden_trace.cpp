/**
 * @file
 * Golden-trace differential regression harness.
 *
 * Each golden cell runs a small-budget (workload, prefetcher)
 * experiment with tracing enabled and snapshots the end-of-run counter
 * registry — which embeds the trace byte digest (trace.bytes_fnv64),
 * the event count, and every per-event-type tally — as one text file
 * under tests/golden/. The test re-runs each cell and diffs the fresh
 * snapshot against the checked-in file line by line, so any behaviour
 * change in T2/P1/C1, the coordinator, the memory hierarchy, or the
 * trace encoding itself shows up as a readable counter diff.
 *
 * Regenerate after an intentional behaviour change with either
 *   ./test_golden_trace --update-golden
 * or DOL_UPDATE_GOLDEN=1 ctest -R GoldenTrace
 * and commit the updated .golden files under tests/golden/ with the
 * change.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/sweep.hpp"
#include "sim/contention.hpp"
#include "sim/experiment.hpp"
#include "workloads/contention.hpp"
#include "workloads/suite.hpp"

namespace
{

using namespace dol;

/** Small enough for a fast test, large enough that T2 streams
 *  confirm, P1 chases chains, and C1 accumulates region stats. */
constexpr std::uint64_t kGoldenInstrs = 20000;

struct GoldenCell
{
    const char *workload;
    const char *prefetcher;
};

/** Chosen so the set collectively exercises every subsystem the bus
 *  instruments: libquantum = strided T2 + coordinator claims, mcf =
 *  P1 producer confirmation + C1 verdicts, omnetpp = P1 chain
 *  start/advance FSM, bfs = C1 dense-region detection, SPP = the
 *  non-composite (extras-only) prefetcher path, tempstream x the
 *  enlarged composite = round-robin multi-extra routing plus the
 *  temporal (Triangel) and pointer-chase extras' counters. */
const GoldenCell kGoldenCells[] = {
    {"libquantum.syn", "TPC"}, {"mcf.syn", "TPC"},
    {"omnetpp.syn", "TPC"},    {"bfs.syn", "TPC"},
    {"libquantum.syn", "SPP"},
    {"tempstream.syn", "TPC+SPP+Triangel+PChase"},
};

bool
updateGolden()
{
    const char *env = std::getenv("DOL_UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string
goldenPath(const GoldenCell &cell)
{
    return std::string(DOL_GOLDEN_DIR) + "/" + cell.workload + "." +
           cell.prefetcher + ".golden";
}

/** Run the cell exactly like a traced sweep would (same per-cell
 *  DRAM seed) and render its counter registry as golden text. */
std::string
runSnapshot(const GoldenCell &cell)
{
    SimConfig config;
    config.maxInstrs = kGoldenInstrs;
    config.mem.dram.rngSeed =
        runner::cellSeed(cell.workload, cell.prefetcher, "");
    ExperimentRunner runner(config);

    RunOptions options;
    options.collectCounters = true;
    options.tracePath = testing::TempDir() + "golden." +
                        cell.workload + "." + cell.prefetcher + ".trc";
    const RunOutput out =
        runner.run(findWorkload(cell.workload), cell.prefetcher,
                   options);

    std::string text = "dol-golden-v1 ";
    text += cell.workload;
    text += ' ';
    text += cell.prefetcher;
    text += " instrs=" + std::to_string(kGoldenInstrs) + "\n";
    text += out.counters.toText();
    std::remove(options.tracePath.c_str());
    return text;
}

std::string
readFileText(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    ok = in.good();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Render a unified-ish summary of which counter lines changed, so a
 *  ctest failure log reads like a review diff, not a text blob. */
std::string
describeDiff(const std::string &expected, const std::string &actual)
{
    std::istringstream a(expected), b(actual);
    std::string la, lb, out;
    int shown = 0;
    while (shown < 20) {
        const bool ha = static_cast<bool>(std::getline(a, la));
        const bool hb = static_cast<bool>(std::getline(b, lb));
        if (!ha && !hb)
            break;
        if (ha && hb && la == lb)
            continue;
        if (ha)
            out += "  -golden  " + la + "\n";
        if (hb)
            out += "  +fresh   " + lb + "\n";
        ++shown;
    }
    if (shown >= 20)
        out += "  (diff truncated)\n";
    return out;
}

/** Shared compare-or-regenerate logic for one golden file. */
void
checkGolden(const std::string &path, const std::string &fresh,
            const std::string &what)
{
    if (updateGolden()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << fresh;
        ASSERT_TRUE(out.good()) << "short write to " << path;
        GTEST_SKIP() << "regenerated " << path;
    }

    bool ok = false;
    const std::string golden = readFileText(path, ok);
    ASSERT_TRUE(ok) << "missing golden file " << path
                    << " (run with --update-golden to create it)";
    EXPECT_EQ(golden, fresh)
        << "golden snapshot drifted for " << what << ":\n"
        << describeDiff(golden, fresh)
        << "If the behaviour change is intentional, regenerate with\n"
        << "  ./test_golden_trace --update-golden\n"
        << "and commit the updated " << path;
}

class GoldenTrace : public testing::TestWithParam<GoldenCell>
{};

TEST_P(GoldenTrace, MatchesCheckedInSnapshot)
{
    const GoldenCell &cell = GetParam();
    checkGolden(goldenPath(cell), runSnapshot(cell),
                std::string(cell.workload) + "/" + cell.prefetcher);
}

/**
 * A contention mix's merged per-core + fairness + shared-channel
 * counter registry at 20k instructions under @p arbitration, seeded
 * exactly like the contention sweep seeds it.
 */
std::string
mixSnapshot(const char *mix_name, ArbitrationPolicy arbitration,
            const char *arbitration_name)
{
    constexpr std::uint64_t kMixInstrs = 20000;
    const ContentionMix &mix = findContentionMix(mix_name);

    SimConfig config;
    config.maxInstrs = kMixInstrs;
    config.mem.dram.arbitration = arbitration;
    // Mirror the sweep's per-cell seeding (label, "", variant).
    config.mem.dram.rngSeed =
        runner::cellSeed(std::string("mix:") + mix_name, "",
                         std::string(":arb=") + arbitration_name);

    const ContentionOutcome outcome =
        runContentionScenario(config, mix);

    std::string fresh = "dol-golden-v1 mix:";
    fresh += mix_name;
    fresh += ' ';
    fresh += mixPrefetcherLabel(mix);
    fresh += " instrs=" + std::to_string(kMixInstrs) + "\n";
    fresh += outcome.counters.toText();
    return fresh;
}

/**
 * Multicore golden cell: the stream-starves-pchase mix (two cores,
 * two distinct per-core prefetchers) under FIFO arbitration. Pins
 * down the interleaving, the shared-L3 ownership accounting, and the
 * arbitration delay model in one file.
 */
TEST(GoldenMix, StreamStarvesPchaseMatchesSnapshot)
{
    checkGolden(std::string(DOL_GOLDEN_DIR) +
                    "/mix.stream_starves_pchase.fifo.golden",
                mixSnapshot("stream_starves_pchase",
                            ArbitrationPolicy::kFifo, "fifo"),
                "mix:stream_starves_pchase");
}

/**
 * The four-core, four-prefetcher hetero_quad mix under per-core
 * round-robin arbitration: pins the round-robin slot count over four
 * competing cores, and every solo IPC the fairness scope divides by.
 */
TEST(GoldenMix, HeteroQuadRoundRobinMatchesSnapshot)
{
    checkGolden(std::string(DOL_GOLDEN_DIR) + "/mix.hetero_quad.rr.golden",
                mixSnapshot("hetero_quad",
                            ArbitrationPolicy::kCoreRoundRobin, "rr"),
                "mix:hetero_quad");
}

/** The fnv64 digest line is the strongest single check: it covers the
 *  full byte stream, so reorderings that keep per-type counts equal
 *  still fail. Assert every golden file carries one. */
TEST(GoldenTraceFormat, EveryGoldenFileHasDigestAndEvents)
{
    if (updateGolden())
        GTEST_SKIP() << "regeneration run";
    for (const GoldenCell &cell : kGoldenCells) {
        bool ok = false;
        const std::string text = readFileText(goldenPath(cell), ok);
        ASSERT_TRUE(ok) << "missing " << goldenPath(cell);
        EXPECT_NE(text.find("trace.bytes_fnv64 "), std::string::npos)
            << goldenPath(cell);
        EXPECT_NE(text.find("trace.events "), std::string::npos)
            << goldenPath(cell);
        EXPECT_EQ(text.rfind("dol-golden-v1 ", 0), 0u)
            << goldenPath(cell);
    }
}

std::string
cellName(const testing::TestParamInfo<GoldenCell> &info)
{
    std::string name = std::string(info.param.workload) + "_" +
                       info.param.prefetcher;
    for (char &c : name) {
        if (c == '.' || c == '-' || c == '+')
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(Cells, GoldenTrace,
                         testing::ValuesIn(kGoldenCells), cellName);

} // namespace

/** Custom main so `--update-golden` works as a flag (mapped onto the
 *  DOL_UPDATE_GOLDEN env var the tests consult) without tripping
 *  gtest's unknown-flag handling. */
int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--update-golden") {
            setenv("DOL_UPDATE_GOLDEN", "1", 1);
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            --i;
        }
    }
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
