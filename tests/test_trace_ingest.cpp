/**
 * @file
 * ChampSim trace-ingestion tests: committed fixture decode (plain and
 * .xz), codec round trips, decode/expansion/replay determinism, a
 * malformed-input battery for the reader (truncated tails, garbage
 * flag bytes, empty and missing files, corrupt xz streams, overlong
 * register operands), the `--suite trace` discovery path, and a
 * golden cell pinning stream_gups x TPC+SPP end to end.
 *
 * Fixtures live in tests/traces/ (regenerate with make_fixtures.py);
 * the golden snapshot follows the test_golden_trace conventions,
 * including DOL_UPDATE_GOLDEN=1 regeneration.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "mem/memory_image.hpp"
#include "runner/sweep.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "trace/counters.hpp"
#include "workloads/suite.hpp"
#include "workloads/trace_ingest.hpp"

namespace
{

using namespace dol;

const std::string kFixtureDir = DOL_TRACE_FIXTURE_DIR;
const std::string kPlainFixture = kFixtureDir + "/stream_gups.champsim";
const std::string kXzFixture = kFixtureDir + "/linked_walk.champsim.xz";

std::string
tempPath(const std::string &leaf)
{
    return testing::TempDir() + "trace_ingest." + leaf;
}

std::vector<std::uint8_t>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path,
           const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

bool
sameRecord(const ChampSimInstr &a, const ChampSimInstr &b)
{
    std::uint8_t ba[ChampSimInstr::kBytes];
    std::uint8_t bb[ChampSimInstr::kBytes];
    a.pack(ba);
    b.pack(bb);
    return std::equal(ba, ba + ChampSimInstr::kBytes, bb);
}

// `--suite trace` scans $DOL_TRACE_DIR once per process, so this test
// is declared first and is the binary's only traceSuite() consumer
// group; it pins the env var before the first scan.
TEST(TraceSuite, DiscoversFixturesSortedAndFindWorkloadResolves)
{
    ASSERT_EQ(setenv("DOL_TRACE_DIR", kFixtureDir.c_str(), 1), 0);
    const std::vector<WorkloadSpec> &suite = traceSuite();
    ASSERT_EQ(suite.size(), 2u);
    EXPECT_EQ(suite[0].name, "trace:linked_walk");
    EXPECT_EQ(suite[1].name, "trace:stream_gups");
    EXPECT_EQ(suite[0].suite, "trace");

    // findWorkload falls through the synthetic suites to the traces.
    const WorkloadSpec &spec = findWorkload("trace:stream_gups");
    MemoryImage image;
    auto kernel = spec.factory(image);
    Instr instr;
    ASSERT_TRUE(kernel->next(instr));

    // The trace suite must stay out of the deterministic all-suites
    // list (its content depends on the working directory).
    for (const WorkloadSpec &all : allWorkloads())
        EXPECT_NE(all.suite, "trace") << all.name;
}

TEST(TraceIngest, DecodesPlainFixture)
{
    std::vector<ChampSimInstr> records;
    std::string error;
    ASSERT_TRUE(readChampSimTrace(kPlainFixture, records, &error))
        << error;
    EXPECT_EQ(records.size(), 1320u); // 220 iterations x 6 records
    EXPECT_EQ(records[0].ip, 0x400000u);
    EXPECT_EQ(records[0].srcMem[0], 0x10000u);

    TraceIngestStats stats;
    const std::vector<Instr> instrs =
        expandChampSimTrace(records, &stats);
    EXPECT_EQ(stats.records, records.size());
    EXPECT_GT(stats.loads, 0u);
    EXPECT_GT(stats.stores, 0u);
    EXPECT_GT(stats.branches, 0u);
    EXPECT_EQ(stats.instrs, instrs.size());
}

TEST(TraceIngest, DecodesXzFixture)
{
    std::vector<ChampSimInstr> records;
    std::string error;
    ASSERT_TRUE(readChampSimTrace(kXzFixture, records, &error))
        << error;
    EXPECT_EQ(records.size(), 1088u); // 4 walks x (256 + 16 branches)
    EXPECT_EQ(records[0].ip, 0x401000u);

    TraceIngestStats stats;
    expandChampSimTrace(records, &stats);
    EXPECT_GT(stats.loads, 0u);
    EXPECT_EQ(stats.stores, 0u);
}

TEST(TraceIngest, WriteReadRoundTripIsExact)
{
    std::vector<ChampSimInstr> records;
    std::string error;
    ASSERT_TRUE(readChampSimTrace(kPlainFixture, records, &error));

    const std::string path = tempPath("roundtrip.champsim");
    ASSERT_TRUE(writeChampSimTrace(path, records, &error)) << error;
    std::vector<ChampSimInstr> again;
    ASSERT_TRUE(readChampSimTrace(path, again, &error)) << error;
    ASSERT_EQ(again.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        ASSERT_TRUE(sameRecord(records[i], again[i]))
            << "record " << i << " changed across write/read";
    }
    std::remove(path.c_str());
}

TEST(TraceIngest, DecodeAndExpansionAreDeterministic)
{
    std::vector<ChampSimInstr> first;
    std::vector<ChampSimInstr> second;
    std::string error;
    ASSERT_TRUE(readChampSimTrace(kXzFixture, first, &error));
    ASSERT_TRUE(readChampSimTrace(kXzFixture, second, &error));
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        ASSERT_TRUE(sameRecord(first[i], second[i]));

    const std::vector<Instr> a = expandChampSimTrace(first);
    const std::vector<Instr> b = expandChampSimTrace(second);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].pc, b[i].pc);
        ASSERT_EQ(a[i].addr, b[i].addr);
        ASSERT_EQ(a[i].value, b[i].value);
        ASSERT_EQ(a[i].op, b[i].op);
    }
}

TEST(TraceIngest, FreshKernelsReplayIdentically)
{
    const auto decode = [] {
        std::vector<ChampSimInstr> records;
        std::string error;
        EXPECT_TRUE(readChampSimTrace(kPlainFixture, records, &error))
            << error;
        return expandChampSimTrace(records);
    };
    MemoryImage image_a, image_b;
    ReplayKernel kernel_a(image_a, "a", decode(), /*loop=*/false);
    ReplayKernel kernel_b(image_b, "b", decode(), /*loop=*/false);
    std::vector<Instr> first;
    Instr instr;
    while (kernel_a.next(instr))
        first.push_back(instr);
    ASSERT_EQ(first.size(), kernel_a.instrCount());

    std::vector<Instr> second;
    while (kernel_b.next(instr))
        second.push_back(instr);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_EQ(first[i].pc, second[i].pc);
        ASSERT_EQ(first[i].addr, second[i].addr);
        ASSERT_EQ(first[i].value, second[i].value);
    }
}

TEST(TraceIngest, LoadValuesMatchTheBakedImage)
{
    // The deterministic heap contract: the value a trace load returns
    // equals what the ReplayKernel wrote into the MemoryImage for that
    // address at first touch, so P1-style pointer dereferences observe
    // trace-consistent bytes.
    std::vector<ChampSimInstr> records;
    std::string error;
    ASSERT_TRUE(readChampSimTrace(kXzFixture, records, &error));
    MemoryImage image;
    ReplayKernel kernel(image, "linked_walk",
                        expandChampSimTrace(records));
    std::size_t checked = 0;
    Instr in;
    while (checked < 64 && kernel.next(in)) {
        if (!in.isLoad())
            continue;
        EXPECT_EQ(in.value, image.read64(in.addr))
            << "load value diverged from the baked heap";
        ++checked; // linked_walk revisits, 64 distinct checks suffice
    }
    EXPECT_EQ(checked, 64u);
}

// ---- malformed-input battery (framed-reader mutation idiom) --------

TEST(TraceIngestReader, RejectsTruncatedTail)
{
    std::vector<std::uint8_t> bytes = readBytes(kPlainFixture);
    bytes.resize(bytes.size() - 7); // no longer a multiple of 64
    const std::string path = tempPath("truncated.champsim");
    writeBytes(path, bytes);
    std::vector<ChampSimInstr> records;
    std::string error;
    EXPECT_FALSE(readChampSimTrace(path, records, &error));
    EXPECT_NE(error.find("truncat"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(TraceIngestReader, RejectsEmptyTrace)
{
    const std::string path = tempPath("empty.champsim");
    writeBytes(path, {});
    std::vector<ChampSimInstr> records;
    std::string error;
    EXPECT_FALSE(readChampSimTrace(path, records, &error));
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(TraceIngestReader, RejectsMissingFile)
{
    std::vector<ChampSimInstr> records;
    std::string error;
    EXPECT_FALSE(readChampSimTrace(
        tempPath("does_not_exist.champsim"), records, &error));
    EXPECT_FALSE(error.empty());
}

TEST(TraceIngestReader, RejectsGarbageFlagBytes)
{
    std::vector<std::uint8_t> bytes = readBytes(kPlainFixture);
    bytes[8] = 0x37; // is_branch must be 0 or 1
    const std::string path = tempPath("garbage.champsim");
    writeBytes(path, bytes);
    std::vector<ChampSimInstr> records;
    std::string error;
    EXPECT_FALSE(readChampSimTrace(path, records, &error));
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(TraceIngestReader, RejectsCorruptXzStream)
{
    const std::string path = tempPath("corrupt.champsim.xz");
    writeBytes(path, {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01});
    std::vector<ChampSimInstr> records;
    std::string error;
    EXPECT_FALSE(readChampSimTrace(path, records, &error));
    EXPECT_FALSE(error.empty());
    std::remove(path.c_str());
}

TEST(TraceIngestReader, FoldsOverlongRegisterOperands)
{
    // ChampSim traces from other ISAs carry register ids past our 64;
    // they fold modulo kNumRegs (and are counted) instead of erroring.
    std::vector<std::uint8_t> bytes = readBytes(kPlainFixture);
    bytes.resize(ChampSimInstr::kBytes);
    bytes[10] = 200; // destination register far past kNumRegs
    bytes[12] = 64;  // first out-of-range source id
    const std::string path = tempPath("overlong.champsim");
    writeBytes(path, bytes);
    std::vector<ChampSimInstr> records;
    std::string error;
    ASSERT_TRUE(readChampSimTrace(path, records, &error)) << error;
    TraceIngestStats stats;
    const std::vector<Instr> instrs =
        expandChampSimTrace(records, &stats);
    EXPECT_EQ(stats.clampedRegs, 2u);
    ASSERT_FALSE(instrs.empty());
    for (const Instr &in : instrs) {
        EXPECT_TRUE(in.dst == kNoReg || in.dst < kNumRegs);
        EXPECT_TRUE(in.src1 == kNoReg || in.src1 < kNumRegs);
    }
    std::remove(path.c_str());
}

TEST(TraceIngestReader, SingleByteMutationsNeverCrash)
{
    // Flip one byte at a time across the first record and the tail:
    // every mutant must either decode or fail with a message — no
    // crashes, no silent empty successes.
    const std::vector<std::uint8_t> original = readBytes(kPlainFixture);
    for (std::size_t offset = 0; offset < ChampSimInstr::kBytes;
         offset += 3) {
        std::vector<std::uint8_t> bytes = original;
        bytes[offset] ^= 0xa5;
        const std::string path = tempPath("mutant.champsim");
        writeBytes(path, bytes);
        std::vector<ChampSimInstr> records;
        std::string error;
        const bool ok = readChampSimTrace(path, records, &error);
        if (ok)
            EXPECT_EQ(records.size(), original.size() / 64);
        else
            EXPECT_FALSE(error.empty());
        std::remove(path.c_str());
    }
}

TEST(TraceIngest, StemStripsKnownSuffixes)
{
    EXPECT_EQ(champSimTraceStem("stream_gups.champsim"),
              "stream_gups");
    EXPECT_EQ(champSimTraceStem("linked_walk.champsim.xz"),
              "linked_walk");
    EXPECT_EQ(champSimTraceStem("dir/sub/mcf_46B.champsim.xz"),
              "mcf_46B");
    EXPECT_EQ(champSimTraceStem("plain.xz"), "plain");
    EXPECT_EQ(champSimTraceStem("noext"), "noext");
}

// ---- golden cell ---------------------------------------------------

bool
updateGolden()
{
    const char *env = std::getenv("DOL_UPDATE_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** Mirrors test_golden_trace's snapshot formula (same per-cell DRAM
 *  seed, tracing on, counter-registry text) for the fixture cell. */
std::string
runTraceCellSnapshot()
{
    const char *workload = "trace:stream_gups";
    const char *prefetcher = "TPC+SPP";
    constexpr std::uint64_t kInstrs = 20000;

    SimConfig config;
    config.maxInstrs = kInstrs;
    config.mem.dram.rngSeed =
        runner::cellSeed(workload, prefetcher, "");
    ExperimentRunner runner(config);

    const WorkloadSpec spec = champSimWorkload(kPlainFixture);
    RunOptions options;
    options.collectCounters = true;
    options.tracePath = tempPath("golden.trc");
    const RunOutput out = runner.run(spec, prefetcher, options);

    std::string text = "dol-golden-v1 ";
    text += workload;
    text += ' ';
    text += prefetcher;
    text += " instrs=" + std::to_string(kInstrs) + "\n";
    text += out.counters.toText();
    std::remove(options.tracePath.c_str());
    return text;
}

TEST(TraceIngestGolden, StreamGupsTpcSppMatchesSnapshot)
{
    const std::string path = std::string(DOL_GOLDEN_DIR) +
                             "/trace_stream_gups.TPC+SPP.golden";
    const std::string actual = runTraceCellSnapshot();
    if (updateGolden()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << actual;
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        GTEST_SKIP() << "updated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good())
        << path << " missing - regenerate with DOL_UPDATE_GOLDEN=1";
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(expected.str(), actual)
        << "trace golden cell drifted; regenerate with "
           "DOL_UPDATE_GOLDEN=1 if intentional";
}

} // namespace
