/**
 * @file
 * Byte pins for every on-disk format and every derived seed: a
 * one-event DOLTRC01 trace, a one-record DOLINS01 trace, one packed
 * ChampSim record, a DOLCKPT1 journal, the sweep's cell seed and grid
 * hash, the fuzz campaign's case seeds, Rng's first outputs and the
 * flat tables' key mixer.
 *
 * A round-trip test cannot see a change made to a writer and its
 * reader together; these literals can. They hold the bytes every
 * earlier build wrote, so a file written before a codec change must
 * still match, and must still decode to the values it was written
 * from.
 */

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/fuzz_workload.hpp"
#include "common/flat_table.hpp"
#include "common/rng.hpp"
#include "runner/checkpoint.hpp"
#include "runner/sweep.hpp"
#include "trace/trace_io.hpp"
#include "workloads/suite.hpp"
#include "workloads/trace_file.hpp"
#include "workloads/trace_ingest.hpp"

namespace
{

using namespace dol;

std::string
hex(const unsigned char *data, std::size_t size)
{
    static const char kDigits[] = "0123456789abcdef";
    std::string out;
    for (std::size_t i = 0; i < size; ++i) {
        out.push_back(kDigits[data[i] >> 4]);
        out.push_back(kDigits[data[i] & 0xf]);
    }
    return out;
}

std::vector<unsigned char>
unhex(const std::string &text)
{
    std::vector<unsigned char> out;
    for (std::size_t i = 0; i + 1 < text.size(); i += 2)
        out.push_back(static_cast<unsigned char>(
            std::stoul(text.substr(i, 2), nullptr, 16)));
    return out;
}

std::string
pinPath(const std::string &name)
{
    return testing::TempDir() + "dol_format_pin_" + name;
}

std::string
fileHex(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::vector<unsigned char> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return hex(bytes.data(), bytes.size());
}

void
writeHex(const std::string &path, const std::string &text)
{
    const std::vector<unsigned char> bytes = unhex(text);
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

TraceEvent
pinnedEvent()
{
    TraceEvent event;
    event.cycle = 0x0102030405060708ull;
    event.addr = 0x1122334455667788ull;
    event.aux = 0xa1b2c3d4e5f60718ull;
    event.type = TraceEventType::kPrefetchUsed;
    event.comp = 3;
    event.level = 2;
    event.arg = 0x7f;
    return event;
}

const char kEventTraceHex[] =
    "444f4c5452433031" "01000000" "00000000"  // header
    "0203027f" "0807060504030201" "8877665544332211"
    "1807f6e5d4c3b2a1";

TEST(FormatPin, EventTraceFile)
{
    const std::string path = pinPath("event.trc");
    TraceWriter writer;
    ASSERT_TRUE(writer.open(path));
    writer.append(pinnedEvent());
    ASSERT_TRUE(writer.close());
    EXPECT_EQ(fileHex(path), kEventTraceHex);
    // The digest is trace.bytes_fnv64, pinned in every golden cell.
    EXPECT_EQ(writer.digest(), 0xe6995fbfe236b83dull);

    std::vector<TraceEvent> events;
    std::string error;
    writeHex(path, kEventTraceHex);
    ASSERT_TRUE(readTraceFile(path, events, &error)) << error;
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0], pinnedEvent());
    std::remove(path.c_str());
}

Instr
pinnedInstr()
{
    Instr instr;
    instr.pc = 0x400123;
    instr.op = Op::kBranch;
    instr.addr = 0x7fff0010;
    instr.value = 0xdeadbeefcafef00dull;
    instr.size = 4;
    instr.target = 0x400040;
    instr.taken = true;
    instr.mispredicted = true;
    instr.dst = 3;
    instr.src1 = 5;
    instr.src2 = 63;
    instr.latency = 7;
    return instr;
}

const char kInstrTraceHex[] =
    "444f4c494e533031010000000000000023014000000000001000ff7f00000000"
    "0df0fecaefbeadde4000400000000000030303053f040700";

TEST(FormatPin, InstrTraceFile)
{
    const std::string path = pinPath("instr.trc");
    ASSERT_TRUE(writeTraceRecords(
        path, {TraceRecord::pack(pinnedInstr())}));
    EXPECT_EQ(fileHex(path), kInstrTraceHex);

    std::vector<TraceRecord> records;
    std::string error;
    writeHex(path, kInstrTraceHex);
    ASSERT_TRUE(readTraceRecords(path, records, &error)) << error;
    ASSERT_EQ(records.size(), 1u);
    const Instr instr = records[0].unpack();
    const Instr want = pinnedInstr();
    EXPECT_EQ(instr.pc, want.pc);
    EXPECT_EQ(instr.op, want.op);
    EXPECT_EQ(instr.addr, want.addr);
    EXPECT_EQ(instr.value, want.value);
    EXPECT_EQ(instr.size, want.size);
    EXPECT_EQ(instr.target, want.target);
    EXPECT_EQ(instr.taken, want.taken);
    EXPECT_EQ(instr.mispredicted, want.mispredicted);
    EXPECT_EQ(instr.dst, want.dst);
    EXPECT_EQ(instr.src1, want.src1);
    EXPECT_EQ(instr.src2, want.src2);
    EXPECT_EQ(instr.latency, want.latency);
    std::remove(path.c_str());
}

const char kChampSimHex[] =
    "78563412007f0000010119001a06000000100000000000001032547698badcfe"
    "0020000000000000000000000000000000000000000000000830000000000000";

TEST(FormatPin, ChampSimRecord)
{
    ChampSimInstr record;
    record.ip = 0x00007f0012345678ull;
    record.isBranch = 1;
    record.branchTaken = 1;
    record.destRegs[0] = 25;
    record.srcRegs[0] = 26;
    record.srcRegs[1] = 6;
    record.destMem[0] = 0x1000;
    record.destMem[1] = 0xfedcba9876543210ull;
    record.srcMem[0] = 0x2000;
    record.srcMem[3] = 0x3008;

    std::uint8_t packed[ChampSimInstr::kBytes];
    record.pack(packed);
    EXPECT_EQ(hex(packed, sizeof packed), kChampSimHex);

    const std::vector<unsigned char> bytes = unhex(kChampSimHex);
    ASSERT_EQ(bytes.size(), ChampSimInstr::kBytes);
    const ChampSimInstr decoded = ChampSimInstr::unpack(bytes.data());
    EXPECT_EQ(decoded.ip, record.ip);
    EXPECT_EQ(decoded.isBranch, 1);
    EXPECT_EQ(decoded.branchTaken, 1);
    EXPECT_EQ(decoded.destRegs[0], 25);
    EXPECT_EQ(decoded.srcRegs[1], 6);
    EXPECT_EQ(decoded.destMem[1], record.destMem[1]);
    EXPECT_EQ(decoded.srcMem[0], record.srcMem[0]);
    EXPECT_EQ(decoded.srcMem[3], record.srcMem[3]);
}

runner::JournalJobDone
pinnedJob()
{
    runner::JournalJobDone job;
    job.jobIndex = 1;
    job.label = "TPC/mcf.syn:L1";
    job.variant = ":L1";
    job.seed = 0xfedcba9876543210ull;
    job.wallMs = 12.75;

    runner::MetricsRow row;
    row.workload = "mcf.syn";
    row.prefetcher = "TPC";
    row.variant = ":L1";
    row.seed = job.seed;
    row.baselineIpc = 0.5;
    row.ipc = 0.625;
    row.speedup = 1.25;
    row.baselineMpkiL1 = 33.25;
    row.prefetchesIssued = (1ull << 53) + 1;
    row.scope = 0.875;
    row.effAccuracyL1 = 0.5;
    row.effCoverageL1 = 0.25;
    row.effAccuracyL2 = -0.125;
    row.effCoverageL2 = 0.0625;
    row.trafficNormalized = 1.03125;
    row.instructions = 50000;
    row.counters.set("t2", "streams", 42);
    row.counters.set("trace", "bytes_fnv64", 0xabcdef0123456789ull);
    job.rows.push_back(std::move(row));
    return job;
}

const char kJournalHex[] =
    "444f4c434b5054310118000000f260218b86337a800200000000000000efcdab"
    "896745230150c300000000000002f3000000f830cbec3550613f010000000000"
    "00000e0000005450432f6d63662e73796e3a4c31030000003a4c311032547698"
    "badcfe000000000080294001000000070000006d63662e73796e030000005450"
    "43030000003a4c311032547698badcfe000000000000e03f000000000000e43f"
    "000000000000f43f0000000000a040400100000000002000000000000000ec3f"
    "000000000000e03f000000000000d03f000000000000c0bf000000000000b03f"
    "000000000080f03f50c300000000000002000000020000007432070000007374"
    "7265616d732a000000000000000500000074726163650b00000062797465735f"
    "666e7636348967452301efcdab";

TEST(FormatPin, CheckpointJournal)
{
    const std::string path = pinPath("journal.ckpt");
    runner::JournalPlan plan;
    plan.itemCount = 2;
    plan.gridHash = 0x0123456789abcdefull;
    plan.maxInstrs = 50000;
    {
        runner::CheckpointJournal journal;
        std::string error;
        ASSERT_TRUE(journal.create(path, plan, &error)) << error;
        ASSERT_TRUE(journal.appendJobDone(pinnedJob()));
        journal.close();
    }
    EXPECT_EQ(fileHex(path), kJournalHex);

    writeHex(path, kJournalHex);
    const runner::CheckpointJournal::Load load =
        runner::CheckpointJournal::load(path);
    ASSERT_TRUE(load.valid) << load.error;
    EXPECT_TRUE(load.cleanTail);
    ASSERT_TRUE(load.plan.has_value());
    EXPECT_TRUE(*load.plan == plan);
    ASSERT_EQ(load.jobs.size(), 1u);
    const runner::JournalJobDone want = pinnedJob();
    const runner::JournalJobDone &got = load.jobs[0];
    EXPECT_EQ(got.jobIndex, want.jobIndex);
    EXPECT_EQ(got.label, want.label);
    EXPECT_EQ(got.seed, want.seed);
    EXPECT_EQ(got.wallMs, want.wallMs);
    ASSERT_EQ(got.rows.size(), 1u);
    EXPECT_EQ(got.rows[0].prefetchesIssued,
              want.rows[0].prefetchesIssued);
    EXPECT_EQ(got.rows[0].effAccuracyL2, want.rows[0].effAccuracyL2);
    EXPECT_EQ(got.rows[0].counters.sorted(),
              want.rows[0].counters.sorted());
    std::remove(path.c_str());
}

TEST(FormatPin, CellSeed)
{
    EXPECT_EQ(runner::cellSeed("mcf.syn", "TPC", ":L1"),
              0xc950135b768b2e1eull);
}

TEST(FormatPin, GridHash)
{
    runner::SweepRunner sweep(SimConfig{});
    sweep.addCell(findWorkload("mcf.syn"), "TPC");
    sweep.addCell(findWorkload("libquantum.syn"), "SPP", {}, ":L1");
    const runner::JournalPlan plan = sweep.plan();
    EXPECT_EQ(plan.itemCount, 2u);
    EXPECT_EQ(plan.gridHash, 0x9e4af914bc6792ceull);
}

TEST(FormatPin, CaseSeeds)
{
    EXPECT_EQ(check::caseSeed(1, 0), 0xe9fd6049d65af21eull);
    EXPECT_EQ(check::caseSeed(1, 1), 0xe06dd043328bd285ull);
    EXPECT_EQ(check::caseSeed(1, 2), 0xec4c5bee627011b3ull);
}

TEST(FormatPin, RngFirstOutputs)
{
    Rng rng(42);
    EXPECT_EQ(rng.next(), 0x15780b2e0c2ec716ull);
    EXPECT_EQ(rng.next(), 0x6104d9866d113a7eull);
    EXPECT_EQ(rng.next(), 0xae17533239e499a1ull);
}

TEST(FormatPin, FlatHashMix)
{
    EXPECT_EQ(flatHashMix(1), 0x5692161d100b05e5ull);
    EXPECT_EQ(flatHashMix(2), 0xdbd238973a2b148aull);
    EXPECT_EQ(flatHashMix(3), 0x1e535eede31428f0ull);
}

} // namespace
