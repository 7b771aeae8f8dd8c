/**
 * @file
 * Input-hardening tests: the strict CLI parsing helpers behind
 * dolsim's flags (splitCommas, parseUnsigned, --shard, per-cell trace
 * paths) and the trace files dolsim reads (--replay, --dump-trace)
 * handed the other trace format — malformed input must produce clean
 * errors, never crashes or silently wrapped values.
 */

#include <climits>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mem/memory_image.hpp"
#include "runner/cli.hpp"
#include "trace/trace_io.hpp"
#include "workloads/trace_file.hpp"

namespace
{

using namespace dol::runner;

TEST(SplitCommas, SplitsAndSkipsEmptyTokens)
{
    EXPECT_EQ(splitCommas("TPC,SPP,BOP"),
              (std::vector<std::string>{"TPC", "SPP", "BOP"}));
    EXPECT_EQ(splitCommas("TPC"), (std::vector<std::string>{"TPC"}));
    EXPECT_EQ(splitCommas("TPC,,SPP"),
              (std::vector<std::string>{"TPC", "SPP"}));
    EXPECT_EQ(splitCommas(",TPC,"), (std::vector<std::string>{"TPC"}));
    EXPECT_TRUE(splitCommas("").empty());
    EXPECT_TRUE(splitCommas(",,,").empty());
}

TEST(ParseUnsigned, AcceptsPlainDecimal)
{
    std::uint64_t out = 0;
    EXPECT_TRUE(parseUnsigned("0", out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(parseUnsigned("200000", out));
    EXPECT_EQ(out, 200000u);
    EXPECT_TRUE(parseUnsigned("18446744073709551615", out));
    EXPECT_EQ(out, UINT64_MAX);
}

TEST(ParseUnsigned, RejectsWhatStrtoulWouldAccept)
{
    std::uint64_t out = 41;
    // strtoul("-1") silently wraps to UINT64_MAX; we must refuse.
    EXPECT_FALSE(parseUnsigned("-1", out));
    EXPECT_FALSE(parseUnsigned("+4", out));
    EXPECT_FALSE(parseUnsigned(" 4", out));
    EXPECT_FALSE(parseUnsigned("4 ", out));
    EXPECT_FALSE(parseUnsigned("0x10", out));
    EXPECT_FALSE(parseUnsigned("1e3", out));
    EXPECT_FALSE(parseUnsigned("", out));
    EXPECT_FALSE(parseUnsigned("12abc", out));
    // One past UINT64_MAX and far past: both overflow cleanly.
    EXPECT_FALSE(parseUnsigned("18446744073709551616", out));
    EXPECT_FALSE(parseUnsigned("99999999999999999999999", out));
    EXPECT_EQ(out, 41u) << "out must be untouched on failure";
}

TEST(ParseUnsignedInRange, EnforcesBothBounds)
{
    std::uint64_t out = 7;
    EXPECT_TRUE(parseUnsignedInRange("4096", 0, 4096, out));
    EXPECT_EQ(out, 4096u);
    EXPECT_FALSE(parseUnsignedInRange("4097", 0, 4096, out));
    EXPECT_FALSE(parseUnsignedInRange("0", 1, UINT64_MAX, out));
    EXPECT_TRUE(parseUnsignedInRange("1", 1, UINT64_MAX, out));
    EXPECT_FALSE(parseUnsignedInRange("-1", 0, 4096, out));
    EXPECT_FALSE(parseUnsignedInRange("", 0, 4096, out));
}

TEST(ParseCoordinatorMode, AcceptsExactlyTheTwoModes)
{
    bool adaptive = true;
    EXPECT_TRUE(parseCoordinatorMode("hardwired", adaptive));
    EXPECT_FALSE(adaptive);
    EXPECT_TRUE(parseCoordinatorMode("adaptive", adaptive));
    EXPECT_TRUE(adaptive);
}

TEST(ParseCoordinatorMode, RejectsUnknownAndEmptyModes)
{
    // A typo must fail loudly, never silently fall back to the
    // hardwired default — and the out-param must stay untouched.
    bool untouched = true;
    EXPECT_FALSE(parseCoordinatorMode("", untouched));
    EXPECT_FALSE(parseCoordinatorMode("Adaptive", untouched));
    EXPECT_FALSE(parseCoordinatorMode("ADAPTIVE", untouched));
    EXPECT_FALSE(parseCoordinatorMode("adaptive ", untouched));
    EXPECT_FALSE(parseCoordinatorMode("auto", untouched));
    EXPECT_FALSE(parseCoordinatorMode("hardwire", untouched));
    EXPECT_TRUE(untouched);
}

TEST(ParseShard, AcceptsIndexBelowCount)
{
    std::uint64_t index = 9, count = 9;
    EXPECT_TRUE(parseShard("0/1", index, count));
    EXPECT_EQ(index, 0u);
    EXPECT_EQ(count, 1u);
    EXPECT_TRUE(parseShard("2/3", index, count));
    EXPECT_EQ(index, 2u);
    EXPECT_EQ(count, 3u);
}

TEST(ParseShard, RejectsMalformedAndOutOfRangeShards)
{
    for (const char *bad : {"", "/", "1", "3/3", "0/0", "-1/3", "1/-3",
                            "1/3x", "a/3", "1//3", " 1/3", "1/65537"}) {
        std::uint64_t index = 7, count = 7;
        EXPECT_FALSE(parseShard(bad, index, count)) << bad;
        EXPECT_EQ(index, 7u) << bad;
        EXPECT_EQ(count, 7u) << bad;
    }
}

TEST(CellTracePath, ComposesPerCellNames)
{
    EXPECT_EQ(cellTracePath("run.trc", "mcf.syn", "TPC", ""),
              "run.trc.mcf.syn.TPC");
    EXPECT_EQ(cellTracePath("run.trc", "mcf.syn", "TPC", ":l2"),
              "run.trc.mcf.syn.TPC:l2");
    // Distinct cells must never share a file (writer exclusivity).
    EXPECT_NE(cellTracePath("t", "a.syn", "TPC", ""),
              cellTracePath("t", "a.syn", "SPP", ""));
    // A '/' in a prefetcher or workload name must not turn the cell's
    // file into a path under a directory that does not exist; the
    // base keeps its own directories.
    EXPECT_EQ(cellTracePath("run.trc", "mcf.syn", "GHB-PC/DC", ""),
              "run.trc.mcf.syn.GHB-PC-DC");
    EXPECT_EQ(cellTracePath("run2.trc", "replay:dir/x.trc", "TPC", ""),
              "run2.trc.replay:dir-x.trc.TPC");
    EXPECT_EQ(cellTracePath("out/run.trc", "mcf.syn", "TPC+SPP", ":l2"),
              "out/run.trc.mcf.syn.TPC+SPP:l2");
}

// ---------------------------------------------------------------------
// Trace files handed to the wrong flag
// ---------------------------------------------------------------------

std::string
crossFormatPath(const std::string &name)
{
    return testing::TempDir() + "dol_cli_" + name;
}

TEST(TraceFormatCli, ReplayOfAnEventTraceExitsWithAFormatError)
{
    const std::string path = crossFormatPath("event.trc");
    {
        dol::TraceWriter writer;
        ASSERT_TRUE(writer.open(path));
        writer.append(dol::TraceEvent{});
        ASSERT_TRUE(writer.close());
    }
    // --replay decodes the file exactly this way.
    EXPECT_EXIT(
        {
            dol::MemoryImage image;
            dol::ReplayKernel kernel(image, path,
                                     dol::readInstrTrace(path));
        },
        testing::ExitedWithCode(1), "is an event trace");
    std::remove(path.c_str());
}

TEST(TraceFormatCli, DumpTraceOfAnInstructionTraceIsAFormatError)
{
    const std::string path = crossFormatPath("instr.trc");
    ASSERT_TRUE(dol::writeTraceRecords(
        path, std::vector<dol::TraceRecord>(1)));
    std::FILE *sink = std::tmpfile();
    ASSERT_NE(sink, nullptr);
    std::string error;
    // --dump-trace prints through exactly this call.
    EXPECT_FALSE(dol::dumpTraceText(path, sink, &error));
    EXPECT_NE(error.find("is an instruction trace"), std::string::npos)
        << error;
    EXPECT_EQ(std::ftell(sink), 0L) << "no event may be printed";
    std::fclose(sink);
    std::remove(path.c_str());
}

} // namespace
