/**
 * @file
 * Trace subsystem tests: event encode/decode round-trips, the
 * writer/reader pair on real files, deterministic fuzz over truncated
 * and garbage inputs (clean errors, never crashes), cross-format
 * rejection between event (DOLTRC01) and instruction (DOLINS01)
 * traces, the counter registry, and the TraceContext tally/sink
 * semantics.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "trace/context.hpp"
#include "trace/counters.hpp"
#include "trace/trace_io.hpp"
#include "workloads/trace_file.hpp"

namespace
{

using namespace dol;

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "dol_trace_" + name;
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Deterministic xorshift64 — fuzz inputs must be reproducible. */
struct Rng
{
    std::uint64_t state;
    std::uint64_t
    next()
    {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    }
};

TraceEvent
makeEvent(std::uint64_t i)
{
    TraceEvent event{};
    event.type = static_cast<TraceEventType>(
        i % static_cast<std::uint64_t>(kNumTraceEventTypes));
    event.cycle = i * 977;
    event.addr = 0x1000000000ull + i * 64;
    event.aux = ~i;
    event.comp = static_cast<std::uint8_t>(i % 7);
    event.level = static_cast<std::uint8_t>(i % 3);
    event.arg = static_cast<std::uint8_t>(i % 5);
    return event;
}

TEST(TraceEventCodec, RoundTripsEveryField)
{
    for (std::uint64_t i = 0; i < 200; ++i) {
        const TraceEvent event = makeEvent(i);
        unsigned char wire[kTraceRecordBytes];
        encodeTraceEvent(event, wire);
        TraceEvent back{};
        ASSERT_TRUE(decodeTraceEvent(wire, back));
        EXPECT_EQ(event, back) << "event " << i;
    }
}

TEST(TraceEventCodec, RejectsOutOfRangeType)
{
    unsigned char wire[kTraceRecordBytes] = {};
    wire[0] = static_cast<unsigned char>(kNumTraceEventTypes);
    TraceEvent back{};
    EXPECT_FALSE(decodeTraceEvent(wire, back));
    wire[0] = 0xff;
    EXPECT_FALSE(decodeTraceEvent(wire, back));
}

TEST(TraceEventCodec, EveryTypeHasAName)
{
    for (unsigned i = 0; i < kNumTraceEventTypes; ++i) {
        const char *name =
            traceEventName(static_cast<TraceEventType>(i));
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::strlen(name), 0u);
    }
}

TEST(TraceWriterReader, RoundTripsThroughFile)
{
    const std::string path = tempPath("roundtrip.trc");
    std::vector<TraceEvent> written;
    {
        TraceWriter writer;
        ASSERT_TRUE(writer.open(path));
        for (std::uint64_t i = 0; i < 1000; ++i) {
            written.push_back(makeEvent(i));
            writer.append(written.back());
        }
        EXPECT_EQ(writer.eventCount(), 1000u);
        ASSERT_TRUE(writer.close()) << writer.error();
    }
    std::vector<TraceEvent> read;
    std::string error;
    ASSERT_TRUE(readTraceFile(path, read, &error)) << error;
    EXPECT_EQ(read, written);
    std::remove(path.c_str());
}

TEST(TraceWriterReader, DigestMatchesFileBytes)
{
    const std::string path = tempPath("digest.trc");
    TraceWriter writer;
    ASSERT_TRUE(writer.open(path));
    for (std::uint64_t i = 0; i < 64; ++i)
        writer.append(makeEvent(i));
    const std::uint64_t digest = writer.digest();
    ASSERT_TRUE(writer.close());

    const std::string bytes = readBytes(path);
    ASSERT_EQ(bytes.size(),
              kTraceHeaderBytes + 64 * kTraceRecordBytes);
    // The digest covers record bytes only, not the header.
    EXPECT_EQ(fnv64(bytes.data() + kTraceHeaderBytes,
                    bytes.size() - kTraceHeaderBytes),
              digest);
    std::remove(path.c_str());
}

TEST(TraceWriterReader, EmptyTraceIsValid)
{
    const std::string path = tempPath("empty.trc");
    TraceWriter writer;
    ASSERT_TRUE(writer.open(path));
    ASSERT_TRUE(writer.close());
    std::vector<TraceEvent> read;
    std::string error;
    EXPECT_TRUE(readTraceFile(path, read, &error)) << error;
    EXPECT_TRUE(read.empty());
    std::remove(path.c_str());
}

TEST(TraceReaderFuzz, MissingFileIsCleanError)
{
    TraceReader reader;
    EXPECT_FALSE(reader.open(tempPath("does_not_exist.trc")));
    EXPECT_FALSE(reader.error().empty());
}

TEST(TraceReaderFuzz, TruncatedAtEveryPrefixNeverCrashes)
{
    const std::string path = tempPath("full.trc");
    {
        TraceWriter writer;
        ASSERT_TRUE(writer.open(path));
        for (std::uint64_t i = 0; i < 8; ++i)
            writer.append(makeEvent(i));
        ASSERT_TRUE(writer.close());
    }
    const std::string bytes = readBytes(path);
    const std::string cut = tempPath("cut.trc");
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeBytes(cut, bytes.substr(0, len));
        std::vector<TraceEvent> events;
        std::string error;
        const bool ok = readTraceFile(cut, events, &error);
        if (len < kTraceHeaderBytes) {
            EXPECT_FALSE(ok) << "len " << len;
            EXPECT_FALSE(error.empty()) << "len " << len;
        } else if ((len - kTraceHeaderBytes) % kTraceRecordBytes) {
            // Ends mid-record: whole records before the cut are
            // kept, the partial tail is a reported error.
            EXPECT_FALSE(ok) << "len " << len;
            EXPECT_EQ(events.size(),
                      (len - kTraceHeaderBytes) / kTraceRecordBytes);
        } else {
            EXPECT_TRUE(ok) << "len " << len << ": " << error;
        }
    }
    std::remove(path.c_str());
    std::remove(cut.c_str());
}

TEST(TraceReaderFuzz, GarbageBytesNeverCrash)
{
    const std::string path = tempPath("garbage.trc");
    Rng rng{0x5eedf00dULL};
    for (int round = 0; round < 64; ++round) {
        const std::size_t size = rng.next() % 512;
        std::string bytes(size, '\0');
        for (char &c : bytes)
            c = static_cast<char>(rng.next());
        // Half the rounds get a valid header so record parsing runs.
        if (round % 2 == 0 && bytes.size() >= kTraceHeaderBytes) {
            std::memcpy(bytes.data(), kTraceMagic,
                        sizeof kTraceMagic);
            bytes[8] = 1; // version 1, little-endian
            bytes[9] = bytes[10] = bytes[11] = 0;
        }
        writeBytes(path, bytes);
        std::vector<TraceEvent> events;
        std::string error;
        const bool ok = readTraceFile(path, events, &error);
        if (!ok) {
            EXPECT_FALSE(error.empty()) << "round " << round;
        }
    }
    std::remove(path.c_str());
}

TEST(TraceReaderFuzz, WrongMagicAndVersionRejected)
{
    const std::string path = tempPath("magic.trc");
    std::string header(kTraceHeaderBytes, '\0');
    std::memcpy(header.data(), "NOTATRCE", 8);
    writeBytes(path, header);
    TraceReader reader;
    EXPECT_FALSE(reader.open(path));
    EXPECT_NE(reader.error().find("magic"), std::string::npos)
        << reader.error();

    std::memcpy(header.data(), kTraceMagic, sizeof kTraceMagic);
    header[8] = 99; // version
    writeBytes(path, header);
    TraceReader reader2;
    EXPECT_FALSE(reader2.open(path));
    EXPECT_NE(reader2.error().find("version"), std::string::npos)
        << reader2.error();
    std::remove(path.c_str());
}

TEST(TraceReaderFuzz, InstructionTraceIsRejectedByName)
{
    // Same 16-byte header shape, different format: the event reader
    // must name the instruction trace instead of decoding its header
    // count and records as events.
    const std::string path = tempPath("instr_as_event.trc");
    std::vector<TraceRecord> records(1);
    records[0].pc = 0x400000;
    ASSERT_TRUE(writeTraceRecords(path, records));

    TraceReader reader;
    EXPECT_FALSE(reader.open(path));
    EXPECT_NE(reader.error().find("instruction trace"),
              std::string::npos)
        << reader.error();
    std::vector<TraceEvent> events;
    std::string error;
    EXPECT_FALSE(readTraceFile(path, events, &error));
    EXPECT_TRUE(events.empty());
    std::remove(path.c_str());
}

TEST(TraceFileFormat, EventTraceIsRejectedByName)
{
    const std::string path = tempPath("event_as_instr.trc");
    {
        TraceWriter writer;
        ASSERT_TRUE(writer.open(path));
        for (std::uint64_t i = 0; i < 4; ++i)
            writer.append(makeEvent(i));
        ASSERT_TRUE(writer.close());
    }
    std::vector<TraceRecord> records;
    std::string error;
    EXPECT_FALSE(readTraceRecords(path, records, &error));
    EXPECT_TRUE(records.empty());
    EXPECT_NE(error.find("event trace"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(TraceFileFormat, OverstatedCountIsTruncationNotAnAllocation)
{
    // A header claiming 2^60 records over a one-record file must fail
    // as a truncation before anything is allocated.
    const std::string path = tempPath("instr_overstated.trc");
    ASSERT_TRUE(writeTraceRecords(path, std::vector<TraceRecord>(1)));
    std::string bytes = readBytes(path);
    bytes[15] = 0x10; // high byte of the u64 count (little-endian)
    writeBytes(path, bytes);
    std::vector<TraceRecord> records;
    std::string error;
    EXPECT_FALSE(readTraceRecords(path, records, &error));
    EXPECT_NE(error.find("truncated"), std::string::npos) << error;
    std::remove(path.c_str());
}

TEST(TraceFileFormat, CorruptOpOrFlagsByteIsRejected)
{
    // A one-record file, then its op byte (record offset 32) set to 6,
    // one past Op::kReturn, or its flags byte (offset 33) given a bit
    // other than taken/mispredicted: a file this format never holds.
    const std::string path = tempPath("instr_corrupt.trc");
    ASSERT_TRUE(writeTraceRecords(path, std::vector<TraceRecord>(1)));
    const std::string clean = readBytes(path);
    ASSERT_EQ(clean.size(), 16u + 40u);
    for (const auto &[offset, value] :
         {std::pair<std::size_t, char>{16 + 32, 6},
          std::pair<std::size_t, char>{16 + 33, 4}}) {
        std::string bytes = clean;
        bytes[offset] = value;
        writeBytes(path, bytes);
        std::vector<TraceRecord> records;
        std::string error;
        EXPECT_FALSE(readTraceRecords(path, records, &error))
            << "byte " << offset;
        EXPECT_TRUE(records.empty());
        EXPECT_NE(error.find(path + ": record 0 is corrupt"),
                  std::string::npos)
            << error;
    }
    std::remove(path.c_str());
}

TEST(TraceContextTallies, CountsPerTypeWithoutSink)
{
    TraceContext ctx;
    ctx.record(TraceEventType::kCacheMiss, 10, 0x40);
    ctx.record(TraceEventType::kCacheMiss, 11, 0x80);
    ctx.record(TraceEventType::kPrefetchIssued, 12, 0xc0);
    EXPECT_EQ(ctx.eventCount(TraceEventType::kCacheMiss), 2u);
    EXPECT_EQ(ctx.eventCount(TraceEventType::kPrefetchIssued), 1u);
    EXPECT_EQ(ctx.eventCount(TraceEventType::kCacheHit), 0u);
    EXPECT_EQ(ctx.totalEvents(), 3u);

    CounterRegistry registry;
    ctx.exportEventCounts(registry);
    const auto flat = registry.sorted();
    ASSERT_EQ(flat.size(), 2u); // only non-zero types exported
    EXPECT_EQ(flat[0].first, std::string("trace.cache_miss"));
    EXPECT_EQ(flat[0].second, 2u);
}

TEST(TraceContextTallies, SinkReceivesEveryEvent)
{
    TraceContext ctx;
    MemoryTraceSink sink;
    ctx.setSink(&sink);
    for (std::uint64_t i = 0; i < 20; ++i)
        ctx.record(TraceEventType::kCacheHit, i, i * 64, i, 1, 0, 2);
    ASSERT_EQ(sink.events.size(), 20u);
    EXPECT_EQ(sink.events[7].cycle, 7u);
    EXPECT_EQ(sink.events[7].addr, 7u * 64);
    EXPECT_EQ(sink.events[7].arg, 2u);
}

TEST(TraceContextTallies, NullContextMacroIsSafe)
{
    TraceContext *ctx = nullptr;
    DOL_TRACE_EVENT(ctx, TraceEventType::kCacheMiss, 1, 2); // must not dereference
    SUCCEED();
}

TEST(CounterRegistry, SortedAndText)
{
    CounterRegistry registry;
    registry.counter("T2", "streams") = 5;
    registry.set("C1", "regions", 7);
    ++registry.counter("T2", "streams");
    EXPECT_EQ(registry.size(), 2u);
    const auto flat = registry.sorted();
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_EQ(flat[0].first, std::string("C1.regions"));
    EXPECT_EQ(flat[1].first, std::string("T2.streams"));
    EXPECT_EQ(flat[1].second, 6u);
    EXPECT_EQ(registry.toText(), "C1.regions 7\nT2.streams 6\n");
    registry.clear();
    EXPECT_TRUE(registry.empty());
}

TEST(Fnv64, MatchesKnownVector)
{
    // FNV-1a 64 of "a" is 0xaf63dc4c8601ec8c.
    EXPECT_EQ(fnv64("a", 1), 0xaf63dc4c8601ec8cull);
    // Seeded chaining equals one-shot hashing.
    const char text[] = "division of labor";
    const std::uint64_t whole = fnv64(text, sizeof text - 1);
    const std::uint64_t split =
        fnv64(text + 5, sizeof text - 6, fnv64(text, 5));
    EXPECT_EQ(split, whole);
}

} // namespace
