/**
 * @file
 * Compact binary trace format and its writer/reader.
 *
 * Wire layout (all little-endian, independent of host endianness):
 *
 *   header  "DOLTRC01" (8 bytes magic) + u32 version + u32 reserved
 *   record  type u8 | comp u8 | level u8 | arg u8 |
 *           cycle u64 | addr u64 | aux u64            (28 bytes)
 *
 * The stream carries no timestamps, hostnames, or job counts, so the
 * bytes of a trace depend only on the simulated cell — `--jobs 1` and
 * `--jobs N` sweeps of the same cell write identical files. The
 * reader returns clean errors (never crashes) on truncated or garbage
 * input; readTraceFile / dumpTraceText give tools a one-call surface.
 */

#ifndef DOL_TRACE_TRACE_IO_HPP
#define DOL_TRACE_TRACE_IO_HPP

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "trace/event.hpp"

namespace dol
{

constexpr char kTraceMagic[8] = {'D', 'O', 'L', 'T', 'R', 'C', '0', '1'};
/** Magic of the instruction-trace format (--record/--replay and fuzz
 *  reproducers, workloads/trace_file.hpp). Its header is also 16
 *  bytes, so each reader checks for the other's magic and names the
 *  format it was handed instead of misparsing it. */
constexpr char kInstrTraceMagic[8] = {'D', 'O', 'L', 'I',
                                      'N', 'S', '0', '1'};
constexpr std::uint32_t kTraceVersion = 1;
constexpr std::size_t kTraceHeaderBytes = 16;
constexpr std::size_t kTraceRecordBytes = 28;

/** Serialize one event into exactly kTraceRecordBytes at @p out. */
void encodeTraceEvent(const TraceEvent &event, unsigned char *out);

/** Decode one record; false when `type` is out of range. */
bool decodeTraceEvent(const unsigned char *in, TraceEvent &out);

/**
 * Buffered binary trace writer. Construct with a path (empty = in
 * memory only), append events, close(). The running FNV-1a digest of
 * the record bytes is available at any time — golden snapshots use it
 * to detect reorderings that leave per-type counts unchanged.
 */
class TraceWriter
{
  public:
    TraceWriter() = default;
    explicit TraceWriter(const std::string &path) { open(path); }
    ~TraceWriter() { close(); }

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Open @p path for writing; false (with error set) on failure. */
    bool open(const std::string &path);

    void append(const TraceEvent &event);

    std::uint64_t eventCount() const { return _count; }
    std::uint64_t digest() const { return _digest; }

    bool ok() const { return _ok; }
    const std::string &error() const { return _error; }

    /** Flush and close the file; false if any write failed. */
    bool close();

  private:
    void flushBuffer();

    std::FILE *_file = nullptr;
    std::string _buffer;
    std::uint64_t _count = 0;
    std::uint64_t _digest = kFnv64Basis;
    bool _ok = true;
    std::string _error;
};

/**
 * Streaming trace reader. Validates the header on open; next()
 * yields records until the stream ends. A file that ends mid-record
 * or carries a bad magic/version sets error() and stops — it never
 * crashes or fabricates events.
 */
class TraceReader
{
  public:
    TraceReader() = default;
    explicit TraceReader(const std::string &path) { open(path); }
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** Open and validate the header; false + error() on failure. */
    bool open(const std::string &path);

    /** Read the next record; false at end of stream or on error. */
    bool next(TraceEvent &out);

    /** Empty when the stream ended cleanly. */
    const std::string &error() const { return _error; }
    bool ok() const { return _error.empty(); }

  private:
    std::FILE *_file = nullptr;
    std::uint64_t _read = 0;
    std::string _error;
};

/**
 * Read a whole trace file into memory.
 * @return false + error when the header is invalid or a record is
 *         truncated/corrupt; events read before the error are kept.
 */
bool readTraceFile(const std::string &path,
                   std::vector<TraceEvent> &out,
                   std::string *error = nullptr);

/** One human-readable line per event ("cycle type comp ..."). */
std::string traceEventToText(const TraceEvent &event);

/**
 * Text dump mode: stream @p path to @p out, one line per event.
 * @return false + error on unreadable input (partial dump printed).
 */
bool dumpTraceText(const std::string &path, std::FILE *out,
                   std::string *error = nullptr);

} // namespace dol

#endif // DOL_TRACE_TRACE_IO_HPP
