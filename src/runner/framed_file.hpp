/**
 * @file
 * Append-only framed record files: the durable container format
 * behind DOLCKPT1 checkpoint journals.
 *
 * Layout: an 8-byte magic, then records of
 *
 *     [type u8 | payload-length u32 | fnv64(payload) u64 | payload]
 *
 * all integers little-endian. The writer fsyncs after every append,
 * so at any kill point — SIGKILL included — the file holds a prefix
 * of whole records plus at most one torn tail. The reader returns
 * records one at a time in file order and stops at the first short,
 * oversized or checksum-failing record, reporting how many clean
 * bytes precede it; a resuming writer truncates the tail away before
 * appending.
 */

#ifndef DOL_RUNNER_FRAMED_FILE_HPP
#define DOL_RUNNER_FRAMED_FILE_HPP

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace dol::runner
{

/** Bytes before the payload: type u8 + length u32 + fnv64 u64. */
constexpr std::size_t kFrameEnvelopeBytes = 1 + 4 + 8;
constexpr std::size_t kFrameMagicBytes = 8;

/** Single-writer append side. Thread-safe; every append fsyncs. */
class FramedWriter
{
  public:
    FramedWriter() = default;
    ~FramedWriter() { close(); }

    FramedWriter(const FramedWriter &) = delete;
    FramedWriter &operator=(const FramedWriter &) = delete;

    /** Truncate/create @p path and write the 8-byte @p magic. */
    bool create(const std::string &path, const char (&magic)[8],
                std::string *error = nullptr);

    /**
     * Reopen an existing file for appending, first truncating it to
     * @p good_bytes (from a reader's goodBytes()) so a torn tail from
     * a previous crash never precedes new records.
     */
    bool openAppend(const std::string &path, std::uint64_t good_bytes,
                    std::string *error = nullptr);

    /**
     * Append + fsync one record. The fsync is the crash-safety
     * point: once this returns true, a SIGKILL cannot lose the
     * record.
     */
    bool appendRecord(std::uint8_t type, const std::string &payload);

    bool isOpen() const { return _file != nullptr; }
    void close();

  private:
    std::mutex _mutex;
    std::FILE *_file = nullptr;
};

/** Reader side: records come back one at a time in file order. */
class FramedReader
{
  public:
    struct Record
    {
        std::uint8_t type = 0;
        std::string payload;
    };

    FramedReader() = default;
    ~FramedReader() { close(); }

    FramedReader(const FramedReader &) = delete;
    FramedReader &operator=(const FramedReader &) = delete;

    /**
     * Open @p path and check the magic. False, with the reader
     * closed, for a missing file (fileExists()==false) and for a file
     * of another format (fileExists()==true).
     */
    bool open(const std::string &path, const char (&magic)[8]);

    /**
     * Read the next intact record. False at clean end-of-file or at
     * a torn/corrupt tail (distinguish with tornTail()); never
     * throws, never blocks on malformed input, and never allocates
     * more than the file holds.
     */
    bool next(Record &out);

    bool fileExists() const { return _fileExists; }
    /** A torn/corrupt tail was hit (only meaningful after next()
     *  returned false). */
    bool tornTail() const { return _tornTail; }
    /** Bytes of clean prefix (magic + whole verified records). */
    std::uint64_t goodBytes() const { return _goodBytes; }

    void close();

  private:
    std::FILE *_file = nullptr;
    bool _fileExists = false;
    bool _tornTail = false;
    /** Clean prefix so far, which is also the read position. */
    std::uint64_t _goodBytes = 0;
};

} // namespace dol::runner

#endif // DOL_RUNNER_FRAMED_FILE_HPP
