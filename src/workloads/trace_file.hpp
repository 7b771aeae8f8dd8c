/**
 * @file
 * Binary instruction-trace record/replay (the DOLINS01 format).
 *
 * Any kernel's instruction stream can be recorded to a compact binary
 * file and replayed later through a ReplayKernel — useful for sharing
 * workloads, pinning down regressions, and feeding externally captured
 * traces into the simulator (the record layout carries everything the
 * paper's mechanisms need: PCs, registers, values, and branch
 * structure). The file holds no heap: the ReplayKernel rebuilds it
 * from first-touch values, so a replay matches the recorded kernel's
 * run only if the recording touched every address the run's
 * prefetchers dereference. Record at least twice the replay budget;
 * a kernel that relinks its heap as it runs (shuflist.syn) can still
 * drift on long runs.
 *
 * Layout, little-endian through common/wire.hpp: the 8-byte magic
 * "DOLINS01", a u64 instruction count, then that many 40-byte
 * records: pc, addr, value and target as u64, then the bytes op,
 * flags, dst, src1, src2, size, latency and a zero pad. The event
 * traces of trace/trace_io.hpp ("DOLTRC01") are a different format;
 * each reader rejects the other's files by name.
 */

#ifndef DOL_WORKLOADS_TRACE_FILE_HPP
#define DOL_WORKLOADS_TRACE_FILE_HPP

#include <cstdio>
#include <string>
#include <vector>

#include "workloads/kernel.hpp"

namespace dol
{

/** One DOLINS01 record: the fields of Instr a replay needs. */
struct TraceRecord
{
    std::uint64_t pc;
    std::uint64_t addr;
    std::uint64_t value;
    std::uint64_t target;
    std::uint8_t op;
    std::uint8_t flags; ///< bit0 taken, bit1 mispredicted
    std::uint8_t dst;
    std::uint8_t src1;
    std::uint8_t src2;
    std::uint8_t size;
    std::uint8_t latency;

    static TraceRecord pack(const Instr &instr);
    Instr unpack() const;
};

/**
 * Record the next @p max_instrs instructions of @p kernel (its first
 * ones, for a freshly built kernel) to @p path through
 * writeTraceRecords. fatal() with an error naming @p path if the file
 * cannot be written in full.
 *
 * @return the number of instructions written.
 */
std::uint64_t recordTrace(Kernel &kernel, const std::string &path,
                          std::uint64_t max_instrs);

/**
 * Write @p records to @p path in the DOLINS01 trace format: the one
 * writer behind recordTrace and the fuzz shrinker's reproducers.
 * @return false if the open, any write, or the close fails.
 */
bool writeTraceRecords(const std::string &path,
                       const std::vector<TraceRecord> &records);

/**
 * Read every record of a DOLINS01 trace file.
 * @return false (with @p error set) on I/O or format problems: a
 *         missing file, another format's magic (an event trace is
 *         named as such), no records at all, fewer records than the
 *         header claims, or a record whose op byte is not an Op or
 *         whose flags byte has a bit other than taken/mispredicted
 *         (named by its index).
 */
bool readTraceRecords(const std::string &path,
                      std::vector<TraceRecord> &out,
                      std::string *error = nullptr);

/** Unpack @p records into the stream a ReplayKernel replays. */
std::vector<Instr>
unpackTraceRecords(const std::vector<TraceRecord> &records);

/** Decode the DOLINS01 file at @p path for a ReplayKernel (`--replay`);
 *  fatal() on any readTraceRecords error. */
std::vector<Instr> readInstrTrace(const std::string &path);

} // namespace dol

#endif // DOL_WORKLOADS_TRACE_FILE_HPP
