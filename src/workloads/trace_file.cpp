#include "workloads/trace_file.hpp"

#include <cstring>
#include <filesystem>

#include "common/log.hpp"
#include "common/wire.hpp"
#include "trace/trace_io.hpp"

namespace dol
{

namespace
{

constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kRecordBytes = 40;

/** Bits of TraceRecord::flags: taken, mispredicted. */
constexpr std::uint8_t kKnownFlags = 3;

void
encodeRecord(const TraceRecord &record, unsigned char *out)
{
    wire::storeU64(out, record.pc);
    wire::storeU64(out + 8, record.addr);
    wire::storeU64(out + 16, record.value);
    wire::storeU64(out + 24, record.target);
    const std::uint8_t tail[8] = {record.op,   record.flags,
                                  record.dst,  record.src1,
                                  record.src2, record.size,
                                  record.latency, 0};
    std::memcpy(out + 32, tail, sizeof tail);
}

TraceRecord
decodeRecord(const unsigned char *in)
{
    TraceRecord record;
    record.pc = wire::loadU64(in);
    record.addr = wire::loadU64(in + 8);
    record.value = wire::loadU64(in + 16);
    record.target = wire::loadU64(in + 24);
    record.op = in[32];
    record.flags = in[33];
    record.dst = in[34];
    record.src1 = in[35];
    record.src2 = in[36];
    record.size = in[37];
    record.latency = in[38];
    return record;
}

} // namespace

TraceRecord
TraceRecord::pack(const Instr &instr)
{
    TraceRecord record{};
    record.pc = instr.pc;
    record.addr = instr.addr;
    record.value = instr.value;
    record.target = instr.target;
    record.op = static_cast<std::uint8_t>(instr.op);
    record.flags = static_cast<std::uint8_t>(
        (instr.taken ? 1 : 0) | (instr.mispredicted ? 2 : 0));
    record.dst = instr.dst;
    record.src1 = instr.src1;
    record.src2 = instr.src2;
    record.size = instr.size;
    record.latency = instr.latency;
    return record;
}

Instr
TraceRecord::unpack() const
{
    Instr instr;
    instr.pc = pc;
    instr.addr = addr;
    instr.value = value;
    instr.target = target;
    instr.op = static_cast<Op>(op);
    instr.taken = flags & 1;
    instr.mispredicted = flags & 2;
    instr.dst = dst;
    instr.src1 = src1;
    instr.src2 = src2;
    instr.size = size;
    instr.latency = latency;
    return instr;
}

std::uint64_t
recordTrace(Kernel &kernel, const std::string &path,
            std::uint64_t max_instrs)
{
    std::vector<TraceRecord> records;
    Instr instr;
    while (records.size() < max_instrs && kernel.next(instr))
        records.push_back(TraceRecord::pack(instr));
    if (!writeTraceRecords(path, records))
        fatal("cannot write trace file: " + path);
    return records.size();
}

bool
writeTraceRecords(const std::string &path,
                  const std::vector<TraceRecord> &records)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        return false;
    unsigned char header[kHeaderBytes];
    std::memcpy(header, kInstrTraceMagic, sizeof kInstrTraceMagic);
    wire::storeU64(header + 8, records.size());
    bool ok = std::fwrite(header, sizeof header, 1, file) == 1;
    unsigned char bytes[kRecordBytes];
    for (std::size_t i = 0; ok && i < records.size(); ++i) {
        encodeRecord(records[i], bytes);
        ok = std::fwrite(bytes, sizeof bytes, 1, file) == 1;
    }
    return std::fclose(file) == 0 && ok;
}

bool
readTraceRecords(const std::string &path, std::vector<TraceRecord> &out,
                 std::string *error)
{
    out.clear();
    std::FILE *file = nullptr;
    const auto fail = [&](const std::string &what) {
        if (file)
            std::fclose(file);
        out.clear();
        if (error)
            *error = what;
        return false;
    };
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    file = ec ? nullptr : std::fopen(path.c_str(), "rb");
    if (!file)
        return fail("cannot open trace file: " + path);

    unsigned char header[kHeaderBytes];
    const bool whole = std::fread(header, sizeof header, 1, file) == 1;
    if (!whole || std::memcmp(header, kInstrTraceMagic,
                              sizeof kInstrTraceMagic) != 0) {
        if (whole &&
            std::memcmp(header, kTraceMagic, sizeof kTraceMagic) == 0) {
            return fail(path + " is an event trace (DOLTRC01, written "
                               "by --trace), not an instruction trace "
                               "(DOLINS01); print it with --dump-trace");
        }
        return fail("not a dol instruction trace (DOLINS01): " + path);
    }
    const std::uint64_t count = wire::loadU64(header + 8);
    if (count == 0)
        return fail("empty trace: " + path);
    // Check the count against the file before allocating for it.
    if (count > (size - kHeaderBytes) / kRecordBytes)
        return fail("truncated trace file: " + path);
    out.reserve(count);
    unsigned char bytes[kRecordBytes];
    for (std::uint64_t i = 0; i < count; ++i) {
        if (std::fread(bytes, sizeof bytes, 1, file) != 1)
            return fail("truncated trace file: " + path);
        const TraceRecord record = decodeRecord(bytes);
        // An unknown op would match no case of Core::step and retire
        // as an instruction that does nothing; no writer sets a flag
        // bit other than taken/mispredicted.
        if (record.op > static_cast<std::uint8_t>(Op::kReturn) ||
            (record.flags & ~kKnownFlags)) {
            return fail(path + ": record " + std::to_string(i) +
                        " is corrupt (op byte " +
                        std::to_string(record.op) + ", flags byte " +
                        std::to_string(record.flags) + ")");
        }
        out.push_back(record);
    }
    std::fclose(file);
    return true;
}

std::vector<Instr>
unpackTraceRecords(const std::vector<TraceRecord> &records)
{
    std::vector<Instr> instrs;
    instrs.reserve(records.size());
    for (const TraceRecord &record : records)
        instrs.push_back(record.unpack());
    return instrs;
}

std::vector<Instr>
readInstrTrace(const std::string &path)
{
    std::vector<TraceRecord> records;
    std::string error;
    if (!readTraceRecords(path, records, &error))
        fatal(error);
    return unpackTraceRecords(records);
}

} // namespace dol
