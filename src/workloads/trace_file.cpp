#include "workloads/trace_file.hpp"

#include <cstring>
#include <filesystem>

#include "common/log.hpp"
#include "trace/trace_io.hpp"

namespace dol
{

namespace
{

/** On-disk header: the format magic, then the record count. */
struct TraceHeader
{
    char magic[8];
    std::uint64_t instructionCount;
};

static_assert(sizeof(TraceHeader) == 16, "stable on-disk layout");

TraceHeader
makeHeader(std::uint64_t instruction_count)
{
    TraceHeader header{};
    std::memcpy(header.magic, kInstrTraceMagic, sizeof header.magic);
    header.instructionCount = instruction_count;
    return header;
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
    const TraceHeader header = makeHeader(records.size());
    bool ok = std::fwrite(&header, sizeof header, 1, file) == 1;
    if (ok && !records.empty()) {
        ok = std::fwrite(records.data(), sizeof(TraceRecord),
                         records.size(), file) == records.size();
    }
    return std::fclose(file) == 0 && ok;
}

bool
readTraceRecords(const std::string &path, std::vector<TraceRecord> &out,
                 std::string *error)
{
    out.clear();
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    std::FILE *file = ec ? nullptr : std::fopen(path.c_str(), "rb");
    if (!file)
        return fail("cannot open trace file: " + path);

    TraceHeader header{};
    const bool whole =
        std::fread(&header, sizeof header, 1, file) == 1;
    if (!whole || std::memcmp(header.magic, kInstrTraceMagic,
                              sizeof header.magic) != 0) {
        std::fclose(file);
        if (whole && std::memcmp(header.magic, kTraceMagic,
                                 sizeof header.magic) == 0) {
            return fail(path + " is an event trace (DOLTRC01, written "
                               "by --trace), not an instruction trace "
                               "(DOLINS01); print it with --dump-trace");
        }
        return fail("not a dol instruction trace (DOLINS01): " + path);
    }
    if (header.instructionCount == 0) {
        std::fclose(file);
        return fail("empty trace: " + path);
    }
    // Check the count against the file before allocating for it.
    if (header.instructionCount >
        (size - sizeof header) / sizeof(TraceRecord)) {
        std::fclose(file);
        return fail("truncated trace file: " + path);
    }
    out.resize(header.instructionCount);
    const std::size_t read = std::fread(out.data(), sizeof(TraceRecord),
                                        out.size(), file);
    std::fclose(file);
    if (read != out.size()) {
        out.clear();
        return fail("truncated trace file: " + path);
    }
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
