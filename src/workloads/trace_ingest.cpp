#include "workloads/trace_ingest.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_map>

#include "common/hash.hpp"
#include "common/wire.hpp"

namespace dol
{

namespace
{

/** Absurd-size guard: 4M records (256 MiB) is far beyond any fixture
 *  and catches garbage files whose size merely happens to be a
 *  multiple of the record size. */
constexpr std::uint64_t kMaxRecords = 1u << 22;

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Single-quote @p path for the shell (xz pipe). */
std::string
shellQuote(const std::string &path)
{
    std::string quoted = "'";
    for (const char c : path) {
        if (c == '\'')
            quoted += "'\\''";
        else
            quoted += c;
    }
    quoted += "'";
    return quoted;
}

bool
readRawBytes(const std::string &path, std::vector<std::uint8_t> &bytes,
             std::string *error)
{
    const bool compressed =
        path.size() > 3 && path.compare(path.size() - 3, 3, ".xz") == 0;
    if (!compressed) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            return fail(error, "cannot open trace: " + path);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
        return true;
    }

    const std::string command = "xz -dc " + shellQuote(path);
    FILE *pipe = ::popen(command.c_str(), "r");
    if (!pipe)
        return fail(error, "cannot spawn xz for: " + path);
    std::uint8_t chunk[1 << 16];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, pipe)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + got);
    const int status = ::pclose(pipe);
    if (status != 0)
        return fail(error, "xz decode failed for: " + path);
    return true;
}

/** ChampSim register slot -> simulated RegId. 0 is "no operand". */
RegId
mapReg(std::uint8_t reg, TraceIngestStats *stats)
{
    if (reg == 0)
        return kNoReg;
    if (reg >= kNumRegs) {
        if (stats)
            ++stats->clampedRegs;
        return static_cast<RegId>(reg % kNumRegs);
    }
    return static_cast<RegId>(reg);
}

} // namespace

void
ChampSimInstr::pack(std::uint8_t out[kBytes]) const
{
    std::memset(out, 0, kBytes);
    wire::storeU64(out, ip);
    out[8] = isBranch;
    out[9] = branchTaken;
    std::memcpy(out + 10, destRegs, kNumDestRegs);
    std::memcpy(out + 12, srcRegs, kNumSrcRegs);
    for (unsigned i = 0; i < kNumDestMem; ++i)
        wire::storeU64(out + 16 + 8 * i, destMem[i]);
    for (unsigned i = 0; i < kNumSrcMem; ++i)
        wire::storeU64(out + 32 + 8 * i, srcMem[i]);
}

ChampSimInstr
ChampSimInstr::unpack(const std::uint8_t in[kBytes])
{
    ChampSimInstr record;
    record.ip = wire::loadU64(in);
    record.isBranch = in[8];
    record.branchTaken = in[9];
    std::memcpy(record.destRegs, in + 10, kNumDestRegs);
    std::memcpy(record.srcRegs, in + 12, kNumSrcRegs);
    for (unsigned i = 0; i < kNumDestMem; ++i)
        record.destMem[i] = wire::loadU64(in + 16 + 8 * i);
    for (unsigned i = 0; i < kNumSrcMem; ++i)
        record.srcMem[i] = wire::loadU64(in + 32 + 8 * i);
    return record;
}

bool
readChampSimTrace(const std::string &path,
                  std::vector<ChampSimInstr> &out, std::string *error)
{
    std::vector<std::uint8_t> bytes;
    if (!readRawBytes(path, bytes, error))
        return false;

    if (bytes.empty())
        return fail(error, "empty trace: " + path);
    if (bytes.size() % ChampSimInstr::kBytes != 0) {
        return fail(error,
                    "truncated trace (" + std::to_string(bytes.size()) +
                        " bytes is not a multiple of " +
                        std::to_string(ChampSimInstr::kBytes) +
                        "): " + path);
    }
    const std::uint64_t count = bytes.size() / ChampSimInstr::kBytes;
    if (count > kMaxRecords) {
        return fail(error,
                    "trace too large (" + std::to_string(count) +
                        " records): " + path);
    }

    out.clear();
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const ChampSimInstr record = ChampSimInstr::unpack(
            bytes.data() + i * ChampSimInstr::kBytes);
        // Flag bytes are strictly 0/1 in well-formed traces; anything
        // else means we are not looking at a ChampSim trace at all.
        if (record.isBranch > 1 || record.branchTaken > 1) {
            return fail(error,
                        "garbage flags at record " + std::to_string(i) +
                            " (is_branch=" +
                            std::to_string(record.isBranch) +
                            " taken=" +
                            std::to_string(record.branchTaken) +
                            "): " + path);
        }
        out.push_back(record);
    }
    return true;
}

bool
writeChampSimTrace(const std::string &path,
                   const std::vector<ChampSimInstr> &records,
                   std::string *error)
{
    std::ofstream outfile(path, std::ios::binary | std::ios::trunc);
    if (!outfile)
        return fail(error, "cannot open for write: " + path);
    std::uint8_t buffer[ChampSimInstr::kBytes];
    for (const ChampSimInstr &record : records) {
        record.pack(buffer);
        outfile.write(reinterpret_cast<const char *>(buffer),
                      sizeof buffer);
    }
    outfile.flush();
    if (!outfile)
        return fail(error, "short write: " + path);
    return true;
}

std::vector<Instr>
expandChampSimTrace(const std::vector<ChampSimInstr> &records,
                    TraceIngestStats *stats)
{
    TraceIngestStats local;
    std::vector<Instr> instrs;
    instrs.reserve(records.size() * 2);

    // The deterministic heap model: current value per 8-byte slot.
    std::unordered_map<Addr, std::uint64_t> heap;
    const auto read_heap = [&](Addr addr) {
        return heap.try_emplace(addr, splitMix64(addr)).first->second;
    };

    for (std::size_t i = 0; i < records.size(); ++i) {
        const ChampSimInstr &record = records[i];
        ++local.records;

        RegId dst = kNoReg;
        for (const std::uint8_t reg : record.destRegs) {
            if ((dst = mapReg(reg, &local)) != kNoReg)
                break;
        }
        RegId base = kNoReg;
        RegId data = kNoReg;
        for (const std::uint8_t reg : record.srcRegs) {
            const RegId mapped = mapReg(reg, &local);
            if (mapped == kNoReg)
                continue;
            if (base == kNoReg)
                base = mapped;
            else if (data == kNoReg)
                data = mapped;
        }

        bool emitted_mem = false;
        for (const std::uint64_t addr : record.srcMem) {
            if (addr == 0)
                continue;
            instrs.push_back(
                makeLoad(record.ip, addr, read_heap(addr), dst, base));
            ++local.loads;
            emitted_mem = true;
        }
        for (const std::uint64_t addr : record.destMem) {
            if (addr == 0)
                continue;
            const std::uint64_t value =
                splitMix64(record.ip ^ splitMix64(addr ^ i));
            heap.insert_or_assign(addr, value);
            instrs.push_back(
                makeStore(record.ip, addr, value, data, base));
            ++local.stores;
            emitted_mem = true;
        }

        if (record.isBranch) {
            // ChampSim records carry no target; the next record's ip
            // is where the front end actually went. The final branch
            // closes the loop back to record zero, matching the
            // kernel's replay wrap-around.
            const Pc target = i + 1 < records.size()
                                  ? records[i + 1].ip
                                  : records.front().ip;
            instrs.push_back(makeBranch(record.ip, target,
                                        record.branchTaken != 0));
            ++local.branches;
        } else if (!emitted_mem) {
            instrs.push_back(makeAlu(record.ip, dst, base, data));
            ++local.alus;
        }
    }

    local.instrs = instrs.size();
    if (stats)
        *stats = local;
    return instrs;
}

std::string
champSimTraceStem(const std::string &filename)
{
    std::string stem = filename;
    const std::size_t slash = stem.find_last_of('/');
    if (slash != std::string::npos)
        stem = stem.substr(slash + 1);
    const auto strip = [&stem](const char *suffix) {
        const std::size_t len = std::strlen(suffix);
        if (stem.size() > len &&
            stem.compare(stem.size() - len, len, suffix) == 0) {
            stem.resize(stem.size() - len);
        }
    };
    strip(".xz");
    strip(".champsim");
    return stem;
}

} // namespace dol
