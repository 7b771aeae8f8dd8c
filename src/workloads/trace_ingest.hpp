/**
 * @file
 * ChampSim-format trace ingestion: a decoder that feeds real program
 * traces to the ReplayKernel, so every prefetcher — and especially
 * the adaptive coordinator — can be evaluated on recorded access
 * streams instead of only synthetic generators.
 *
 * The on-disk format is ChampSim's fixed 64-byte little-endian
 * instruction record (no header):
 *
 *   u64 ip; u8 is_branch; u8 branch_taken;
 *   u8 destination_registers[2]; u8 source_registers[4];
 *   u64 destination_memory[2];   u64 source_memory[4];
 *
 * `.xz`-compressed traces (the format ChampSim traces ship in) are
 * decoded through the system `xz` binary; plain files are read
 * directly. Register id 0 means "no operand" (ChampSim's empty slot);
 * ids at or above the simulated ISA's 64 registers are folded down
 * modulo kNumRegs and counted.
 *
 * Each record expands deterministically into the simulator's Instr
 * stream: one kLoad per source memory operand, one kStore per
 * destination memory operand, a kBranch (targeting the next record's
 * ip) for branch records, and a kAlu for records with neither. Load
 * values come from a deterministic heap model — first touch of an
 * address defines its value by a fixed hash, stores overwrite it. The
 * ReplayKernel writes each address's first-touch value into the
 * MemoryImage, so P1/PChase pointer dereferences observe the same
 * bytes the trace loads return. The stream is a pure function of the
 * file, so two kernels built from one file emit identical streams, as
 * the synthetic kernels do.
 */

#ifndef DOL_WORKLOADS_TRACE_INGEST_HPP
#define DOL_WORKLOADS_TRACE_INGEST_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/instr.hpp"

namespace dol
{

/** One decoded ChampSim instruction record. */
struct ChampSimInstr
{
    static constexpr std::size_t kBytes = 64;
    static constexpr unsigned kNumDestRegs = 2;
    static constexpr unsigned kNumSrcRegs = 4;
    static constexpr unsigned kNumDestMem = 2;
    static constexpr unsigned kNumSrcMem = 4;

    std::uint64_t ip = 0;
    std::uint8_t isBranch = 0;
    std::uint8_t branchTaken = 0;
    std::uint8_t destRegs[kNumDestRegs]{};
    std::uint8_t srcRegs[kNumSrcRegs]{};
    std::uint64_t destMem[kNumDestMem]{};
    std::uint64_t srcMem[kNumSrcMem]{};

    void pack(std::uint8_t out[kBytes]) const;
    static ChampSimInstr unpack(const std::uint8_t in[kBytes]);
};

/**
 * Read a ChampSim trace (plain or `.xz` by file suffix).
 *
 * Rejects, with a message in @p error: unreadable files, failed xz
 * decodes, byte counts that are not a multiple of the record size
 * (truncation), empty traces, flag bytes outside {0,1} (garbage), and
 * absurd record counts.
 */
bool readChampSimTrace(const std::string &path,
                       std::vector<ChampSimInstr> &out,
                       std::string *error = nullptr);

/** Write records in the same format (fixture generation, round-trip
 *  tests). Plain output only — never compresses. */
bool writeChampSimTrace(const std::string &path,
                        const std::vector<ChampSimInstr> &records,
                        std::string *error = nullptr);

/** Expansion statistics (tests and `--trace-in` reporting). */
struct TraceIngestStats
{
    std::uint64_t records = 0;
    std::uint64_t instrs = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t alus = 0;
    /** Register ids >= kNumRegs folded down modulo the ISA width. */
    std::uint64_t clampedRegs = 0;
};

/**
 * Expand ChampSim records into the simulator's Instr stream (see file
 * comment for the value model).
 */
std::vector<Instr>
expandChampSimTrace(const std::vector<ChampSimInstr> &records,
                    TraceIngestStats *stats = nullptr);

/** Strip ".champsim" / ".champsim.xz" / ".xz" from a filename. */
std::string champSimTraceStem(const std::string &filename);

} // namespace dol

#endif // DOL_WORKLOADS_TRACE_INGEST_HPP
