/**
 * @file
 * ChampSim-format trace ingestion: a frontend that replays real
 * program traces through the Kernel interface, so every prefetcher —
 * and especially the adaptive coordinator — can be evaluated on
 * recorded access streams instead of only synthetic generators.
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
 * address defines its value by a fixed hash, stores overwrite it —
 * and the first-touch values are baked into the MemoryImage at
 * construction so P1/PChase pointer dereferences observe the same
 * bytes the trace loads return. The whole stream is decoded once at
 * construction, so two kernels built from one file emit identical
 * streams, as the synthetic kernels do.
 */

#ifndef DOL_WORKLOADS_TRACE_INGEST_HPP
#define DOL_WORKLOADS_TRACE_INGEST_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/kernel.hpp"

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
 * Expand ChampSim records into the simulator's Instr stream and bake
 * each address's first-touch value into @p image (see file comment
 * for the value model).
 */
std::vector<Instr>
expandChampSimTrace(const std::vector<ChampSimInstr> &records,
                    MemoryImage &image,
                    TraceIngestStats *stats = nullptr);

/**
 * Kernel that replays a decoded ChampSim trace. Loops by default (the
 * simulator's instruction budget bounds the run); with looping off the
 * kernel exhausts after one pass.
 */
class TraceIngestKernel : public Kernel
{
  public:
    /** Decode @p path (fatal on a malformed trace). */
    TraceIngestKernel(MemoryImage &memory, const std::string &path,
                      bool loop = true);

    /** From pre-decoded records (tests). */
    TraceIngestKernel(MemoryImage &memory,
                      const std::vector<ChampSimInstr> &records,
                      bool loop = true, std::string name = "ctrace");

    const TraceIngestStats &stats() const { return _stats; }
    std::size_t instrCount() const { return _instrs.size(); }

  protected:
    bool generate() override;

  private:
    std::vector<Instr> _instrs;
    std::size_t _position = 0;
    bool _loop;
    TraceIngestStats _stats;
};

/** Strip ".champsim" / ".champsim.xz" / ".xz" from a filename. */
std::string champSimTraceStem(const std::string &filename);

} // namespace dol

#endif // DOL_WORKLOADS_TRACE_INGEST_HPP
