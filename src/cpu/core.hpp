/**
 * @file
 * The timing core: a dataflow approximation of the 4-wide out-of-order
 * processor in Table I.
 *
 * The model processes the retire stream in order but computes, per
 * instruction, a dispatch time (bounded by front-end width and ROB
 * occupancy), an issue time (bounded by register dependences and LSQ
 * occupancy for memory operations), and a finish time. Dependent loads
 * therefore serialize (pointer chasing pays full round trips) while
 * independent strided loads overlap up to the MSHR limit — exactly the
 * behaviours the paper's prefetcher components exploit.
 */

#ifndef DOL_CPU_CORE_HPP
#define DOL_CPU_CORE_HPP

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "cpu/instr.hpp"
#include "cpu/ras.hpp"

namespace dol
{

class TraceContext;

/** Core parameters (defaults follow Table I). */
struct CoreParams
{
    unsigned width = 4;              ///< dispatch/retire width
    unsigned robSize = 192;          ///< reorder buffer entries
    unsigned lsqSize = 96;           ///< load/store queue entries
    unsigned branchMissPenalty = 15; ///< front-end refill cycles
    unsigned agenLatency = 1;        ///< address generation cycles
    bool operator==(const CoreParams &) const = default;
};

/**
 * Abstract data-side memory port. The memory hierarchy implements this;
 * the core only needs completion times and hit levels.
 */
class DataPort
{
  public:
    struct Result
    {
        Cycle completion = 0; ///< cycle the value is ready
        bool l1Hit = false;
        bool l2Hit = false;
        bool l3Hit = false;
        /** Primary L1 miss (secondary misses are ignored, paper fn 2). */
        bool l1PrimaryMiss = false;
        /** The L1 hit landed on a prefetched line (BOP/FDP training). */
        bool l1HitPrefetched = false;
        /** Component that prefetched the hit line (0 = none). */
        std::uint8_t l1HitComp = 0;
    };

    virtual ~DataPort() = default;
    virtual Result demandLoad(Addr addr, Pc pc, Cycle when) = 0;
    virtual Result demandStore(Addr addr, Pc pc, Cycle when) = 0;
};

/** Per-instruction timing outcome handed to the prefetching machinery. */
struct RetireInfo
{
    Cycle dispatch = 0;   ///< dispatch cycle
    Cycle issue = 0;      ///< execute/agen cycle
    Cycle finish = 0;     ///< completion cycle
    DataPort::Result mem; ///< memory outcome (memory ops only)
};

/** Aggregate core statistics for one simulation. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    Cycle cycles = 0;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) / cycles : 0.0;
    }
};

class Core
{
  public:
    explicit Core(const CoreParams &params = {})
        : _params(params),
          _retireRing(params.robSize, 0),
          _lsqRing(params.lsqSize, 0),
          _regReady(kNumRegs, 0)
    {}

    /**
     * Account one retired instruction.
     *
     * @param in   the dynamic instruction
     * @param port data-side port used for loads and stores
     * @return per-instruction timing, for prefetcher training
     */
    RetireInfo step(const Instr &in, DataPort &port);

    const CoreStats &stats() const { return _stats; }
    const CoreParams &params() const { return _params; }

    /** Architectural RAS as seen at retire (used to form T2's mPC). */
    const ReturnAddressStack &ras() const { return _ras; }

    /** Final cycle count: the latest finish time observed so far. */
    Cycle finalCycle() const { return _maxFinish; }

    /** Attach the observability event bus (nullptr = tracing off). */
    void setTraceContext(TraceContext *trace) { _trace = trace; }

  private:
    Cycle regReady(RegId reg) const
    {
        return reg < kNumRegs ? _regReady[reg] : 0;
    }

    CoreParams _params;

    /** Retire time of instruction (i - robSize), as a ring buffer. */
    std::vector<Cycle> _retireRing;
    /** Completion time of memory op (j - lsqSize), as a ring buffer. */
    std::vector<Cycle> _lsqRing;
    std::vector<Cycle> _regReady;

    ReturnAddressStack _ras;

    Cycle _nextDispatch = 0;
    unsigned _laneUsed = 0;
    Cycle _retireCursor = 0;
    Cycle _maxFinish = 0;
    /** Slot of the current instruction in _retireRing, i.e. its
     *  index modulo robSize, kept as a wrapping cursor. */
    std::size_t _robPos = 0;
    /** Slot of the next memory op in _lsqRing (index mod lsqSize). */
    std::size_t _lsqPos = 0;

    TraceContext *_trace = nullptr;
    CoreStats _stats;
};

} // namespace dol

#endif // DOL_CPU_CORE_HPP
