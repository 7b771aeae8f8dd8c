/**
 * @file
 * DDR3-style main memory model (Table I: 1600 MHz, 2 channels,
 * 2 ranks/channel, 8 banks/rank) with open-row tracking, a shared data
 * bus per channel, and a bounded controller queue.
 *
 * The controller queue implements the paper's section V-C.1 drop
 * experiment: when the queue fills, the default policy drops a random
 * queued prefetch to admit new work, while the priority-aware policy
 * drops the lowest-priority prefetch (in TPC's case, C1's region
 * prefetches). A dropped queued prefetch is reported through a
 * cancellation hook so the owning cache level can discard the
 * speculatively installed line.
 *
 * Each channel's queue is in completion order: a request completes
 * one burst after the channel's bus frees (busReadyAt, the previous
 * request's completion) at the earliest, so every completion pushed
 * is at least the one before it. A drop removes an entry from the
 * middle without reordering the rest. So the completed requests are
 * always a prefix, and the channel keeps running per-core and
 * prefetch counts of the live ones beside the queue instead of
 * rescanning it on every request.
 */

#ifndef DOL_MEM_DRAM_HPP
#define DOL_MEM_DRAM_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace dol
{

/** What the controller drops when its queue is full. */
enum class DropPolicy : std::uint8_t
{
    kRandomPrefetch,      ///< default: drop a random queued prefetch
    kLowPriorityPrefetch, ///< drop the lowest-priority prefetch first
};

/**
 * How the controller orders requests competing for a channel.
 *
 * kDemandFirst is the legacy behaviour and adds no queueing delay of
 * its own: demands bypass queued prefetches (prefetches self-throttle
 * at the occupancy limit upstream), so nothing extra is modelled.
 * kFifo charges every request one burst slot per live queued entry
 * ahead of it, regardless of type or origin — an aggressive co-runner
 * can starve everyone. kCoreRoundRobin caps what one core can inflict
 * on another: a request waits one slot per own queued entry plus at
 * most (own + 1) slots per competing core.
 */
enum class ArbitrationPolicy : std::uint8_t
{
    kDemandFirst, ///< default: legacy zero-delay demand bypass
    kFifo,        ///< strict arrival order across cores and types
    kCoreRoundRobin, ///< per-core fair slotting
};

/** Parse an arbitration name; returns false on unknown input. */
bool arbitrationFromName(const std::string &name,
                         ArbitrationPolicy &out);

struct DramParams
{
    unsigned channels = 2;
    unsigned ranksPerChannel = 2;
    unsigned banksPerRank = 8;

    /** Row buffer size per bank. */
    std::uint32_t rowBytes = 8192;

    // Timing constants from Table I, converted to 3 GHz core cycles.
    Cycle tRCD = nsToCycles(13.75);
    Cycle tRP = nsToCycles(13.75);
    Cycle tCAS = nsToCycles(13.75);
    /** 64-byte burst at DDR3-1600 x64: 4 DRAM cycles = 5 ns. */
    Cycle tBurst = nsToCycles(5.0);
    /**
     * Controller front-end overhead per request: queue arbitration,
     * scheduling, command/PHY latency. Folded into one constant
     * because the model has no cycle-level controller pipeline.
     */
    Cycle tController = nsToCycles(20.0);

    /**
     * Read/write queue capacity per channel. The default is generous:
     * bus and bank busy times already throttle throughput, so queue
     * overflow (and the drop policies it triggers) matters mainly in
     * the multicore drop-policy experiment, which shrinks this.
     */
    unsigned queueCapacity = 64;

    DropPolicy dropPolicy = DropPolicy::kRandomPrefetch;

    ArbitrationPolicy arbitration = ArbitrationPolicy::kDemandFirst;

    /**
     * Bandwidth cap: lines the controller admits per windowCycles
     * window across all channels. 0 disables the cap (default), which
     * preserves the single-core timing exactly. When a window's quota
     * is exhausted, the request is deferred to the next window
     * boundary.
     */
    std::uint64_t linesPerWindow = 0;
    Cycle windowCycles = nsToCycles(1000.0);

    /**
     * Seed for the random-drop victim RNG. Parallel sweeps derive
     * this from the cell key so a run's drop decisions never depend
     * on which worker thread executed it.
     */
    std::uint64_t rngSeed = 0xd0a11a5ull;
    bool operator==(const DramParams &) const = default;
};

struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t droppedPrefetches = 0;
    std::uint64_t queueFullDemandStalls = 0;
    /** Total cycles added by fifo/round-robin queue arbitration. */
    std::uint64_t arbDelayCycles = 0;
    std::uint64_t arbDelayedRequests = 0;
    /** Demand requests whose arbitration delay included at least one
     *  live queued prefetch. Structurally zero under kDemandFirst. */
    std::uint64_t demandsDelayedByPrefetch = 0;
    /** Requests pushed to the next bandwidth window. */
    std::uint64_t windowDeferrals = 0;
    std::uint64_t bandwidthStallCycles = 0;
};

class Dram
{
  public:
    struct Result
    {
        Cycle completion = 0;
        bool dropped = false; ///< prefetch shed by the controller
    };

    /** Callback invoked when a queued prefetch is cancelled. */
    using CancelHook = std::function<void(Addr line_addr)>;

    explicit Dram(const DramParams &params = {});

    /**
     * Issue one line-sized access.
     *
     * @param line_addr line address
     * @param now       cycle the request reaches the controller
     * @param is_write  writeback traffic (never dropped)
     * @param is_prefetch prefetch fill (candidate for dropping)
     * @param priority  higher value = more confident prefetch
     * @param core      originating core, for attribution/arbitration
     */
    Result access(Addr line_addr, Cycle now, bool is_write,
                  bool is_prefetch = false, std::uint8_t priority = 0,
                  std::uint8_t core = 0);

    void setCancelHook(CancelHook hook) { _cancel = std::move(hook); }

    /** Live read-queue occupancy of the channel serving @p line. */
    std::size_t occupancy(Addr line_addr, Cycle now);

    const DramParams &params() const { return _params; }
    const DramStats &stats() const { return _stats; }

    /** Total lines transferred (reads + writes), the traffic metric. */
    std::uint64_t
    linesTransferred() const
    {
        return _stats.reads + _stats.writes;
    }

    /** Lines attributed to @p core (sums to linesTransferred). */
    std::uint64_t
    coreLines(unsigned core) const
    {
        return core < _coreLines.size() ? _coreLines[core] : 0;
    }

    /** Prefetch lines attributed to @p core. */
    std::uint64_t
    corePrefetchLines(unsigned core) const
    {
        return core < _corePrefetchLines.size()
                   ? _corePrefetchLines[core]
                   : 0;
    }

  private:
    struct Bank
    {
        std::uint64_t openRow = ~std::uint64_t{0};
        Cycle readyAt = 0;
    };

    struct QueueEntry
    {
        Addr lineAddr = kNoAddr;
        Cycle completion = 0;
        bool isPrefetch = false;
        std::uint8_t priority = 0;
        std::uint8_t coreId = 0;
    };

    struct Channel
    {
        std::vector<Bank> banks;
        Cycle busReadyAt = 0;
        /** Queued requests, in completion order. */
        RingBuffer<QueueEntry> queue;
        /** Queued requests per core (index = core id) and queued
         *  prefetches: running counts over the queue. */
        std::vector<std::uint32_t> coreQueued;
        std::uint32_t prefetchesQueued = 0;

        void push(const QueueEntry &entry);
        /** Remove entry @p index from the queue and its counts. */
        void erase(std::size_t index);
    };

    unsigned channelOf(Addr line_addr) const;
    unsigned bankOf(Addr line_addr) const;
    std::uint64_t rowOf(Addr line_addr) const;

    /** Pop the completed prefix; returns live occupancy. */
    std::size_t pruneQueue(Channel &channel, Cycle now);

    /**
     * Make room in a full queue according to the drop policy.
     * @return false when the incoming prefetch itself should be shed.
     */
    bool makeRoom(Channel &channel, bool incoming_is_prefetch,
                  std::uint8_t incoming_priority);

    struct ArbDelay
    {
        Cycle cycles = 0;
        bool behindPrefetch = false;
    };

    /** Queue-arbitration delay for a request from @p core, on a
     *  channel pruned at the request's arrival. */
    ArbDelay arbitrationDelay(const Channel &channel,
                              std::uint8_t core) const;

    /** Bandwidth-window throttle; may defer @p now to a boundary. */
    Cycle applyBandwidthWindow(Cycle now);

    DramParams _params;
    std::vector<Channel> _channels;
    DramStats _stats;
    /** Scratch for makeRoom's drop-candidate list (no per-call heap). */
    std::vector<std::size_t> _dropScratch;
    std::vector<std::uint64_t> _coreLines;
    std::vector<std::uint64_t> _corePrefetchLines;
    /** Monotonic controller clock for occupancy decisions. */
    Cycle _clock = 0;
    /** Bandwidth-window state: current window index and lines used. */
    std::uint64_t _windowIndex = 0;
    std::uint64_t _windowLines = 0;
    Rng _rng;
    CancelHook _cancel;
};

} // namespace dol

#endif // DOL_MEM_DRAM_HPP
