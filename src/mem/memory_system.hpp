/**
 * @file
 * The three-level memory hierarchy of Table I, glued to the DRAM model
 * and instrumented with alternate-reality (shadow) tags.
 *
 * Each core owns a private L1D and L2 plus shadow replicas of both; a
 * SharedMemory object holds the shared L3, its shadow, and the DRAM
 * controller. The shadow hierarchy processes only demand accesses, so
 * its miss stream *is* the baseline (no-prefetch) miss stream — it
 * supplies the footprint FP for the scope metric, the denominator of
 * effective coverage, and the oracle for prefetch-induced misses
 * (paper sections III and V-C.1).
 *
 * A hierarchy keeps its alternate reality in one of three ways,
 * chosen when it is built; none of them changes the real machine:
 *  - live walk (the default): every demand access also walks the
 *    shadow caches. Baseline passes walk live, recording what they
 *    see, and so do multicore runs, whose shared shadow L3 sees a
 *    timing-dependent interleave, the fuzz harnesses and the
 *    examples.
 *  - replay: on one core the alternate reality depends only on the
 *    demand stream, which is the same for every prefetcher of a
 *    workload. So a live walk can record it (the level the shadow
 *    walk hit, per access, plus the shadow DRAM traffic) in a
 *    ShadowRecord, and a hierarchy built to replay that record reads
 *    each access's outcome instead of walking: it allocates no shadow
 *    cache and makes no shadowMiss callback, but counts the same
 *    shadow misses, makes the same induced-miss test and reports the
 *    same baseline DRAM traffic. Every single-core cell of
 *    ExperimentRunner::run replays.
 *  - none (ShadowMode::kNone on the SharedMemory): no shadow cache,
 *    no shadow or induced miss, no baseline DRAM traffic. For runs
 *    that read only IPC: the contention scenarios' solo runs, and
 *    MulticoreSimulator runs built with kNone (fig_suite_grid's
 *    homogeneous mixes and drop-policy ablation).
 */

#ifndef DOL_MEM_MEMORY_SYSTEM_HPP
#define DOL_MEM_MEMORY_SYSTEM_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "cpu/core.hpp"
#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "mem/listener.hpp"

namespace dol
{

class TraceContext;
class CounterRegistry;

/** Full hierarchy configuration; defaults reproduce Table I. */
struct MemParams
{
    Cache::Params l1{"L1D", 64 * 1024, 4, nsToCycles(1.0), 32};
    Cache::Params l2{"L2", 256 * 1024, 8, nsToCycles(3.0), 32};
    /** Per-core share; the constructor scales by core count. */
    Cache::Params l3{"L3", 2 * 1024 * 1024, 16, nsToCycles(12.0), 64};
    DramParams dram{};
    bool operator==(const MemParams &) const = default;
};

/** Counters kept per cache level. */
struct LevelStats
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t primaryMisses = 0;
    std::uint64_t secondaryMisses = 0; ///< merged with in-flight fetch
    std::uint64_t latePrefetchHits = 0;
    std::uint64_t inducedMisses = 0;
    std::uint64_t prefetchFills = 0;
    std::uint64_t mshrStalls = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t unusedPrefetchEvictions = 0;
    std::uint64_t shadowMisses = 0; ///< baseline primary misses
};

/** Counters kept per prefetcher component. */
struct ComponentStats
{
    std::uint64_t issued = 0;
    std::uint64_t filled = 0;
    std::uint64_t used = 0;
    std::uint64_t filtered = 0;
    std::uint64_t droppedQueue = 0;
    /** Fractional negative credits from induced misses. */
    double inducedCredit = 0.0;
};

struct MemStats
{
    std::array<LevelStats, kNumCacheLevels> level{};
    std::array<ComponentStats, kMaxComponents> comp{};

    /** Sum of issued prefetches over all components. */
    std::uint64_t
    prefetchesIssued() const
    {
        std::uint64_t total = 0;
        for (const auto &c : comp)
            total += c.issued;
        return total;
    }
};

class MemorySystem;

/** Per-core footprint in the shared levels (contention attribution). */
struct CoreShareStats
{
    /** Lines this core installed into the shared L3. */
    std::uint64_t l3Insertions = 0;
    /** Valid L3 lines this core displaced that another core owned. */
    std::uint64_t l3EvictionsOfOthers = 0;
};

/**
 * A single-core run's alternate reality, as its live shadow walk saw
 * it: for each demand access in program order, the shadow level that
 * hit (kL1, kL2, kL3, or kNumCacheLevels for DRAM) in 2 bits, and the
 * shadow DRAM reads and writes of the whole run.
 */
class ShadowRecord
{
  public:
    explicit ShadowRecord(std::string name) : workload(std::move(name)) {}

    void
    push(unsigned level)
    {
        const unsigned shift = 2 * (_accesses % kPerWord);
        if (shift == 0)
            _words.push_back(0);
        _words.back() |= std::uint64_t{level} << shift;
        ++_accesses;
    }

    /** The shadow level that served access @p index. */
    unsigned
    at(std::uint64_t index) const
    {
        return static_cast<unsigned>(
            (_words[index / kPerWord] >> (2 * (index % kPerWord))) & 3);
    }

    std::uint64_t accesses() const { return _accesses; }

    bool operator==(const ShadowRecord &) const = default;

    /** Names the workload in replay errors. */
    std::string workload;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;

  private:
    static constexpr unsigned kPerWord = 32;

    std::vector<std::uint64_t> _words;
    std::uint64_t _accesses = 0;
};

/** Whether hierarchies on a SharedMemory walk an alternate reality. */
enum class ShadowMode : std::uint8_t
{
    kLiveWalk, ///< walk shadow caches beside the real ones
    kNone,     ///< keep none: the run reads only the real machine
};

/** State shared by all cores: L3, its shadow, and the DRAM channel. */
class SharedMemory
{
  public:
    SharedMemory(const MemParams &params, unsigned num_cores = 1,
                 ShadowMode shadow = ShadowMode::kLiveWalk);

    Cache &l3() { return _l3; }
    Dram &dram() { return _dram; }
    const Dram &dram() const { return _dram; }

    /** Shared-L3 attribution for @p core (zeroes when untracked). */
    const CoreShareStats &coreShare(unsigned core) const
    {
        static const CoreShareStats kEmpty{};
        return core < _coreShare.size() ? _coreShare[core] : kEmpty;
    }

    /** Baseline DRAM traffic, in lines (shadow L3 misses + WBs). */
    std::uint64_t
    baselineDramLines() const
    {
        return _shadowDramReads + _shadowDramWrites;
    }

    void registerCore(MemorySystem *core);

  private:
    friend class MemorySystem;

    CoreShareStats &shareStatsFor(unsigned core)
    {
        if (core >= _coreShare.size())
            _coreShare.resize(core + 1);
        return _coreShare[core];
    }

    Cache _l3;
    ShadowMode _shadowMode;
    /** Built when the first live-walking core registers. */
    std::optional<Cache> _shadowL3;
    Dram _dram;
    std::uint64_t _shadowDramReads = 0;
    std::uint64_t _shadowDramWrites = 0;
    std::vector<MemorySystem *> _cores;
    std::vector<CoreShareStats> _coreShare;
};

/**
 * Outcome of a prefetch request. P1's chain-advance trace events
 * record the number, so the dropped outcomes keep the values 4 and 5.
 */
enum class PrefetchOutcome : std::uint8_t
{
    kIssued,
    kFilteredPresent,     ///< line already cached at/above the target
    kFilteredPending,     ///< fetch already outstanding
    kDroppedQueue = 4,    ///< shed by the memory controller
    kDroppedThrottle = 5, ///< blocked by the adaptive emission budget
};

class MemorySystem : public DataPort
{
  public:
    /**
     * Build a per-core hierarchy.
     *
     * @param params  cache/DRAM configuration
     * @param shared  shared L3+DRAM; nullptr builds a private one
     *                (the common single-core case). Its ShadowMode
     *                says whether this hierarchy walks shadow caches.
     * @param replay  replay this recorded alternate reality instead of
     *                walking shadow caches; single-core only, so
     *                @p shared must be null
     */
    explicit MemorySystem(const MemParams &params = {},
                          std::shared_ptr<SharedMemory> shared = nullptr,
                          std::shared_ptr<const ShadowRecord> replay =
                              nullptr);

    // DataPort
    Result demandLoad(Addr addr, Pc pc, Cycle when) override;
    Result demandStore(Addr addr, Pc pc, Cycle when) override;

    /**
     * Issue a prefetch of @p addr into @p dest_level.
     *
     * @param priority drop priority at the memory controller; higher
     *                 values survive longer (T2/P1 > C1).
     */
    PrefetchOutcome prefetch(Addr addr, unsigned dest_level,
                             ComponentId comp, Cycle when,
                             std::uint8_t priority = 1);

    void setListener(MemListener *listener) { _listener = listener; }

    /** Attach the observability event bus (nullptr = tracing off). */
    void setTraceContext(TraceContext *trace) { _trace = trace; }

    /**
     * Identify this hierarchy's core for shared-resource attribution
     * (DRAM lines, L3 insertions/evictions). Defaults to 0, so the
     * single-core path is unchanged.
     */
    void setCoreId(unsigned id)
    {
        _coreId = static_cast<std::uint8_t>(id);
    }
    unsigned coreId() const { return _coreId; }

    /** Fold the per-level stats into @p registry (end of run). */
    void exportCounters(CounterRegistry &registry) const;

    const MemStats &stats() const { return _stats; }
    SharedMemory &shared() { return *_shared; }
    const SharedMemory &shared() const { return *_shared; }

    Cache &cacheAt(unsigned level);

    /** DRAM lines moved for this run (all cores, incl. writebacks). */
    std::uint64_t
    dramLines() const
    {
        return _shared->dram().linesTransferred();
    }

    /**
     * Invalidate an unused prefetched copy of @p line_addr in the
     * private levels (memory-controller cancellation).
     */
    void cancelPrefetchLine(Addr line_addr);

    /** Record every live-walk outcome from here on (single core). */
    void
    recordShadow(const std::string &workload)
    {
        _record = std::make_shared<ShadowRecord>(workload);
    }

    /** Stop recording; the record, with the run's shadow DRAM traffic. */
    std::shared_ptr<const ShadowRecord> takeShadowRecord();

    /**
     * End a replay: throws unless every recorded access was consumed,
     * then credits the recorded shadow DRAM writes. A live walk
     * ignores the call.
     */
    void finishShadowReplay();

  private:
    Result demandAccess(Addr addr, Pc pc, Cycle when, bool is_store);

    /** @return the shadow level that hit (kNumCacheLevels: DRAM). */
    unsigned shadowWalk(Addr line, Pc pc, bool is_store);
    unsigned replayShadow();
    void shadowFill(unsigned level, Addr line, bool dirty);

    /**
     * Install @p line at @p level, which must not hold it: every
     * caller fills a level the line just missed. Handles
     * eviction/writeback.
     */
    void fillLine(unsigned level, Addr line, Cycle completion,
                  bool prefetched, ComponentId comp, bool dirty,
                  Cycle now);
    void handleVictim(unsigned level, const Cache::Victim &victim,
                      Cycle now);

    Cache *levelCache(unsigned level);
    Cache *shadowCache(unsigned level);

    std::shared_ptr<SharedMemory> _shared;
    Cache _l1;
    Cache _l2;
    /** Live walk only; replay and kNone leave them unbuilt. */
    std::optional<Cache> _shadowL1;
    std::optional<Cache> _shadowL2;

    std::shared_ptr<ShadowRecord> _record;
    std::shared_ptr<const ShadowRecord> _replay;
    std::uint64_t _replayed = 0;

    /**
     * Upper bound on what a demand pays when it finds its line in
     * flight: it could always have fetched the line itself, so it is
     * never slower than a full (row-miss) memory round trip. This
     * also absorbs timestamp skew between out-of-order issue times.
     */
    Cycle _demandRefetchBound = 0;

    /**
     * Monotonic view of time at the memory interface. Dataflow issue
     * times are not monotonic in program order; occupancy questions
     * (are the MSHRs full?) are asked against this clock so a stale
     * timestamp cannot make long-completed fetches look live.
     */
    Cycle _memClock = 0;

    MemListener *_listener = nullptr;
    TraceContext *_trace = nullptr;
    MemStats _stats;
    std::uint8_t _coreId = 0;
    std::vector<ComponentId> _compScratch;
};

} // namespace dol

#endif // DOL_MEM_MEMORY_SYSTEM_HPP
