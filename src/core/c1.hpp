/**
 * @file
 * C1: the high-spatial-locality region prefetcher component
 * (paper section IV-C, Figure 6).
 *
 * A 16-entry Region Monitor tracks which of the 16 lines of each 1 KB
 * region have been touched and which monitored instructions touched
 * the region (a PC bit vector cross-linking into the Instruction
 * Monitor). When a region entry is evicted, every instruction that
 * touched it gets TotalRegions++ and, if the region was dense (> 6
 * lines), DenseRegions++. After 4 regions a verdict is reached: an
 * instruction that accessed dense regions with probability > 3/4 is
 * marked, and its future executions trigger whole-region prefetches
 * into the L2. Table II budget: 16-entry IM + 16-entry RM + 1 Kb of
 * state bits = 1.2 KB.
 */

#ifndef DOL_CORE_C1_HPP
#define DOL_CORE_C1_HPP

#include <cstdint>
#include <vector>

#include "common/flat_table.hpp"
#include "prefetch/prefetcher.hpp"

namespace dol
{

class C1Prefetcher : public Prefetcher
{
  public:
    struct Params
    {
        unsigned regionEntries = 16;      ///< RM entries
        unsigned instructionEntries = 16; ///< IM entries
        unsigned denseLineThreshold = 6;  ///< > 6 of 16 lines = dense
        unsigned decisionRegions = 4;     ///< regions before a verdict
        /** Dense probability numerator/denominator: > 3/4. */
        unsigned denseNum = 3;
        unsigned denseDen = 4;
        unsigned destLevel = kL2; ///< lower accuracy -> prefetch to L2
        std::uint8_t priority = 1; ///< first to be dropped
        std::size_t maxMarked = 4096; ///< modelled state-bit capacity
    };

    C1Prefetcher();
    explicit C1Prefetcher(const Params &params);

    void train(const AccessInfo &access, PrefetchEmitter &emitter) override;

    std::size_t storageBits() const override;
    void exportCounters(CounterRegistry &registry) const override;

    /** Does C1 own this instruction? (coordinator query) */
    bool isMarked(Pc m_pc) const { return _marked.contains(m_pc); }
    bool isMonitored(Pc m_pc) const;

    /**
     * Offer an instruction for monitoring: returns true if the IM
     * accepted (it never evicts — entries stay until a verdict).
     */
    bool considerInstruction(Pc m_pc);

    /**
     * The coordinator's one call per access T2 and P1 left unclaimed:
     * considerInstruction() on a primary miss, then train(), then
     * whether C1 claims the instruction (isMarked() || isMonitored()),
     * with one IM scan and one marked-set probe for all three (and a
     * second probe only after a marking verdict during training).
     */
    bool trainAndClaim(const AccessInfo &access, PrefetchEmitter &emitter);

    std::uint64_t regionsPrefetched() const { return _regionsPrefetched; }

  private:
    struct RegionEntry
    {
        std::uint64_t region = ~std::uint64_t{0};
        bool valid = false;
        std::uint16_t lineVector = 0;
        std::uint16_t pcVector = 0; ///< one bit per IM entry
        std::uint64_t lruStamp = 0;
    };

    struct InstrEntry
    {
        Pc mPc = 0;
        bool valid = false;
        std::uint8_t totalRegions = 0;
        std::uint8_t denseRegions = 0;
    };

    /** The IM slot monitoring @p m_pc, or -1; then @p free_slot is
     *  the first free slot, or -1 when the IM is full. */
    int findInstr(Pc m_pc, int &free_slot) const;
    /** Monitor an instruction that is neither marked nor monitored in
     *  @p free_slot, unless C1 rejected it; its slot, or -1. */
    int admit(Pc m_pc, int free_slot);
    /** train() for an instruction whose marked bit and IM slot (-1:
     *  unmonitored) were looked up before training. */
    void trainKnown(const AccessInfo &access, bool marked, int slot,
                    PrefetchEmitter &emitter);
    void evictRegion(RegionEntry &entry);
    void decide(InstrEntry &entry);

    Params _params;
    std::vector<RegionEntry> _regions;
    std::vector<InstrEntry> _instrs;
    FlatHashSet<Pc> _marked;
    /** Instructions judged not-dense: C1 knows its boundary and does
     *  not re-monitor them, so the coordinator can route them on. */
    FlatHashSet<Pc> _rejected;
    /** Region most recently blanket-prefetched per instruction. */
    FlatHashMap<Pc, std::uint64_t> _lastPrefetchedRegion;
    std::uint64_t _stamp = 0;
    std::uint64_t _regionsPrefetched = 0;

    /** Training cycle, plumbed to the eviction/verdict paths (which
     *  have no AccessInfo of their own). */
    Cycle _now = 0;

    // Decision counters (exported into the counter registry).
    std::uint64_t _regionsObserved = 0;
    std::uint64_t _denseRegionsObserved = 0;
    std::uint64_t _verdictsMarked = 0;
    std::uint64_t _verdictsRejected = 0;
};

} // namespace dol

#endif // DOL_CORE_C1_HPP
