#include "core/c1.hpp"

#include <bit>

#include "trace/context.hpp"
#include "trace/counters.hpp"

namespace dol
{

C1Prefetcher::C1Prefetcher() : C1Prefetcher(Params()) {}

C1Prefetcher::C1Prefetcher(const Params &params)
    : Prefetcher("C1"), _params(params),
      _regions(params.regionEntries),
      _instrs(params.instructionEntries)
{
    // Both sets clear once they reach maxMarked, so sizing them for it
    // up front makes them rehash-free for the whole run.
    _marked.reserve(params.maxMarked);
    _rejected.reserve(params.maxMarked);
}

int
C1Prefetcher::findInstr(Pc m_pc, int &free_slot) const
{
    free_slot = -1;
    for (int i = 0; i < static_cast<int>(_instrs.size()); ++i) {
        const InstrEntry &entry = _instrs[i];
        if (!entry.valid) {
            if (free_slot < 0)
                free_slot = i;
        } else if (entry.mPc == m_pc) {
            return i;
        }
    }
    return -1;
}

bool
C1Prefetcher::isMonitored(Pc m_pc) const
{
    int free_slot = -1;
    return findInstr(m_pc, free_slot) >= 0;
}

int
C1Prefetcher::admit(Pc m_pc, int free_slot)
{
    if (free_slot < 0 || _rejected.contains(m_pc))
        return -1; // IM full (entries stay until their verdict)
    InstrEntry &entry = _instrs[free_slot];
    entry = InstrEntry{};
    entry.valid = true;
    entry.mPc = m_pc;
    return free_slot;
}

bool
C1Prefetcher::considerInstruction(Pc m_pc)
{
    int free_slot = -1;
    if (_marked.contains(m_pc) || findInstr(m_pc, free_slot) >= 0)
        return true;
    return admit(m_pc, free_slot) >= 0;
}

bool
C1Prefetcher::trainAndClaim(const AccessInfo &access,
                            PrefetchEmitter &emitter)
{
    const bool marked = _marked.contains(access.mPc);
    int free_slot = -1;
    int slot = findInstr(access.mPc, free_slot);
    if (access.l1PrimaryMiss && !marked && slot < 0)
        slot = admit(access.mPc, free_slot);
    const std::uint64_t marks = _verdictsMarked;
    trainKnown(access, marked, slot, emitter);
    // Training can vacate the slot (a verdict) but never refills one,
    // and only a marking verdict changes _marked (it may clear it).
    if (slot >= 0 && _instrs[slot].valid)
        return true;
    return _verdictsMarked == marks ? marked
                                    : _marked.contains(access.mPc);
}

void
C1Prefetcher::decide(InstrEntry &entry)
{
    // Dense with probability > 3/4 across the observed regions?
    const bool marked = entry.denseRegions * _params.denseDen >
                        entry.totalRegions * _params.denseNum;
    if (marked) {
        if (_marked.size() >= _params.maxMarked)
            _marked.clear(); // state bits are finite
        _marked.insert(entry.mPc);
        ++_verdictsMarked;
    } else {
        if (_rejected.size() >= _params.maxMarked)
            _rejected.clear();
        _rejected.insert(entry.mPc);
        ++_verdictsRejected;
    }
    DOL_TRACE_EVENT(_trace, TraceEventType::kC1Verdict, _now, 0,
                    entry.mPc, id(), entry.denseRegions,
                    marked ? 1 : 0);
    entry.valid = false; // vacate for the next candidate
}

void
C1Prefetcher::evictRegion(RegionEntry &entry)
{
    if (!entry.valid)
        return;
    const bool dense =
        std::popcount(entry.lineVector) >
        static_cast<int>(_params.denseLineThreshold);
    ++_regionsObserved;
    if (dense) {
        ++_denseRegionsObserved;
        DOL_TRACE_EVENT(_trace, TraceEventType::kC1RegionDense, _now,
                        entry.region << kRegionBits, entry.lineVector,
                        id(), 0,
                        static_cast<std::uint8_t>(
                            std::popcount(entry.lineVector)));
    }
    for (unsigned i = 0; i < _instrs.size(); ++i) {
        if (!((entry.pcVector >> i) & 1))
            continue;
        InstrEntry &instr = _instrs[i];
        if (!instr.valid)
            continue;
        ++instr.totalRegions;
        if (dense)
            ++instr.denseRegions;
        if (instr.totalRegions >= _params.decisionRegions)
            decide(instr);
    }
    entry.valid = false;
}

void
C1Prefetcher::train(const AccessInfo &access, PrefetchEmitter &emitter)
{
    int free_slot = -1;
    trainKnown(access, _marked.contains(access.mPc),
               findInstr(access.mPc, free_slot), emitter);
}

void
C1Prefetcher::trainKnown(const AccessInfo &access, bool marked, int slot,
                         PrefetchEmitter &emitter)
{
    const std::uint64_t region = regionNum(access.addr);
    const unsigned line_bit = lineInRegion(access.addr);
    _now = access.when;

    // Marked instructions trigger the region prefetch.
    if (marked) {
        auto [last, inserted] =
            _lastPrefetchedRegion.tryEmplace(access.mPc);
        if (inserted)
            *last = ~std::uint64_t{0};
        if (inserted || *last != region) {
            *last = region;
            const Addr base = region << kRegionBits;
            for (unsigned i = 0; i < kRegionLineCount; ++i) {
                emitter.emit(base + (static_cast<Addr>(i) << kLineBits),
                             _params.destLevel, _params.priority);
            }
            ++_regionsPrefetched;
            DOL_TRACE_EVENT(_trace, TraceEventType::kC1CarpetFire,
                            access.when, base, access.mPc, id(), 0,
                            static_cast<std::uint8_t>(
                                kRegionLineCount));
        }
    }

    // Track the region in the RM.
    RegionEntry *found = nullptr;
    RegionEntry *victim = &_regions[0];
    for (RegionEntry &entry : _regions) {
        if (entry.valid && entry.region == region) {
            found = &entry;
            break;
        }
        if (!entry.valid) {
            victim = &entry;
            continue;
        }
        if (victim->valid && entry.lruStamp < victim->lruStamp)
            victim = &entry;
    }
    if (!found) {
        evictRegion(*victim);
        *victim = RegionEntry{};
        victim->valid = true;
        victim->region = region;
        found = victim;
    }
    found->lineVector |= static_cast<std::uint16_t>(1u << line_bit);
    found->lruStamp = ++_stamp;

    // Cross-link the accessing instruction if it is still monitored
    // (the eviction may have vacated its slot with a verdict).
    if (slot >= 0 && _instrs[slot].valid)
        found->pcVector |= static_cast<std::uint16_t>(1u << slot);
}

std::size_t
C1Prefetcher::storageBits() const
{
    // Table II: 16-entry IM (640 b) + 16-entry RM (1248 b) + 1 KB of
    // marked-instruction state bits.
    const std::size_t im_bits = _instrs.size() * (32 + 4 + 4);
    const std::size_t rm_bits =
        _regions.size() * (48 + kRegionLineCount + _instrs.size());
    return im_bits + rm_bits + 1024 * 8;
}

void
C1Prefetcher::exportCounters(CounterRegistry &registry) const
{
    registry.set(name(), "regions_observed", _regionsObserved);
    registry.set(name(), "dense_regions", _denseRegionsObserved);
    registry.set(name(), "verdicts_marked", _verdictsMarked);
    registry.set(name(), "verdicts_rejected", _verdictsRejected);
    registry.set(name(), "regions_prefetched", _regionsPrefetched);
    registry.set(name(), "marked_instrs", _marked.size());
}

} // namespace dol
