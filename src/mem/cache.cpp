#include "mem/cache.hpp"

#include <bit>
#include <numeric>

#include "common/log.hpp"

namespace dol
{

Cache::Cache(const Params &params) : _params(params)
{
    const std::uint32_t lines = params.sizeBytes / kLineBytes;
    if (params.assoc == 0 || lines == 0 || lines % params.assoc != 0)
        fatal("cache geometry: size must be a multiple of assoc lines");
    _numSets = lines / params.assoc;
    if (!std::has_single_bit(_numSets))
        fatal("cache geometry: number of sets must be a power of two");
    _lines.resize(lines);
    _tags.assign(lines, kNoAddr);
    _stamps.assign(lines, 0);
    _mshrs.resize(params.mshrs);
    _mshrHeap.resize(params.mshrs);
    std::iota(_mshrHeap.begin(), _mshrHeap.end(), 0u);
}

std::size_t
Cache::setIndex(Addr line_addr) const
{
    return static_cast<std::size_t>(lineNum(line_addr) & (_numSets - 1)) *
           _params.assoc;
}

Cache::Line *
Cache::find(Addr line_addr)
{
    const std::size_t base = setIndex(line_addr);
    const Addr tag = lineAddr(line_addr);
    // Line addresses have zeroed offset bits, so a valid tag can never
    // equal kNoAddr (all ones): the tag mirror alone decides the hit.
    const Addr *tags = _tags.data() + base;
    for (unsigned way = 0; way < _params.assoc; ++way) {
        if (tags[way] == tag)
            return &_lines[base + way];
    }
    return nullptr;
}

const Cache::Line *
Cache::find(Addr line_addr) const
{
    return const_cast<Cache *>(this)->find(line_addr);
}

void
Cache::touch(Line &line)
{
    _stamps[static_cast<std::size_t>(&line - _lines.data())] =
        ++_stampCounter;
}

std::optional<Cache::Victim>
Cache::insert(Addr line_addr, Line **out_line)
{
    const std::size_t base = setIndex(line_addr);
    // Victim scan over the dense tag/stamp mirrors: first free way,
    // else least-recently-stamped (earliest way on ties) — identical
    // order to a scan of the Line structs themselves.
    const Addr *tags = _tags.data() + base;
    const std::uint64_t *stamps = _stamps.data() + base;
    unsigned victim_way = 0;
    for (unsigned way = 0; way < _params.assoc; ++way) {
        if (tags[way] == kNoAddr) {
            victim_way = way;
            break;
        }
        if (stamps[way] < stamps[victim_way])
            victim_way = way;
    }
    Line *victim_line = &_lines[base + victim_way];

    std::optional<Victim> victim;
    if (tags[victim_way] != kNoAddr) {
        victim = Victim{tags[victim_way], victim_line->dirty,
                        victim_line->prefetched, victim_line->used,
                        victim_line->comp, victim_line->owner};
    }

    *victim_line = Line{};
    _tags[base + victim_way] = lineAddr(line_addr);
    touch(*victim_line);
    if (out_line)
        *out_line = victim_line;
    return victim;
}

bool
Cache::invalidate(Addr line_addr)
{
    if (Line *line = find(line_addr)) {
        *line = Line{};
        const std::size_t index =
            static_cast<std::size_t>(line - _lines.data());
        _tags[index] = kNoAddr;
        _stamps[index] = 0;
        return true;
    }
    return false;
}

void
Cache::prefetchedCompsInSet(Addr line_addr,
                            std::vector<ComponentId> &out) const
{
    out.clear();
    const std::size_t base = setIndex(line_addr);
    for (std::uint32_t way = 0; way < _params.assoc; ++way) {
        const Line &line = _lines[base + way];
        if (_tags[base + way] != kNoAddr && line.prefetched)
            out.push_back(line.comp);
    }
}

const Cache::MshrEntry *
Cache::pendingEntry(Addr line_addr, Cycle now) const
{
    const Addr tag = lineAddr(line_addr);
    for (const MshrEntry &entry : _mshrs) {
        if (entry.lineAddr == tag && entry.completion > now)
            return &entry;
    }
    return nullptr;
}

bool
Cache::mshrFull(Cycle now) const
{
    return !_mshrHeap.empty() && _mshrs[_mshrHeap[0]].completion > now;
}

Cycle
Cache::earliestMshrFree() const
{
    return _mshrHeap.empty() ? kNoCycle : _mshrs[_mshrHeap[0]].completion;
}

void
Cache::addMshr(Addr line_addr, Cycle completion)
{
    if (_mshrs.empty())
        return;
    // Reuse the slot that frees soonest (the lowest such slot); the
    // caller has already guaranteed availability (or accepted the
    // overwrite for shadow structures that do not model MSHR
    // pressure). The heap's top is that slot: overwrite it, then sift
    // it down to its new place.
    const auto before = [this](std::uint32_t a, std::uint32_t b) {
        const Cycle ca = _mshrs[a].completion;
        const Cycle cb = _mshrs[b].completion;
        return ca < cb || (ca == cb && a < b);
    };
    const std::uint32_t slot = _mshrHeap[0];
    _mshrs[slot] = MshrEntry{lineAddr(line_addr), completion};
    const std::size_t size = _mshrHeap.size();
    std::size_t pos = 0;
    for (std::size_t child = 1; child < size; child = 2 * pos + 1) {
        if (child + 1 < size && before(_mshrHeap[child + 1], _mshrHeap[child]))
            ++child;
        if (!before(_mshrHeap[child], slot))
            break;
        _mshrHeap[pos] = _mshrHeap[child];
        pos = child;
    }
    _mshrHeap[pos] = slot;
}

} // namespace dol
