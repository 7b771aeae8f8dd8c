#include "prefetch/spp.hpp"

#include <bit>
#include <string>

#include "common/log.hpp"

namespace dol
{

namespace
{

/** @p entries - 1, after refusing a size that is not a power of two. */
std::uint64_t
maskOf(const char *field, unsigned entries, unsigned unit = 1)
{
    if (entries % unit != 0 || !std::has_single_bit(entries / unit)) {
        fatal(std::string("SPP ") + field + " = " +
              std::to_string(entries) + " is not " +
              (unit == 1 ? "" : std::to_string(unit) + " times ") +
              "a power of two");
    }
    return entries / unit - 1;
}

} // namespace

SppPrefetcher::SppPrefetcher() : SppPrefetcher(Params()) {}

SppPrefetcher::SppPrefetcher(const Params &params)
    : Prefetcher("SPP"), _params(params),
      _signatures(params.signatureEntries),
      _patterns(params.patternEntries),
      _filter(params.filterEntries, kNoAddr),
      _setMask(maskOf("signatureEntries", params.signatureEntries,
                      kSignatureWays)),
      _patternMask(maskOf("patternEntries", params.patternEntries)),
      _filterMask(maskOf("filterEntries", params.filterEntries))
{}

SppPrefetcher::SignatureEntry &
SppPrefetcher::lookupSignature(std::uint64_t page)
{
    // 4-way associative search over a small direct region.
    const std::size_t base = (page & _setMask) * kSignatureWays;
    SignatureEntry *victim = &_signatures[base];
    for (std::size_t w = 0; w < kSignatureWays; ++w) {
        SignatureEntry &entry = _signatures[base + w];
        if (entry.pageTag == page) {
            entry.lruStamp = ++_stamp;
            return entry;
        }
        if (entry.lruStamp < victim->lruStamp)
            victim = &entry;
    }
    *victim = SignatureEntry{};
    victim->pageTag = page;
    victim->lruStamp = ++_stamp;
    return *victim;
}

void
SppPrefetcher::updatePattern(std::uint16_t sig, std::int16_t delta)
{
    PatternEntry &entry = patternOf(sig);
    if (entry.totalCounter >= kCounterMax) {
        // Periodically age all counters to keep ratios meaningful.
        for (PatternSlot &slot : entry.slots)
            slot.counter /= 2;
        entry.totalCounter /= 2;
    }
    ++entry.totalCounter;

    PatternSlot *victim = &entry.slots[0];
    for (PatternSlot &slot : entry.slots) {
        if (slot.counter > 0 && slot.delta == delta) {
            ++slot.counter;
            return;
        }
        if (slot.counter < victim->counter)
            victim = &slot;
    }
    victim->delta = delta;
    victim->counter = 1;
}

bool
SppPrefetcher::filterContains(Addr line_addr) const
{
    return _filter[lineNum(line_addr) & _filterMask] ==
           lineAddr(line_addr);
}

void
SppPrefetcher::filterInsert(Addr line_addr)
{
    _filter[lineNum(line_addr) & _filterMask] = lineAddr(line_addr);
}

void
SppPrefetcher::train(const AccessInfo &access, PrefetchEmitter &emitter)
{
    const std::uint64_t page = access.addr >> kPageBits;
    const auto offset = static_cast<std::uint8_t>(
        (access.addr >> kLineBits) & (kLinesPerPage - 1));

    SignatureEntry &entry = lookupSignature(page);
    const bool fresh = entry.signature == 0 && entry.lastOffset == 0;
    const auto delta =
        static_cast<std::int16_t>(static_cast<int>(offset) -
                                  static_cast<int>(entry.lastOffset));

    if (!fresh && delta != 0)
        updatePattern(entry.signature, delta);

    const std::uint16_t old_sig = entry.signature;
    if (delta != 0 || fresh)
        entry.signature = updateSignature(old_sig, delta);
    entry.lastOffset = offset;

    if (fresh || delta == 0)
        return;

    // Lookahead along the signature path.
    std::uint16_t sig = entry.signature;
    int current_offset = offset;
    unsigned path_conf = 100;
    for (unsigned depth = 0; depth < _params.maxLookahead; ++depth) {
        const PatternEntry &pattern = patternOf(sig);
        if (pattern.totalCounter == 0)
            break;

        // Best delta by counter.
        const PatternSlot *best = nullptr;
        for (const PatternSlot &slot : pattern.slots) {
            if (slot.counter > 0 &&
                (!best || slot.counter > best->counter)) {
                best = &slot;
            }
        }
        if (!best)
            break;

        path_conf = path_conf * best->counter / pattern.totalCounter;
        if (path_conf < _params.stopThreshold)
            break;

        current_offset += best->delta;
        if (current_offset < 0 ||
            current_offset >= static_cast<int>(kLinesPerPage)) {
            break; // page boundary: the simple GHR-free variant stops
        }
        if (path_conf >= _params.issueThreshold) {
            const Addr target =
                (page << kPageBits) +
                (static_cast<Addr>(current_offset) << kLineBits);
            if (!filterContains(target)) {
                emitter.emit(target, kL1);
                filterInsert(target);
            }
        }
        sig = updateSignature(sig, best->delta);
    }
}

std::size_t
SppPrefetcher::storageBits() const
{
    // ST: page tag (16) + signature (12) + offset (6)
    // PT: 4 x (delta 7 + counter 4) + total counter 4
    // Filter: 1 partial tag bit-line each (modelled as 10-bit tags)
    return _signatures.size() * (16 + kSignatureBits + 6) +
           _patterns.size() * (kDeltasPerPattern * (7 + 4) + 4) +
           _filter.size() * 10;
}

} // namespace dol
