/**
 * @file
 * SPP: Signature Path Prefetcher (Kim et al., MICRO 2016), adapted to
 * train at L1 as all prefetchers in the paper do.
 *
 * Per-page signatures compress recent delta history; a pattern table
 * maps signatures to candidate deltas with confidence counters; a
 * lookahead loop walks the speculative signature path, multiplying
 * path confidence, until it falls below the issue threshold. Table II
 * configuration: 256-entry ST, 512-entry PT, 1024-entry prefetch
 * filter, 8-entry GHR (5 KB).
 */

#ifndef DOL_PREFETCH_SPP_HPP
#define DOL_PREFETCH_SPP_HPP

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hpp"

namespace dol
{

class SppPrefetcher : public Prefetcher
{
  public:
    /** Tables are indexed by mask: signatureEntries must be 4 (the
     *  ways) times a power of two, and patternEntries and
     *  filterEntries powers of two. The constructor refuses others. */
    struct Params
    {
        unsigned signatureEntries = 256;
        unsigned patternEntries = 512;
        unsigned filterEntries = 1024;
        unsigned maxLookahead = 8;
        /** Path-confidence issue threshold (fixed point / 100). */
        unsigned issueThreshold = 25;
        /** Confidence below which the lookahead stops entirely. */
        unsigned stopThreshold = 10;
    };

    SppPrefetcher();
    explicit SppPrefetcher(const Params &params);

    void train(const AccessInfo &access, PrefetchEmitter &emitter) override;

    std::size_t storageBits() const override;

  private:
    static constexpr unsigned kPageBits = 12; ///< 4 KB pages
    static constexpr unsigned kLinesPerPage =
        1u << (kPageBits - kLineBits);
    static constexpr unsigned kSignatureBits = 12;
    static constexpr unsigned kDeltasPerPattern = 4;
    static constexpr unsigned kSignatureWays = 4;
    static constexpr unsigned kCounterMax = 15;

    struct SignatureEntry
    {
        std::uint64_t pageTag = ~std::uint64_t{0};
        std::uint16_t signature = 0;
        std::uint8_t lastOffset = 0;
        std::uint64_t lruStamp = 0;
    };

    struct PatternSlot
    {
        std::int16_t delta = 0;
        std::uint8_t counter = 0;
    };

    struct PatternEntry
    {
        PatternSlot slots[kDeltasPerPattern];
        std::uint8_t totalCounter = 0;
    };

    static std::uint16_t
    updateSignature(std::uint16_t sig, std::int16_t delta)
    {
        const auto folded = static_cast<std::uint16_t>(delta & 0x7f);
        return static_cast<std::uint16_t>(((sig << 3) ^ folded) &
                                          ((1u << kSignatureBits) - 1));
    }

    SignatureEntry &lookupSignature(std::uint64_t page);
    PatternEntry &
    patternOf(std::uint16_t sig)
    {
        return _patterns[sig & _patternMask];
    }
    void updatePattern(std::uint16_t sig, std::int16_t delta);

    /** Simple direct-mapped recent-prefetch filter. */
    bool filterContains(Addr line_addr) const;
    void filterInsert(Addr line_addr);

    Params _params;
    std::vector<SignatureEntry> _signatures;
    std::vector<PatternEntry> _patterns;
    std::vector<Addr> _filter;
    /** Index masks: table size - 1 (signatures: set count - 1). */
    std::uint64_t _setMask;
    std::uint64_t _patternMask;
    std::uint64_t _filterMask;
    std::uint64_t _stamp = 0;
};

} // namespace dol

#endif // DOL_PREFETCH_SPP_HPP
