/**
 * @file
 * Offline ground-truth stratifier (paper section V-C.1).
 *
 * The paper divides all accesses into three categories of increasing
 * prefetch difficulty — low-, mid-, and high-hanging fruit — "done
 * offline to have a better approximation to ground truth":
 *
 *   LHF: canonical strided accesses
 *   MHF: non-strided accesses with high spatial locality
 *   HHF: everything else
 *
 * Because workload traces are deterministic (seeded generators), the
 * harness feeds a baseline pass of the demand stream through this
 * classifier before the measured run; every prefetch is then labelled
 * by the category of its target line.
 */

#ifndef DOL_METRICS_STRATIFY_HPP
#define DOL_METRICS_STRATIFY_HPP

#include <bit>
#include <cstdint>

#include "common/flat_table.hpp"
#include "common/types.hpp"

namespace dol
{

enum class Fruit : std::uint8_t
{
    kLHF = 0,
    kMHF = 1,
    kHHF = 2,
};

constexpr unsigned kNumFruit = 3;

inline const char *
fruitName(Fruit fruit)
{
    switch (fruit) {
      case Fruit::kLHF: return "LHF";
      case Fruit::kMHF: return "MHF";
      case Fruit::kHHF: return "HHF";
    }
    return "?";
}

class OfflineStratifier
{
  public:
    struct Params
    {
        /** Same-delta run that makes a PC's accesses "strided". */
        unsigned strideRun = 4;
        /** Distinct lines per 1 KB region for "high locality". */
        unsigned denseLines = 6;
    };

    OfflineStratifier() = default;

    explicit OfflineStratifier(const Params &params) : _params(params) {}

    /** Feed one demand access of the baseline pass. */
    void
    observe(Pc pc, Addr addr)
    {
        const Addr line = lineAddr(addr);

        PcState &state = _pcs[pc];
        const std::int64_t delta =
            static_cast<std::int64_t>(addr) -
            static_cast<std::int64_t>(state.lastAddr);
        if (state.seen && delta == state.delta && delta != 0) {
            if (state.runLength < 0xff)
                ++state.runLength;
            if (state.runLength + 1u >= _params.strideRun) {
                // The run is canonical: mark the lines it covers.
                _lhfLines.insert(line);
                _lhfLines.insert(lineAddr(state.lastAddr));
                // Strided PCs keep extending their line set; also
                // pre-mark the forward continuation so prefetches
                // ahead of the demand stream classify correctly.
                _lhfLines.insert(lineAddr(
                    static_cast<Addr>(static_cast<std::int64_t>(addr) +
                                      delta)));
            }
        } else {
            state.delta = delta;
            state.runLength = 0;
        }
        state.lastAddr = addr;
        state.seen = true;

        _regionLines[regionNum(addr)] |=
            static_cast<std::uint16_t>(1u << lineInRegion(addr));
    }

    /** Classify a line address (call after the baseline pass). */
    Fruit
    classify(Addr line_addr) const
    {
        const Addr line = lineAddr(line_addr);
        if (_lhfLines.contains(line))
            return Fruit::kLHF;
        const std::uint16_t *region = _regionLines.find(regionNum(line));
        if (region &&
            static_cast<unsigned>(std::popcount(*region)) >
                _params.denseLines) {
            return Fruit::kMHF;
        }
        return Fruit::kHHF;
    }

    std::size_t lhfLineCount() const { return _lhfLines.size(); }
    std::size_t regionCount() const { return _regionLines.size(); }

  private:
    struct PcState
    {
        Addr lastAddr = 0;
        std::int64_t delta = 0;
        std::uint8_t runLength = 0;
        bool seen = false;
    };

    Params _params{};
    FlatHashMap<Pc, PcState> _pcs;
    FlatHashSet<Addr> _lhfLines;
    FlatHashMap<std::uint64_t, std::uint16_t> _regionLines;
};

} // namespace dol

#endif // DOL_METRICS_STRATIFY_HPP
