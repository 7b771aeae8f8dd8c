/**
 * @file
 * Prefetch accounting: the paper's scope and effective-accuracy
 * bookkeeping, kept outside the machine via the listener interface:
 * ExperimentRunner attaches one to each baseline pass and each cell.
 *
 * Scope (paper section III): the footprint FP is the set of unique
 * line addresses of baseline (shadow) L1 misses, weighted by miss
 * count; PFP is the set of lines attempted by a prefetcher. The scope
 * is the weighted fraction of FP covered by PFP.
 *
 * FP and PFP are one table each; a PFP entry holds the components that
 * prefetched the line and the LHF/MHF/HHF category of its first issue.
 * Scope reads FP frozen into an array of (line, weight, category): one
 * pass over it yields every scope, total, per component, per category
 * (Figure 13) and in the focus region outside an optional exclude set
 * (Figure 14).
 *
 * On one core FP is the same for every prefetcher of a workload, so
 * the baseline freezes it once and every measured cell, whose memory
 * system replays the baseline's alternate reality and so makes no
 * shadowMiss callback, scores against that shared array and keeps no
 * FP table. An accounting fed by a live walk freezes its own FP when
 * asked for scopes.
 */

#ifndef DOL_METRICS_ACCOUNTING_HPP
#define DOL_METRICS_ACCOUNTING_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_table.hpp"
#include "mem/listener.hpp"
#include "metrics/stratify.hpp"

namespace dol
{

/**
 * FP frozen for scoring: each line of the baseline L1 miss footprint
 * with its miss count and category, and the weight of FP and of each
 * category. Without a stratifier every line is HHF and the category
 * weights stay 0, so per-category scopes read 0.
 */
struct FrozenFootprint
{
    struct Line
    {
        Addr line = 0;
        std::uint32_t weight = 0;
        Fruit fruit = Fruit::kHHF;

        bool operator==(const Line &) const = default;
    };

    std::vector<Line> lines;
    std::uint64_t weight = 0;
    std::array<std::uint64_t, kNumFruit> fruitWeight{};

    bool operator==(const FrozenFootprint &) const = default;
};

class PrefetchAccounting : public MemListener
{
  public:
    /**
     * @param footprint a baseline's frozen FP to score scope against,
     *                  for a run whose memory system replays that
     *                  baseline and so makes no shadowMiss callback;
     *                  null builds FP from shadowMiss callbacks
     */
    explicit PrefetchAccounting(
        std::shared_ptr<const FrozenFootprint> footprint = nullptr)
        : _footprint(std::move(footprint))
    {
        // FP and PFP grow to tens of thousands of lines over a run;
        // pre-sizing skips the doubling rehashes the profiler
        // otherwise attributes ~20% of sim time to. Only the table
        // the run fills is sized: FP for a baseline, PFP for a cell.
        if (_footprint)
            _pfp.reserve(1u << 16);
        else
            _fp.reserve(1u << 16);
    }

    struct CategoryCounters
    {
        std::uint64_t issued = 0;
        std::uint64_t used = 0;
        double inducedCredit = 0.0;

        double
        effectiveAccuracy() const
        {
            return issued ? (static_cast<double>(used) - inducedCredit) /
                                static_cast<double>(issued)
                          : 0.0;
        }
    };

    /** Attach the offline ground-truth classifier (Figure 13/16). */
    void
    setStratifier(const OfflineStratifier *stratifier)
    {
        _stratifier = stratifier;
    }

    /** This accounting's own FP, classified by its stratifier. */
    std::shared_ptr<const FrozenFootprint> freezeFootprint() const;

    /**
     * Confine the "focus" counters to lines outside @p exclude —
     * the region TPC does not cover (Figure 14).
     */
    void
    setExcludeSet(std::shared_ptr<const FlatHashSet<Addr>> exclude)
    {
        _exclude = std::move(exclude);
    }

    // --- MemListener ------------------------------------------------
    void shadowMiss(unsigned level, Addr line, Pc pc) override;
    void prefetchIssued(ComponentId comp, Addr line, unsigned dest,
                        Cycle when) override;
    void prefetchUsed(ComponentId comp, unsigned level,
                      Addr line) override;
    void inducedMiss(unsigned level, Addr line,
                     std::span<const ComponentId> comps) override;

    // --- results ------------------------------------------------------
    /** Weighted FP coverage; 0 where that share of FP weighs 0. */
    struct Scopes
    {
        double total = 0.0;
        std::array<double, kMaxComponents> byComponent{};
        /** Within each category's FP lines (needs a stratifier). */
        std::array<double, kNumFruit> byCategory{};
        /** Within the FP lines outside the exclude set. */
        double focus = 0.0;
    };

    /** Every scope, from one pass over the frozen FP. */
    Scopes scopes() const;

    /** Category counters (all components together). */
    const CategoryCounters &category(Fruit fruit) const
    {
        return _categories[static_cast<unsigned>(fruit)];
    }

    /** Focus-region (outside the exclude set) counters. */
    const CategoryCounters &focus() const { return _focus; }

    /** The lines this run prefetched (the next experiment's exclude
     *  set in Figure 14). */
    std::shared_ptr<const FlatHashSet<Addr>> prefetchedLines() const;

    std::uint64_t footprintLines() const { return _fp.size(); }
    std::uint64_t footprintWeight() const { return _fpWeight; }

  private:
    /** A PFP line: bit c is set when component c prefetched it;
     *  fruit is the category charged at its first issue. */
    struct Prefetched
    {
        std::uint32_t components = 0;
        std::uint8_t fruit = 0;
    };

    bool
    inFocus(Addr line) const
    {
        return _exclude && !_exclude->contains(line);
    }

    const OfflineStratifier *_stratifier = nullptr;
    std::shared_ptr<const FlatHashSet<Addr>> _exclude;
    std::shared_ptr<const FrozenFootprint> _footprint;

    /** Baseline L1 miss footprint with weights, from shadowMiss. */
    FlatHashMap<Addr, std::uint32_t> _fp;
    std::uint64_t _fpWeight = 0;

    FlatHashMap<Addr, Prefetched> _pfp;

    std::array<CategoryCounters, kNumFruit> _categories{};
    CategoryCounters _focus{};
};

} // namespace dol

#endif // DOL_METRICS_ACCOUNTING_HPP
