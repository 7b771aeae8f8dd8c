#include "metrics/accounting.hpp"

#include <bit>

namespace dol
{

void
PrefetchAccounting::shadowMiss(unsigned level, Addr line, Pc pc)
{
    (void)pc;
    if (level != kL1)
        return;
    ++_fp[line];
    ++_fpWeight;
}

void
PrefetchAccounting::prefetchIssued(ComponentId comp, Addr line,
                                   unsigned dest, Cycle when)
{
    (void)dest;
    (void)when;
    auto [entry, first] = _pfp.tryEmplace(line);
    entry->components |= std::uint32_t{1} << comp;
    if (first) {
        entry->fruit = static_cast<std::uint8_t>(
            _stratifier ? _stratifier->classify(line) : Fruit::kHHF);
    }
    ++_categories[entry->fruit].issued;

    if (inFocus(line))
        ++_focus.issued;
}

void
PrefetchAccounting::prefetchUsed(ComponentId comp, unsigned level,
                                 Addr line)
{
    (void)comp;
    (void)level;
    if (level != kL1 && level != kL2)
        return;
    const Prefetched *entry = _pfp.find(line);
    const unsigned fruit =
        entry ? entry->fruit : static_cast<unsigned>(Fruit::kHHF);
    ++_categories[fruit].used;
    if (inFocus(line))
        ++_focus.used;
}

void
PrefetchAccounting::inducedMiss(unsigned level, Addr line,
                                std::span<const ComponentId> comps)
{
    (void)comps;
    if (level != kL1)
        return;
    // Charge the negative credit to the category (and focus region) of
    // the victim lines' prefetches. We approximate with the category
    // of the missing line itself, which the prefetched lines displaced.
    const Prefetched *entry = _pfp.find(line);
    const unsigned fruit =
        entry ? entry->fruit
              : static_cast<unsigned>(
                    _stratifier ? _stratifier->classify(line)
                                : Fruit::kHHF);
    _categories[fruit].inducedCredit += 1.0;
    if (inFocus(line))
        _focus.inducedCredit += 1.0;
}

std::shared_ptr<const FrozenFootprint>
PrefetchAccounting::freezeFootprint() const
{
    auto frozen = std::make_shared<FrozenFootprint>();
    frozen->lines.reserve(_fp.size());
    _fp.forEach([&](Addr line, std::uint32_t weight) {
        const Fruit fruit =
            _stratifier ? _stratifier->classify(line) : Fruit::kHHF;
        frozen->lines.push_back({line, weight, fruit});
        if (_stratifier)
            frozen->fruitWeight[static_cast<unsigned>(fruit)] += weight;
    });
    frozen->weight = _fpWeight;
    return frozen;
}

PrefetchAccounting::Scopes
PrefetchAccounting::scopes() const
{
    const std::shared_ptr<const FrozenFootprint> fp =
        _footprint ? _footprint : freezeFootprint();

    // The weight of FP's lines that PFP covers: in total, per
    // component, per category and in the focus region.
    std::uint64_t covered = 0, focus_total = 0, focus_covered = 0;
    std::array<std::uint64_t, kMaxComponents> comp_covered{};
    std::array<std::uint64_t, kNumFruit> fruit_covered{};
    for (const FrozenFootprint::Line &fp_line : fp->lines) {
        const Prefetched *entry = _pfp.find(fp_line.line);
        const std::uint64_t covered_weight = entry ? fp_line.weight : 0;
        covered += covered_weight;
        for (std::uint32_t bits = entry ? entry->components : 0; bits;
             bits &= bits - 1)
            comp_covered[std::countr_zero(bits)] += fp_line.weight;
        fruit_covered[static_cast<unsigned>(fp_line.fruit)] +=
            covered_weight;
        if (inFocus(fp_line.line)) {
            focus_total += fp_line.weight;
            focus_covered += covered_weight;
        }
    }

    const auto ratio = [](std::uint64_t part, std::uint64_t whole) {
        return whole ? static_cast<double>(part) /
                           static_cast<double>(whole)
                     : 0.0;
    };
    Scopes out;
    out.total = ratio(covered, fp->weight);
    for (unsigned c = 0; c < kMaxComponents; ++c)
        out.byComponent[c] = ratio(comp_covered[c], fp->weight);
    for (unsigned f = 0; f < kNumFruit; ++f)
        out.byCategory[f] = ratio(fruit_covered[f], fp->fruitWeight[f]);
    out.focus = ratio(focus_covered, focus_total);
    return out;
}

std::shared_ptr<const FlatHashSet<Addr>>
PrefetchAccounting::prefetchedLines() const
{
    auto lines = std::make_shared<FlatHashSet<Addr>>();
    lines->reserve(_pfp.size());
    _pfp.forEach([&](Addr line, const Prefetched &) { lines->insert(line); });
    return lines;
}

} // namespace dol
