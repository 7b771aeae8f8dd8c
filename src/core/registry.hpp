/**
 * @file
 * Factory for every prefetcher configuration the experiments use.
 *
 * Names:
 *  - monolithic baselines: "GHB-PC/DC", "SPP", "VLDP", "BOP", "FDP",
 *    "SMS", "AMPM" (Table II set) plus "NextLine"
 *  - components / composites: "T2", "T2P1" (T2+P1), "TPC"
 *  - composited extras: "TPC+<baseline>[+<baseline>...]"
 *    (coordinated, section IV-E; '+'-separated extras are bound
 *    round-robin by the coordinator)
 *  - shunted extras:    "SHUNT:TPC+<baseline>[+...]" (uncoordinated)
 *  - temporal/pointer extras: "Triangel", "PChase" (usable alone or
 *    as composite extras)
 */

#ifndef DOL_CORE_REGISTRY_HPP
#define DOL_CORE_REGISTRY_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/composite.hpp"
#include "prefetch/prefetcher.hpp"

namespace dol
{

/** The seven monolithic prefetchers evaluated in the paper. */
std::vector<std::string> monolithicPrefetcherNames();

/** All headline configurations of Figure 8 (monolithics + TPC). */
std::vector<std::string> figureEightPrefetcherNames();

/**
 * Build a prefetcher by name; @p memory is required for
 * configurations containing P1 (value chaining).
 *
 * @param adaptive run composite coordinators in adaptive mode
 *                 (`--coordinator adaptive`, src/core/adaptive.hpp).
 *                 Monolithic prefetchers and SHUNT configurations have
 *                 no coordinator, so the flag is a documented no-op
 *                 for them.
 *
 * Calls fatal() on an unknown name.
 */
std::unique_ptr<Prefetcher>
makePrefetcher(const std::string &name, const ValueSource *memory,
               bool adaptive = false);

/** TPC built from an explicit composite config (component params,
 *  P1/C1 on or off, adaptive coordination). */
std::unique_ptr<CompositePrefetcher>
makeTpc(const ValueSource *memory,
        const CompositePrefetcher::Config &config = {});

} // namespace dol

#endif // DOL_CORE_REGISTRY_HPP
