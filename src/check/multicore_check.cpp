#include "check/multicore_check.hpp"

#include <numeric>

#include "common/hash.hpp"
#include "sim/multicore.hpp"
#include "trace/counters.hpp"

namespace dol::check
{

namespace
{

/** Small pools; every combination stays a fast case. */
const char *const kWorkloadPool[] = {
    "libquantum.syn", "mcf.syn",        "omnetpp.syn", "milc.syn",
    "tempstream.syn", "shuflist.syn",   "ep.syn",
};
const char *const kPrefetcherPool[] = {
    "TPC", "SPP", "PChase", "Triangel", "TPC+SPP",
    "TPC+SPP+Triangel+PChase", "",
};

struct CaseSetup
{
    SimConfig config;
    std::vector<CoreSpec> specs;
};

CaseSetup
makeCase(std::uint64_t case_seed)
{
    CaseSetup setup;
    std::uint64_t state = case_seed;
    auto draw = [&state](std::uint64_t bound) {
        state = splitMix64(state);
        return state % bound;
    };

    // 2 or 4 cores: the shared L3 scales linearly with the core
    // count, so odd counts would break its power-of-two set geometry.
    const unsigned num_cores = 2 + 2 * static_cast<unsigned>(draw(2));
    for (unsigned i = 0; i < num_cores; ++i) {
        CoreSpec spec;
        spec.workload =
            kWorkloadPool[draw(std::size(kWorkloadPool))];
        spec.prefetcher =
            kPrefetcherPool[draw(std::size(kPrefetcherPool))];
        // Uneven budgets exercise the early-finisher path.
        spec.maxInstrs = 3000 + draw(4) * 1500;
        setup.specs.push_back(std::move(spec));
    }

    setup.config.maxInstrs = 6000;
    setup.config.mem.dram.rngSeed = case_seed;
    const std::uint64_t arb = draw(3);
    setup.config.mem.dram.arbitration =
        arb == 0   ? ArbitrationPolicy::kDemandFirst
        : arb == 1 ? ArbitrationPolicy::kFifo
                   : ArbitrationPolicy::kCoreRoundRobin;
    if (draw(2)) {
        setup.config.mem.dram.linesPerWindow = 16 + draw(49);
        setup.config.mem.dram.windowCycles = 1500 + draw(1500);
    }
    // Tight shared-L3 MSHRs surface the stall-counter paths.
    if (draw(2))
        setup.config.mem.l3.mshrs = 8;
    return setup;
}

struct CaseRun
{
    MulticoreResult result;
    std::string counterText;
};

CaseRun
runOnce(const CaseSetup &setup, const SimConfig &config)
{
    MulticoreSimulator sim(config, setup.specs);
    CaseRun run;
    run.result = sim.run();
    CounterRegistry registry;
    sim.exportCounters(registry);
    run.counterText = registry.toText();
    return run;
}

} // namespace

DiffResult
checkMulticoreCase(std::uint64_t case_seed, Mutation mutation)
{
    DiffResult diff;
    const CaseSetup setup = makeCase(case_seed);

    const CaseRun first = runOnce(setup, setup.config);

    SimConfig second_config = setup.config;
    if (mutation == Mutation::kArbitrationDrift) {
        // The planted bug: run two silently arbitrates differently.
        second_config.mem.dram.arbitration =
            setup.config.mem.dram.arbitration ==
                    ArbitrationPolicy::kFifo
                ? ArbitrationPolicy::kDemandFirst
                : ArbitrationPolicy::kFifo;
    }
    const CaseRun second = runOnce(setup, second_config);

    if (first.counterText != second.counterText) {
        diff.ok = false;
        diff.check = "multicore-determinism";
        diff.message =
            "double-run counter registries differ (" +
            firstDivergence(first.counterText, second.counterText) +
            ")";
        return diff;
    }

    const MulticoreResult &result = first.result;
    const std::uint64_t attributed =
        std::accumulate(result.coreDramLines.begin(),
                        result.coreDramLines.end(), std::uint64_t{0});
    if (attributed != result.dramLines) {
        diff.ok = false;
        diff.check = "multicore-attribution";
        diff.message = "per-core DRAM lines sum to " +
                       std::to_string(attributed) + ", controller saw " +
                       std::to_string(result.dramLines);
        return diff;
    }
    for (std::size_t i = 0; i < result.coreDramLines.size(); ++i) {
        if (result.corePrefetchLines[i] > result.coreDramLines[i]) {
            diff.ok = false;
            diff.check = "multicore-attribution";
            diff.index = i;
            diff.message =
                "core " + std::to_string(i) + " prefetch lines (" +
                std::to_string(result.corePrefetchLines[i]) +
                ") exceed its total lines (" +
                std::to_string(result.coreDramLines[i]) + ")";
            return diff;
        }
    }
    return diff;
}

} // namespace dol::check
