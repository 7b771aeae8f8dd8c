/**
 * @file
 * Four-core multiprogrammed run (paper section V-A): a random
 * 4-workload mix over private L1/L2 and a shared L3 + DRAM channel,
 * reporting per-core IPC and weighted speedup for a chosen
 * prefetcher.
 *
 *   $ ./multicore_mix [prefetcher] [mix-seed]
 */

#include <cstdio>
#include <string>

#include "metrics/table.hpp"
#include "sim/multicore.hpp"

int
main(int argc, char **argv)
{
    using namespace dol;

    const std::string prefetcher = argc > 1 ? argv[1] : "TPC";
    const std::uint64_t seed =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

    SimConfig config;
    config.maxInstrs = 60000;

    const auto mix = makeMixes(1, seed)[0];

    std::printf("4-core mix (seed %lu):\n",
                static_cast<unsigned long>(seed));
    for (std::size_t core = 0; core < mix.size(); ++core)
        std::printf("  core %zu: %s\n", core, mix[core].workload.c_str());

    std::printf("\nrunning baseline (no prefetching)...\n");
    MulticoreSimulator baseline_sim(config, mix);
    const MulticoreResult baseline = baseline_sim.run();

    std::printf("running with %s...\n\n", prefetcher.c_str());
    MulticoreSimulator pf_sim(config, makeMixes(1, seed, prefetcher)[0]);
    const MulticoreResult result = pf_sim.run();

    TextTable table({"core", "workload", "baseline IPC",
                     "IPC with pf", "ratio"});
    for (std::size_t core = 0; core < mix.size(); ++core) {
        table.addRow({"core " + std::to_string(core),
                      mix[core].workload,
                      fmt("%.3f", baseline.ipc[core]),
                      fmt("%.3f", result.ipc[core]),
                      fmt("%.3f",
                          baseline.ipc[core] > 0
                              ? result.ipc[core] / baseline.ipc[core]
                              : 1.0)});
    }
    table.print();

    std::printf("\nweighted speedup: %.3f\n",
                computeFairness(baseline.ipc, result.ipc)
                    .weightedSpeedup);
    std::printf("DRAM lines moved: %lu (baseline hierarchy: %lu)\n",
                static_cast<unsigned long>(result.dramLines),
                static_cast<unsigned long>(result.baselineDramLines));
    return 0;
}
