/**
 * @file
 * Section V-C.1 drop-policy ablation: in a 4-core system with a
 * congested memory-controller queue, dropping the lowest-confidence
 * prefetches (C1's) instead of random prefetches recovers performance
 * (paper: ~6%% average gain in a multicore environment).
 */

#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

#include "bench/harness.hpp"
#include "metrics/table.hpp"
#include "sim/multicore.hpp"

namespace
{

constexpr unsigned kNumMixes = 5;

struct Row
{
    double randomWs = 0.0;
    double smartWs = 0.0;
};

std::map<unsigned, Row> &
rows()
{
    static std::map<unsigned, Row> instance;
    return instance;
}

dol::SimConfig
stressedConfig(dol::DropPolicy policy)
{
    dol::SimConfig config = dol::makeBenchConfig(35000);
    // A shallow queue makes controller pressure (and thus the drop
    // decision) matter, as in the paper's shared-resource scenario.
    config.mem.dram.queueCapacity = 10;
    config.mem.dram.dropPolicy = policy;
    return config;
}

/** One parallel job per mix; rows() is keyed by mix index, so the
 *  summary is schedule-independent. */
void
registerMix(dol::bench::Collector &collector, unsigned mix_index)
{
    using namespace dol;
    const std::string label = "drop_policy/mix" +
                              std::to_string(mix_index);
    collector.addJob(label, [mix_index](ExperimentRunner &) {
        const auto mix = makeMixes(kNumMixes, 4242)[mix_index];
        const auto tpc_mix = makeMixes(kNumMixes, 4242, "TPC")[mix_index];

        MulticoreSimulator base(
            stressedConfig(DropPolicy::kRandomPrefetch), mix);
        const MulticoreResult baseline = base.run();

        MulticoreSimulator random_policy(
            stressedConfig(DropPolicy::kRandomPrefetch), tpc_mix);
        MulticoreSimulator smart_policy(
            stressedConfig(DropPolicy::kLowPriorityPrefetch), tpc_mix);

        Row row;
        row.randomWs = random_policy.run().weightedSpeedup(baseline);
        row.smartWs = smart_policy.run().weightedSpeedup(baseline);
        static std::mutex mutex;
        std::lock_guard lock(mutex);
        rows()[mix_index] = row;
        return std::vector<RunOutput>{};
    });
}

void
printSummary()
{
    using namespace dol;
    std::printf("\n== Drop policy ablation (4-core, shallow "
                "controller queue) ==\n");
    TextTable table({"mix", "random-drop WS", "drop-C1-first WS",
                     "gain"});
    double gain_sum = 0.0;
    for (const auto &[mix, row] : rows()) {
        const double gain =
            row.randomWs > 0 ? row.smartWs / row.randomWs : 1.0;
        gain_sum += gain;
        table.addRow({"mix" + std::to_string(mix),
                      fmt("%.3f", row.randomWs),
                      fmt("%.3f", row.smartWs), fmt("%.3f", gain)});
    }
    table.print();
    if (!rows().empty()) {
        std::printf("average gain from priority-aware dropping: "
                    "%.1f%% (paper: ~6%%)\n",
                    100.0 * (gain_sum / rows().size() - 1.0));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    static dol::bench::Collector collector(35000);
    for (unsigned m = 0; m < kNumMixes; ++m)
        registerMix(collector, m);
    return dol::bench::benchMain(argc, argv, &collector,
                                 printSummary);
}
