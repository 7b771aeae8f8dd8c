/**
 * @file
 * Figure 11: speedup by benchmark suite — the SPEC-like, CRONO-like,
 * STARBENCH-like and NPB-like single-core suites plus 4-core
 * multiprogrammed mixes — and the all-workload geomean (paper: TPC
 * 1.39 vs 1.22-1.31 over 68 workloads).
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>

#include "bench/harness.hpp"
#include "core/registry.hpp"
#include "sim/contention.hpp"
#include "sim/multicore.hpp"
#include "workloads/contention.hpp"

namespace
{

constexpr unsigned kNumMixes = 6;

dol::bench::Collector &
collector()
{
    static dol::bench::Collector instance(150000);
    return instance;
}

struct MixRecord
{
    std::string prefetcher;
    unsigned mix;
    double weightedSpeedup;
};

std::vector<MixRecord> &
mixRecords()
{
    static std::vector<MixRecord> records;
    return records;
}

/** Baseline mix runs, computed once and shared across worker jobs. */
dol::MulticoreResult
mixBaseline(unsigned mix_index)
{
    using namespace dol;
    static std::mutex mutex;
    static std::map<unsigned, MulticoreResult> cache;
    std::lock_guard lock(mutex);
    auto it = cache.find(mix_index);
    if (it == cache.end()) {
        SimConfig config = makeBenchConfig(40000);
        MulticoreSimulator sim(config,
                               makeMixes(kNumMixes, 2018)[mix_index]);
        it = cache.emplace(mix_index, sim.run()).first;
    }
    return it->second;
}

/**
 * One parallel job per (prefetcher, mix); the record lands in a
 * pre-assigned slot so output order is schedule-independent.
 */
void
registerMix(unsigned mix_index, const std::string &prefetcher,
            std::size_t slot)
{
    using namespace dol;
    const std::string label =
        prefetcher + "/mix" + std::to_string(mix_index);
    mixRecords().resize(
        std::max(mixRecords().size(), slot + 1));
    collector().addJob(
        label, [mix_index, prefetcher, slot](ExperimentRunner &) {
            SimConfig config = makeBenchConfig(40000);
            MulticoreSimulator sim(
                config, makeMixes(kNumMixes, 2018, prefetcher)[mix_index]);
            const MulticoreResult result = sim.run();
            mixRecords()[slot] = {
                prefetcher, mix_index,
                result.weightedSpeedup(mixBaseline(mix_index))};
            return std::vector<RunOutput>{};
        });
}

struct ContentionRecord
{
    std::string mix;
    std::string prefetchers;
    dol::FairnessMetrics fairness;
};

std::vector<ContentionRecord> &
contentionRecords()
{
    static std::vector<ContentionRecord> records;
    return records;
}

/**
 * One parallel job per named contention mix: heterogeneous per-core
 * prefetchers against per-core solo baselines, summarized by the
 * fairness metrics (not the homogeneous weighted-speedup column
 * above, which compares prefetchers on the same mix).
 */
void
registerContentionMix(const dol::ContentionMix &mix, std::size_t slot)
{
    using namespace dol;
    contentionRecords().resize(
        std::max(contentionRecords().size(), slot + 1));
    collector().addJob(
        "contention/" + mix.name, [&mix, slot](ExperimentRunner &) {
            SimConfig config = makeBenchConfig(40000);
            const ContentionOutcome outcome =
                runContentionScenario(config, mix);
            contentionRecords()[slot] = {mix.name,
                                         mixPrefetcherLabel(mix),
                                         outcome.fairness};
            return std::vector<RunOutput>{};
        });
}

void
printSummary()
{
    using namespace dol;
    using namespace dol::bench;
    const auto prefetchers = figureEightPrefetcherNames();

    std::printf("\n== Figure 11: geomean speedup by suite ==\n");
    TextTable table({"prefetcher", "spec", "crono", "starbench",
                     "npb", "4-core mixes", "all"});
    for (const auto &pf : prefetchers) {
        std::map<std::string, std::vector<double>> by_suite;
        std::vector<double> all;
        for (const RunOutput *run : collector().byPrefetcher(pf)) {
            const std::string &suite =
                findWorkload(run->workload).suite;
            by_suite[suite].push_back(std::max(run->speedup(), 1e-6));
            all.push_back(std::max(run->speedup(), 1e-6));
        }
        std::vector<double> mixes;
        for (const MixRecord &record : mixRecords()) {
            if (record.prefetcher == pf) {
                mixes.push_back(std::max(record.weightedSpeedup, 1e-6));
                all.push_back(std::max(record.weightedSpeedup, 1e-6));
            }
        }
        table.addRow({pf, fmt("%.3f", geomean(by_suite["spec"])),
                      fmt("%.3f", geomean(by_suite["crono"])),
                      fmt("%.3f", geomean(by_suite["starbench"])),
                      fmt("%.3f", geomean(by_suite["npb"])),
                      fmt("%.3f", geomean(mixes)),
                      fmt("%.3f", geomean(all))});
    }
    table.print();
    std::printf("(paper: TPC 1.39 vs 1.22-1.31 across 68 "
                "workloads)\n");

    std::printf("\n== Heterogeneous contention mixes ==\n");
    TextTable mix_table({"mix", "per-core prefetchers", "wspeedup",
                         "hspeedup", "unfairness", "max slowdown"});
    for (const ContentionRecord &record : contentionRecords()) {
        double max_slowdown = 0.0;
        for (double s : record.fairness.slowdown)
            max_slowdown = std::max(max_slowdown, s);
        mix_table.addRow(
            {record.mix, record.prefetchers,
             fmt("%.3f", record.fairness.weightedSpeedup),
             fmt("%.3f", record.fairness.harmonicSpeedup),
             fmt("%.3f", record.fairness.unfairness),
             fmt("%.3f", max_slowdown)});
    }
    mix_table.print();
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t slot = 0;
    for (const std::string &pf : dol::figureEightPrefetcherNames()) {
        for (const dol::WorkloadSpec &spec : dol::allWorkloads())
            collector().addCell(spec, pf);
        for (unsigned m = 0; m < kNumMixes; ++m)
            registerMix(m, pf, slot++);
    }
    std::size_t contention_slot = 0;
    for (const dol::ContentionMix &mix : dol::contentionMixes())
        registerContentionMix(mix, contention_slot++);
    return dol::bench::benchMain(argc, argv, &collector(),
                                 printSummary);
}
