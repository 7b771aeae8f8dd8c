/**
 * @file
 * Every table and figure of the paper's evaluation, queued on one
 * sweep and printed in the paper's order:
 *  - Tables I and II: the machine configuration and each
 *    prefetcher's storage cost (static; no runs);
 *  - Fig. 1: accuracy vs scope for AMPM, BOP and SMS (the motivating
 *    tradeoff: scope rises AMPM -> BOP -> SMS while accuracy falls);
 *  - Fig. 8: per-application speedup, sorted by average gain, and the
 *    suite geomeans (paper: TPC 1.41 vs 1.21-1.33 for monolithics);
 *  - Fig. 9: memory traffic normalized to the no-prefetch baseline
 *    (paper: TPC +6%, the best monolithic (BOP) +12%);
 *  - Fig. 10: effective accuracy (L1) vs scope for every prefetcher,
 *    weighted by prefetches issued (paper: monolithic averages 45-69%,
 *    TPC 82% with worst-case 49%);
 *  - Fig. 11: geomean speedup by suite over all 41 workloads plus
 *    six 4-core mixes at 40k instructions per core (paper: TPC 1.39
 *    vs 1.22-1.31 over 68 workloads), then the heterogeneous
 *    contention mixes' fairness metrics;
 *  - Fig. 12: suite-wide accuracy and coverage vs scope at L1 and L2,
 *    with TPC built up incrementally (T2, +P1, +C1) and a linear fit
 *    over the monolithic points;
 *  - Fig. 13: accuracy and scope stratified by the offline LHF / MHF /
 *    HHF ground-truth categories (paper: P1 reaches 86% HHF accuracy
 *    while monolithics reach at best 38%);
 *  - Fig. 14: VLDP, SPP, FDP and SMS alone vs as a TPC component,
 *    measured inside the region TPC does not cover (paper: accuracy
 *    improves when composed, e.g. SMS 27% -> 43%);
 *  - Fig. 15: compositing vs shunting those designs with TPC,
 *    normalized to TPC alone (paper: compositing gains 3-8% and never
 *    loses; shunting loses 1-6%);
 *  - Fig. 16: prefetch destination, everything to L2, everything to
 *    L1, or stratified (LHF to L1, the rest to L2: an oracle for
 *    monolithics, TPC's natural component-based behaviour);
 *  - the T2 design ablations (DESIGN.md): the mPC call-site
 *    disambiguation (paper IV-A.2), the NLPCT and the strided-confirm
 *    threshold, each on the kernel that exercises it;
 *  - the Section V-C.1 drop-policy ablation: in 4-core mixes with a
 *    congested controller queue, dropping C1's low-confidence
 *    prefetches first instead of random ones (paper: ~6% gain).
 *
 * Single-core cells run 200k instructions. Work the figures share
 * runs once: the sweep's one baseline cache holds each workload's
 * baseline, Figures 1, 8, 9, 10, 12 and 13 read the SPEC-like rows of
 * Figure 11's cells, and Figure 15 reads its TPC cells. Cells are
 * told apart by (prefetcher, variant): Figure 16's destinations are
 * the variants :L2, :L1 and :strat, and Figure 14's focus-region runs
 * carry :focus. Multicore runs are plain jobs that write slots sized
 * at registration, read after the sweep.
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench/harness.hpp"
#include "core/composite.hpp"
#include "core/registry.hpp"
#include "sim/contention.hpp"
#include "sim/multicore.hpp"
#include "workloads/contention.hpp"
#include "workloads/stream_kernels.hpp"

namespace
{

using namespace dol;
using namespace dol::bench;

Collector &
collector()
{
    static Collector instance;
    return instance;
}

// --- Tables I and II ----------------------------------------------

void
printTableOne()
{
    const SimConfig config;
    std::printf("\n== Table I: processor configuration ==\n");
    TextTable table({"component", "configuration"});
    char buffer[128];

    std::snprintf(buffer, sizeof buffer,
                  "OoO, %u-wide, 3.0GHz, %u ROB, %u LSQ, "
                  "%u-cycle branch miss penalty",
                  config.core.width, config.core.robSize,
                  config.core.lsqSize, config.core.branchMissPenalty);
    table.addRow({"Core", buffer});

    const auto cache_row = [&](const char *name,
                               const Cache::Params &params) {
        std::snprintf(buffer, sizeof buffer,
                      "%u KB, %u-way, 64B lines, %lu-cycle latency, "
                      "%u MSHRs, LRU",
                      params.sizeBytes / 1024, params.assoc,
                      static_cast<unsigned long>(params.latency),
                      params.mshrs);
        table.addRow({name, buffer});
    };
    cache_row("Private L1D", config.mem.l1);
    cache_row("Private L2", config.mem.l2);
    cache_row("Shared L3 (per core)", config.mem.l3);

    std::snprintf(
        buffer, sizeof buffer,
        "DDR3-1600, %u channels, %u ranks, %u banks, tRCD/tRP/tCAS "
        "%lu/%lu/%lu cycles, burst %lu cycles",
        config.mem.dram.channels, config.mem.dram.ranksPerChannel,
        config.mem.dram.banksPerRank,
        static_cast<unsigned long>(config.mem.dram.tRCD),
        static_cast<unsigned long>(config.mem.dram.tRP),
        static_cast<unsigned long>(config.mem.dram.tCAS),
        static_cast<unsigned long>(config.mem.dram.tBurst));
    table.addRow({"Main memory", buffer});
    table.print();
}

const std::map<std::string, double> kPaperKilobytes = {
    {"GHB-PC/DC", 4.0}, {"SPP", 5.0},  {"VLDP", 3.25}, {"BOP", 4.0},
    {"FDP", 2.5},       {"SMS", 12.0}, {"AMPM", 4.0},  {"T2", 2.3},
    {"T2P1", 3.37},     {"TPC", 4.57},
};

void
printTableTwo()
{
    std::printf("\n== Table II: storage cost of evaluated "
                "prefetchers ==\n");
    TextTable table({"prefetcher", "measured KB", "paper KB", "ratio"});
    MemoryImage image;
    for (const auto &[name, paper_kb] : kPaperKilobytes) {
        auto pf = makePrefetcher(name, &image);
        const double kb =
            static_cast<double>(pf->storageBits()) / 8.0 / 1024.0;
        table.addRow({name, fmt("%.2f", kb), fmt("%.2f", paper_kb),
                      fmt("%.2f", kb / paper_kb)});
    }
    table.print();
}

// --- Figures 1, 8, 9 and 10 ---------------------------------------

void
printFigure1()
{
    const char *prefetchers[] = {"AMPM", "BOP", "SMS"};
    std::printf("\n== Figure 1: accuracy vs scope (per application) "
                "==\n");
    TextTable table({"prefetcher", "app", "scope", "eff.accuracy"});
    for (const char *pf : prefetchers) {
        for (const RunOutput *run : collector().specRuns(pf)) {
            table.addRow({pf, run->workload, fmt("%.2f", run->scope),
                          fmt("%.2f", run->effAccuracyL1)});
        }
    }
    table.print();

    std::printf("\n-- global averages (paper: AMPM 67%%/58%%, BOP "
                "76%%/49%%, SMS 87%%/48%%) --\n");
    TextTable avg({"prefetcher", "avg scope", "avg accuracy"});
    for (const char *pf : prefetchers) {
        avg.addRow({pf, fmt("%.2f", collector().weightedScope(pf)),
                    fmt("%.2f", collector().weightedAccuracy(pf))});
    }
    avg.print();
}

void
printFigure8()
{
    const auto prefetchers = figureEightPrefetcherNames();

    // Sort applications by average gain across prefetchers (the
    // paper's x-axis ordering).
    std::map<std::string, double> avg_gain;
    std::map<std::string, std::map<std::string, double>> cells;
    for (const std::string &pf : prefetchers) {
        for (const RunOutput *run : collector().specRuns(pf)) {
            cells[run->workload][pf] = run->speedup();
            avg_gain[run->workload] += run->speedup();
        }
    }
    std::vector<std::string> apps;
    for (const auto &[app, gain] : avg_gain)
        apps.push_back(app);
    std::sort(apps.begin(), apps.end(),
              [&](const std::string &a, const std::string &b) {
                  return avg_gain[a] < avg_gain[b];
              });

    std::printf("\n== Figure 8: speedup per application (sorted by "
                "average gain) ==\n");
    std::vector<std::string> headers{"app"};
    for (const auto &pf : prefetchers)
        headers.push_back(pf);
    TextTable table(headers);
    for (const std::string &app : apps) {
        std::vector<std::string> row{app};
        for (const auto &pf : prefetchers)
            row.push_back(fmt("%.2f", cells[app][pf]));
        table.addRow(row);
    }
    table.print();

    std::printf("\n-- suite geomean (paper: TPC 1.41, monolithics "
                "1.21-1.33) --\n");
    TextTable geo({"prefetcher", "geomean speedup", "best-in-N apps"});
    for (const auto &pf : prefetchers) {
        unsigned best = 0;
        for (const std::string &app : apps) {
            bool is_best = true;
            for (const auto &other : prefetchers)
                is_best &= cells[app][pf] >= cells[app][other] - 1e-9;
            best += is_best;
        }
        geo.addRow({pf, fmt("%.3f", collector().geomeanSpeedup(pf)),
                    fmt("%.0f", static_cast<double>(best))});
    }
    geo.print();
}

void
printFigure9()
{
    std::printf("\n== Figure 9: normalized memory traffic (geomean "
                "and range; paper: TPC 1.06, BOP 1.12) ==\n");
    TextTable table(
        {"prefetcher", "geomean traffic", "min", "max"});
    for (const std::string &pf : figureEightPrefetcherNames()) {
        std::vector<double> traffic;
        RunningStat range;
        for (const RunOutput *run : collector().specRuns(pf)) {
            traffic.push_back(std::max(run->trafficNormalized, 1e-6));
            range.add(run->trafficNormalized);
        }
        table.addRow({pf, fmt("%.3f", geomean(traffic)),
                      fmt("%.2f", range.min()),
                      fmt("%.2f", range.max())});
    }
    table.print();
}

void
printFigure10()
{
    std::printf("\n== Figure 10: effective accuracy vs scope (per "
                "app; weight = prefetches issued) ==\n");
    TextTable table({"prefetcher", "app", "scope", "accuracy",
                     "issued"});
    for (const std::string &pf : figureEightPrefetcherNames()) {
        for (const RunOutput *run : collector().specRuns(pf)) {
            table.addRow(
                {pf, run->workload, fmt("%.2f", run->scope),
                 fmt("%.2f", run->effAccuracyL1),
                 fmt("%.0f",
                     static_cast<double>(run->prefetchesIssued))});
        }
    }
    table.print();

    std::printf("\n-- weighted suite averages (paper: monolithics "
                "45-69%%, TPC 82%%) --\n");
    TextTable avg({"prefetcher", "avg scope", "avg accuracy",
                   "worst-app accuracy"});
    for (const std::string &pf : figureEightPrefetcherNames()) {
        RunningStat worst;
        for (const RunOutput *run : collector().specRuns(pf)) {
            if (run->prefetchesIssued > 100)
                worst.add(run->effAccuracyL1);
        }
        avg.addRow({pf, fmt("%.2f", collector().weightedScope(pf)),
                    fmt("%.2f", collector().weightedAccuracy(pf)),
                    fmt("%.2f", worst.min())});
    }
    avg.print();
}

// --- Figure 11 and the contention mixes ---------------------------

constexpr unsigned kNumMixes = 6;

/** Per-core IPC of Figure 11's mix m: without prefetching in
 *  noPrefetchIpc[m], under prefetcher p in mixIpc[p * kNumMixes + m]
 *  (p indexes figureEightPrefetcherNames()). */
std::vector<std::vector<double>> noPrefetchIpc;
std::vector<std::vector<double>> mixIpc;

/** Fairness of contentionMixes()[i] against its solo baselines. */
std::vector<FairnessMetrics> contentionFairness;

/** Queue 4-core mix @p mix_index under @p prefetcher ("" = none);
 *  its per-core IPCs, all it reads, land in @p slot. */
void
registerMix(unsigned mix_index, const std::string &prefetcher,
            std::vector<double> &slot)
{
    const std::string label =
        (prefetcher.empty() ? "baseline" : prefetcher) + "/mix" +
        std::to_string(mix_index);
    collector().addJob(
        label, [mix_index, prefetcher, &slot](ExperimentRunner &) {
            MulticoreSimulator sim(
                makeBenchConfig(40000),
                makeMixes(kNumMixes, 2018, prefetcher)[mix_index],
                ShadowMode::kNone);
            slot = sim.run().ipc;
            return std::vector<RunOutput>{};
        });
}

/**
 * Figure 11's single-core cells (Figures 1, 8, 9, 10, 12 and 13 read
 * their SPEC-like rows, Figure 15 their TPC row), its homogeneous
 * mixes and their no-prefetch runs, and one job per named contention
 * mix: heterogeneous per-core prefetchers against per-core solo
 * baselines, summarized by the fairness metrics.
 */
void
registerFigure11()
{
    const auto prefetchers = figureEightPrefetcherNames();
    noPrefetchIpc.resize(kNumMixes);
    mixIpc.resize(prefetchers.size() * kNumMixes);
    for (unsigned m = 0; m < kNumMixes; ++m)
        registerMix(m, "", noPrefetchIpc[m]);
    for (std::size_t p = 0; p < prefetchers.size(); ++p) {
        for (const WorkloadSpec &spec : allWorkloads())
            collector().addCell(spec, prefetchers[p]);
        for (unsigned m = 0; m < kNumMixes; ++m)
            registerMix(m, prefetchers[p], mixIpc[p * kNumMixes + m]);
    }

    const auto &mixes = contentionMixes();
    contentionFairness.resize(mixes.size());
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        collector().addJob(
            "contention/" + mixes[i].name,
            [&mix = mixes[i], &slot = contentionFairness[i]](
                ExperimentRunner &) {
                slot = runContentionScenario(makeBenchConfig(40000),
                                             mix)
                           .fairness;
                return std::vector<RunOutput>{};
            });
    }
}

void
printFigure11()
{
    const auto prefetchers = figureEightPrefetcherNames();

    std::printf("\n== Figure 11: geomean speedup by suite ==\n");
    TextTable table({"prefetcher", "spec", "crono", "starbench",
                     "npb", "temporal", "4-core mixes", "all"});
    for (std::size_t p = 0; p < prefetchers.size(); ++p) {
        std::map<std::string, std::vector<double>> by_suite;
        std::vector<double> all;
        for (const RunOutput *run :
             collector().byPrefetcher(prefetchers[p])) {
            const std::string &suite =
                findWorkload(run->workload).suite;
            by_suite[suite].push_back(std::max(run->speedup(), 1e-6));
            all.push_back(std::max(run->speedup(), 1e-6));
        }
        std::vector<double> mixes;
        for (unsigned m = 0; m < kNumMixes; ++m) {
            const double ws =
                computeFairness(noPrefetchIpc[m],
                                mixIpc[p * kNumMixes + m])
                    .weightedSpeedup;
            mixes.push_back(std::max(ws, 1e-6));
            all.push_back(std::max(ws, 1e-6));
        }
        table.addRow({prefetchers[p],
                      fmt("%.3f", geomean(by_suite["spec"])),
                      fmt("%.3f", geomean(by_suite["crono"])),
                      fmt("%.3f", geomean(by_suite["starbench"])),
                      fmt("%.3f", geomean(by_suite["npb"])),
                      fmt("%.3f", geomean(by_suite["temporal"])),
                      fmt("%.3f", geomean(mixes)),
                      fmt("%.3f", geomean(all))});
    }
    table.print();
    std::printf("(paper: TPC 1.39 vs 1.22-1.31 across 68 "
                "workloads)\n");

    std::printf("\n== Heterogeneous contention mixes ==\n");
    TextTable mix_table({"mix", "per-core prefetchers", "wspeedup",
                         "hspeedup", "unfairness", "max slowdown"});
    for (std::size_t i = 0; i < contentionFairness.size(); ++i) {
        const ContentionMix &mix = contentionMixes()[i];
        const FairnessMetrics &fairness = contentionFairness[i];
        double max_slowdown = 0.0;
        for (double s : fairness.slowdown)
            max_slowdown = std::max(max_slowdown, s);
        mix_table.addRow(
            {mix.name, mixPrefetcherLabel(mix),
             fmt("%.3f", fairness.weightedSpeedup),
             fmt("%.3f", fairness.harmonicSpeedup),
             fmt("%.3f", fairness.unfairness),
             fmt("%.3f", max_slowdown)});
    }
    mix_table.print();
}

// --- Figures 12 and 13 --------------------------------------------

/** Figure 12's configurations: the monolithics, then TPC built up. */
std::vector<std::string>
gridPrefetchers()
{
    std::vector<std::string> names = monolithicPrefetcherNames();
    names.insert(names.end(), {"T2", "T2P1", "TPC"});
    return names;
}

/** Figure 12's T2 and T2+P1 points; its other points are Figure 11's
 *  cells. */
void
registerFigure12()
{
    for (const char *pf : {"T2", "T2P1"}) {
        for (const WorkloadSpec &spec : speclikeSuite())
            collector().addCell(spec, pf);
    }
}

void
printFigure12()
{
    std::printf("\n== Figure 12: suite-wide accuracy & coverage vs "
                "scope (L1 and L2) ==\n");
    TextTable table({"config", "scope", "accL1", "covL1", "accL2",
                     "covL2"});
    std::vector<double> mono_scope, mono_acc;
    for (const std::string &pf : gridPrefetchers()) {
        double acc1 = 0, cov1 = 0, acc2 = 0, cov2 = 0, den = 0;
        for (const RunOutput *run : collector().specRuns(pf)) {
            const double w = run->baselineMpkiL1;
            acc1 += run->effAccuracyL1 * w;
            cov1 += run->effCoverageL1 * w;
            acc2 += run->effAccuracyL2 * w;
            cov2 += run->effCoverageL2 * w;
            den += w;
        }
        if (den > 0) {
            acc1 /= den; cov1 /= den; acc2 /= den; cov2 /= den;
        }
        const double scope = collector().weightedScope(pf);
        if (pf != "T2" && pf != "T2P1" && pf != "TPC") {
            mono_scope.push_back(scope);
            mono_acc.push_back(acc1);
        }
        table.addRow({pf, fmt("%.2f", scope), fmt("%.2f", acc1),
                      fmt("%.2f", cov1), fmt("%.2f", acc2),
                      fmt("%.2f", cov2)});
    }
    table.print();

    const LinearFit fit = linearFit(mono_scope, mono_acc);
    std::printf("\nmonolithic accuracy-vs-scope regression: "
                "accuracy = %.2f + %.2f * scope\n",
                fit.intercept, fit.slope);
    std::printf("(paper: accuracy falls as scope grows; TPC sits "
                "above the line)\n");
}

void
printFigure13()
{
    std::printf("\n== Figure 13: per-category accuracy and scope "
                "==\n");
    TextTable table({"prefetcher", "category", "issued", "accuracy",
                     "scope"});
    for (const std::string &pf : figureEightPrefetcherNames()) {
        for (unsigned f = 0; f < kNumFruit; ++f) {
            std::uint64_t issued = 0;
            double used = 0, induced = 0, scope_num = 0,
                   scope_den = 0;
            for (const RunOutput *run : collector().specRuns(pf)) {
                issued += run->categories[f].issued;
                used += static_cast<double>(run->categories[f].used);
                induced += run->categories[f].inducedCredit;
                scope_num += run->categoryScope[f] *
                             run->baselineMpkiL1;
                scope_den += run->baselineMpkiL1;
            }
            const double accuracy =
                issued ? (used - induced) /
                             static_cast<double>(issued)
                       : 0.0;
            table.addRow(
                {pf, fruitName(static_cast<Fruit>(f)),
                 fmt("%.0f", static_cast<double>(issued)),
                 fmt("%.2f", accuracy),
                 fmt("%.2f",
                     scope_den ? scope_num / scope_den : 0.0)});
        }
    }
    table.print();
    std::printf("(paper: LHF dominates volume; C1's MHF accuracy "
                "61%% beats monolithics' 32-56%%; P1's HHF accuracy "
                "86%% vs at best 38%%)\n");
}

// --- Figures 14 and 15 --------------------------------------------

const char *kExtras[] = {"VLDP", "SPP", "FDP", "SMS"};

/**
 * Figure 14: one job per workload runs TPC once for the exclude set
 * (its prefetched lines define the uncovered region), then every
 * extra design alone and composed inside it.
 */
void
registerFigure14()
{
    for (const WorkloadSpec &spec : speclikeSuite()) {
        collector().addJob(
            "fig14/" + spec.name,
            [spec](ExperimentRunner &runner) {
                RunOptions focus;
                focus.exclude = runner.prefetchedLines(spec, "TPC");
                std::vector<RunOutput> out;
                for (const char *extra : kExtras) {
                    out.push_back(runner.run(spec, extra, focus));
                    out.push_back(runner.run(
                        spec, "TPC+" + std::string(extra), focus));
                }
                return out;
            },
            ":focus");
    }
}

void
printFigure14()
{
    std::printf("\n== Figure 14: alone vs as-a-TPC-component, inside "
                "the region TPC does not cover ==\n");
    TextTable table({"design", "alone acc", "alone scope",
                     "component acc", "component scope"});
    for (const char *extra : kExtras) {
        double alone_acc = 0, alone_scope = 0;
        double comp_acc = 0, comp_scope = 0, weight = 0;
        const auto alone_runs = collector().byPrefetcher(extra, ":focus");
        const auto comp_runs = collector().byPrefetcher(
            "TPC+" + std::string(extra), ":focus");
        for (std::size_t i = 0;
             i < alone_runs.size() && i < comp_runs.size(); ++i) {
            const RunOutput &alone = *alone_runs[i];
            const RunOutput &composed = *comp_runs[i];
            const double w = alone.baselineMpkiL1 + 1e-9;
            alone_acc += alone.focus.effectiveAccuracy() * w;
            alone_scope += alone.focusScope * w;
            comp_acc += composed.focus.effectiveAccuracy() * w;
            comp_scope += composed.focusScope * w;
            weight += w;
        }
        if (weight > 0) {
            alone_acc /= weight;
            alone_scope /= weight;
            comp_acc /= weight;
            comp_scope /= weight;
        }
        table.addRow({extra, fmt("%.2f", alone_acc),
                      fmt("%.2f", alone_scope), fmt("%.2f", comp_acc),
                      fmt("%.2f", comp_scope)});
    }
    table.print();
    std::printf("(paper: accuracy improves in every case when "
                "composed, e.g. SMS 27%% -> 43%%)\n");
}

/** Figure 15's composed and shunted cells; TPC alone is Figure 11's. */
void
registerFigure15()
{
    for (const char *extra : kExtras) {
        for (const WorkloadSpec &spec : speclikeSuite()) {
            collector().addCell(spec, std::string("TPC+") + extra);
            collector().addCell(spec,
                                std::string("SHUNT:TPC+") + extra);
        }
    }
}

void
printFigure15()
{
    std::printf("\n== Figure 15: compositing vs shunting, normalized "
                "to TPC alone ==\n");

    std::map<std::string, double> tpc_speedup;
    for (const RunOutput *run : collector().byPrefetcher("TPC"))
        tpc_speedup[run->workload] = run->speedup();

    TextTable table({"extra", "compose avg", "compose min",
                     "compose max", "shunt avg", "shunt min",
                     "shunt max"});
    for (const char *extra : kExtras) {
        RunningStat compose, shunt;
        for (const RunOutput *run :
             collector().byPrefetcher(std::string("TPC+") + extra)) {
            compose.add(run->speedup() /
                        tpc_speedup[run->workload]);
        }
        for (const RunOutput *run : collector().byPrefetcher(
                 std::string("SHUNT:TPC+") + extra)) {
            shunt.add(run->speedup() / tpc_speedup[run->workload]);
        }
        table.addRow({extra, fmt("%.3f", compose.mean()),
                      fmt("%.2f", compose.min()),
                      fmt("%.2f", compose.max()),
                      fmt("%.3f", shunt.mean()),
                      fmt("%.2f", shunt.min()),
                      fmt("%.2f", shunt.max())});
    }
    table.print();
    std::printf("(paper: compose 1.03-1.08 and never below 1.0; "
                "shunt 0.94-0.99)\n");
}

// --- Figure 16 ----------------------------------------------------

void
registerFigure16()
{
    for (const std::string &pf : figureEightPrefetcherNames()) {
        for (const WorkloadSpec &spec : speclikeSuite()) {
            RunOptions to_l2;
            to_l2.forceDest = kL2;
            collector().addCell(spec, pf, to_l2, ":L2");

            RunOptions to_l1;
            // TPC's natural policy is already component-stratified;
            // forcing L1 moves C1's region prefetches up as well.
            to_l1.forceDest = kL1;
            collector().addCell(spec, pf, to_l1, ":L1");

            RunOptions stratified;
            stratified.oracleDest = pf != "TPC";
            collector().addCell(spec, pf, stratified, ":strat");
        }
    }
}

void
printFigure16()
{
    std::printf("\n== Figure 16: prefetch destination policy "
                "(suite average speedup and range) ==\n");
    TextTable table({"prefetcher", "to L2", "to L1", "stratified",
                     "range L1 (min..max)"});
    for (const std::string &pf : figureEightPrefetcherNames()) {
        RunningStat l2, l1, strat;
        for (const RunOutput *run : collector().byPrefetcher(pf, ":L2"))
            l2.add(run->speedup());
        for (const RunOutput *run : collector().byPrefetcher(pf, ":L1"))
            l1.add(run->speedup());
        for (const RunOutput *run :
             collector().byPrefetcher(pf, ":strat"))
            strat.add(run->speedup());
        table.addRow({pf, fmt("%.3f", l2.mean()),
                      fmt("%.3f", l1.mean()),
                      fmt("%.3f", strat.mean()),
                      fmt("%.2f", l1.min()) + ".." +
                          fmt("%.2f", l1.max())});
    }
    table.print();
    std::printf("(paper: L1 beats L2 on average; stratified "
                "destinations match or beat both — TPC gets this "
                "without an oracle)\n");
}

// --- T2 design ablations ------------------------------------------

/** The ablation's configuration names, in registration order. */
std::vector<std::string> t2Variants;

/** Queue T2 alone, its parameters adjusted by @p tune, as @p name. */
void
addT2Variant(const WorkloadSpec &spec, const std::string &name,
             std::function<void(T2Prefetcher::Params &)> tune)
{
    RunOptions options;
    options.factory = [tune](const ValueSource *memory) {
        CompositePrefetcher::Config config;
        config.enableP1 = false;
        config.enableC1 = false;
        tune(config.t2);
        return std::make_unique<CompositePrefetcher>(memory, config,
                                                     "T2.variant");
    };
    t2Variants.push_back(name);
    collector().addCell(spec, name, std::move(options));
}

void
registerT2Ablation()
{
    const WorkloadSpec call_stream = {
        "callstream.abl", "ablation", [](MemoryImage &image) {
            return std::make_unique<CallStreamKernel>(
                image, CallStreamKernel::Params{
                           .strideA = 64,
                           .strideB = 192,
                           .footprintBytes = 16ull << 20,
                           .seed = 77});
        }};
    const WorkloadSpec &stencil = findWorkload("lbm.syn");
    const WorkloadSpec &stream = findWorkload("libquantum.syn");

    // mPC xor on/off on the call-site workload.
    addT2Variant(call_stream, "T2-mPC", [](T2Prefetcher::Params &) {});
    addT2Variant(call_stream, "T2-noXor",
                 [](T2Prefetcher::Params &params) {
                     params.useCallSiteXor = false;
                 });

    // NLPCT size on the stencil (nested-loop) workload.
    addT2Variant(stencil, "T2-nlpct20", [](T2Prefetcher::Params &) {});
    addT2Variant(stencil, "T2-nlpct1",
                 [](T2Prefetcher::Params &params) {
                     params.nlpctEntries = 1;
                 });

    // Strided-confirm threshold sweep on a clean stream.
    for (unsigned threshold : {4u, 16u, 64u}) {
        addT2Variant(stream, "T2-confirm" + std::to_string(threshold),
                     [threshold](T2Prefetcher::Params &params) {
                         params.strideThreshold = threshold;
                     });
    }

    // Early-issue threshold: disable early prefetching entirely.
    addT2Variant(stream, "T2-noEarly",
                 [](T2Prefetcher::Params &params) {
                     params.earlyThreshold = 255;
                 });
}

void
printT2Ablation()
{
    std::printf("\n== T2 design ablations ==\n");
    TextTable table({"variant", "workload", "speedup", "accuracy",
                     "scope"});
    for (const std::string &name : t2Variants) {
        for (const RunOutput *run : collector().byPrefetcher(name)) {
            table.addRow({run->prefetcher, run->workload,
                          fmt("%.3f", run->speedup()),
                          fmt("%.2f", run->effAccuracyL1),
                          fmt("%.2f", run->scope)});
        }
    }
    table.print();
    std::printf("(the mPC xor is what lets T2 split the two call-site "
                "streams; without it scope collapses)\n");
}

// --- Drop-policy ablation -----------------------------------------

constexpr unsigned kNumDropMixes = 5;

struct DropRow
{
    double randomWs = 0.0;
    double smartWs = 0.0;
};

/** One row per mix, written by that mix's job. */
std::vector<DropRow> dropRows;

SimConfig
stressedConfig(DropPolicy policy)
{
    SimConfig config = makeBenchConfig(35000);
    // A shallow queue makes controller pressure (and thus the drop
    // decision) matter, as in the paper's shared-resource scenario.
    config.mem.dram.queueCapacity = 10;
    config.mem.dram.dropPolicy = policy;
    return config;
}

void
registerDropPolicy()
{
    dropRows.resize(kNumDropMixes);
    for (unsigned m = 0; m < kNumDropMixes; ++m) {
        collector().addJob(
            "drop_policy/mix" + std::to_string(m),
            [m, &row = dropRows[m]](ExperimentRunner &) {
                const auto mix = makeMixes(kNumDropMixes, 4242)[m];
                const auto tpc_mix =
                    makeMixes(kNumDropMixes, 4242, "TPC")[m];
                const std::vector<double> baseline =
                    MulticoreSimulator(
                        stressedConfig(DropPolicy::kRandomPrefetch), mix,
                        ShadowMode::kNone)
                        .run()
                        .ipc;
                const auto ws = [&](DropPolicy policy) {
                    MulticoreSimulator sim(stressedConfig(policy),
                                           tpc_mix, ShadowMode::kNone);
                    return computeFairness(baseline, sim.run().ipc)
                        .weightedSpeedup;
                };
                row.randomWs = ws(DropPolicy::kRandomPrefetch);
                row.smartWs = ws(DropPolicy::kLowPriorityPrefetch);
                return std::vector<RunOutput>{};
            });
    }
}

void
printDropPolicy()
{
    std::printf("\n== Drop policy ablation (4-core, shallow "
                "controller queue) ==\n");
    TextTable table({"mix", "random-drop WS", "drop-C1-first WS",
                     "gain"});
    double gain_sum = 0.0;
    for (std::size_t m = 0; m < dropRows.size(); ++m) {
        const DropRow &row = dropRows[m];
        const double gain =
            row.randomWs > 0 ? row.smartWs / row.randomWs : 1.0;
        gain_sum += gain;
        table.addRow({"mix" + std::to_string(m),
                      fmt("%.3f", row.randomWs),
                      fmt("%.3f", row.smartWs), fmt("%.3f", gain)});
    }
    table.print();
    std::printf("average gain from priority-aware dropping: "
                "%.1f%% (paper: ~6%%)\n",
                100.0 * (gain_sum / dropRows.size() - 1.0));
}

} // namespace

int
main(int argc, char **argv)
{
    registerFigure11();
    registerFigure12();
    registerFigure14();
    registerFigure15();
    registerFigure16();
    registerT2Ablation();
    registerDropPolicy();
    return benchMain(argc, argv, &collector(), [] {
        printTableOne();
        printTableTwo();
        printFigure1();
        printFigure8();
        printFigure9();
        printFigure10();
        printFigure11();
        printFigure12();
        printFigure13();
        printFigure14();
        printFigure15();
        printFigure16();
        printT2Ablation();
        printDropPolicy();
    });
}
