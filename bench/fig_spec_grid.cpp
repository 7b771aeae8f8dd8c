/**
 * @file
 * Figures 1, 8, 9, 10, 12 and 13: six views of one experiment, the 21
 * SPEC-like applications under the seven monolithic prefetchers, T2,
 * T2+P1 and TPC. The grid runs once and each figure's summary reads
 * only its own prefetchers:
 *  - Fig. 1: accuracy vs scope for AMPM, BOP and SMS (the motivating
 *    tradeoff: scope rises AMPM -> BOP -> SMS while accuracy falls);
 *  - Fig. 8: per-application speedup, sorted by average gain, and the
 *    suite geomeans (paper: TPC 1.41 vs 1.21-1.33 for monolithics);
 *  - Fig. 9: memory traffic normalized to the no-prefetch baseline
 *    (paper: TPC +6%, the best monolithic (BOP) +12%);
 *  - Fig. 10: effective accuracy (L1) vs scope for every prefetcher,
 *    weighted by prefetches issued (paper: monolithic averages 45-69%,
 *    TPC 82% with worst-case 49%);
 *  - Fig. 12: suite-wide accuracy and coverage vs scope at L1 and L2,
 *    with TPC built up incrementally (T2, +P1, +C1) and a linear fit
 *    over the monolithic points;
 *  - Fig. 13: accuracy and scope stratified by the offline LHF / MHF /
 *    HHF ground-truth categories (paper: P1 reaches 86% HHF accuracy
 *    while monolithics reach at best 38%).
 */

#include <algorithm>
#include <cstdio>
#include <map>

#include "bench/harness.hpp"
#include "core/registry.hpp"

namespace
{

using namespace dol;
using namespace dol::bench;

Collector &
collector()
{
    static Collector instance(200000);
    return instance;
}

/** Figure 12's configurations: the monolithics, then TPC built up. */
std::vector<std::string>
gridPrefetchers()
{
    std::vector<std::string> names = monolithicPrefetcherNames();
    names.insert(names.end(), {"T2", "T2P1", "TPC"});
    return names;
}

void
printFigure1()
{
    const char *prefetchers[] = {"AMPM", "BOP", "SMS"};
    std::printf("\n== Figure 1: accuracy vs scope (per application) "
                "==\n");
    TextTable table({"prefetcher", "app", "scope", "eff.accuracy"});
    for (const char *pf : prefetchers) {
        for (const RunOutput *run : collector().byPrefetcher(pf)) {
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
        for (const RunOutput *run : collector().byPrefetcher(pf)) {
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
        for (const RunOutput *run : collector().byPrefetcher(pf)) {
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
        for (const RunOutput *run : collector().byPrefetcher(pf)) {
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
        for (const RunOutput *run : collector().byPrefetcher(pf)) {
            if (run->prefetchesIssued > 100)
                worst.add(run->effAccuracyL1);
        }
        avg.addRow({pf, fmt("%.2f", collector().weightedScope(pf)),
                    fmt("%.2f", collector().weightedAccuracy(pf)),
                    fmt("%.2f", worst.min())});
    }
    avg.print();
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
        for (const RunOutput *run : collector().byPrefetcher(pf)) {
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
            for (const RunOutput *run : collector().byPrefetcher(pf)) {
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

} // namespace

int
main(int argc, char **argv)
{
    for (const std::string &pf : gridPrefetchers()) {
        for (const WorkloadSpec &spec : speclikeSuite())
            collector().addCell(spec, pf);
    }
    return benchMain(argc, argv, &collector(), [] {
        printFigure1();
        printFigure8();
        printFigure9();
        printFigure10();
        printFigure12();
        printFigure13();
    });
}
