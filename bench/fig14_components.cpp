/**
 * @file
 * Figure 14: existing prefetchers working alone vs as a component
 * beside TPC, measured inside the region TPC does not cover (the
 * exclude set is TPC's own prefetching footprint). The paper's
 * finding: as a coordinated component, each design's accuracy in that
 * region improves (e.g. SMS 27%% -> 43%%).
 *
 * Each workload is one parallel job: it runs TPC once for the
 * exclude set, then every design alone and composed inside it. The
 * suite-weighted aggregation happens after the sweep, in registration
 * order.
 */

#include <cstdio>
#include <map>

#include "bench/harness.hpp"
#include "core/registry.hpp"

namespace
{

const char *kExtras[] = {"VLDP", "SPP", "FDP", "SMS"};

struct FocusResult
{
    double accuracy = 0.0;
    double scope = 0.0;
    std::uint64_t issued = 0;
};

struct Cell
{
    FocusResult alone;
    FocusResult composed;
};

dol::bench::Collector &
collector()
{
    static dol::bench::Collector instance(150000);
    return instance;
}

void
registerWorkload(const dol::WorkloadSpec &spec)
{
    using namespace dol;
    collector().addJob(
        "fig14/" + spec.name, [spec](ExperimentRunner &runner) {
            // TPC's prefetched lines define the uncovered region.
            RunOptions focus;
            focus.exclude = runner.prefetchedLines(spec, "TPC");
            std::vector<RunOutput> out;
            for (const char *extra : kExtras) {
                out.push_back(runner.run(spec, extra, focus));
                out.push_back(runner.run(
                    spec, "TPC+" + std::string(extra), focus));
            }
            return out;
        });
}

void
printSummary()
{
    using namespace dol;
    std::map<std::string, Cell> cells;
    for (const char *extra : kExtras) {
        double alone_acc = 0, alone_scope = 0;
        double comp_acc = 0, comp_scope = 0, weight = 0;
        std::uint64_t alone_issued = 0, comp_issued = 0;

        const auto alone_runs = collector().byPrefetcher(extra);
        const auto comp_runs =
            collector().byPrefetcher("TPC+" + std::string(extra));
        for (std::size_t i = 0;
             i < alone_runs.size() && i < comp_runs.size(); ++i) {
            const RunOutput &alone = *alone_runs[i];
            const RunOutput &composed = *comp_runs[i];
            const double w = alone.baselineMpkiL1 + 1e-9;
            alone_acc += alone.focus.effectiveAccuracy() * w;
            alone_scope += alone.focusScope * w;
            alone_issued += alone.focus.issued;
            comp_acc += composed.focus.effectiveAccuracy() * w;
            comp_scope += composed.focusScope * w;
            comp_issued += composed.focus.issued;
            weight += w;
        }
        if (weight > 0) {
            Cell cell;
            cell.alone = {alone_acc / weight, alone_scope / weight,
                          alone_issued};
            cell.composed = {comp_acc / weight, comp_scope / weight,
                             comp_issued};
            cells[extra] = cell;
        }
    }

    std::printf("\n== Figure 14: alone vs as-a-TPC-component, inside "
                "the region TPC does not cover ==\n");
    TextTable table({"design", "alone acc", "alone scope",
                     "component acc", "component scope"});
    for (const char *extra : kExtras) {
        const Cell &cell = cells[extra];
        table.addRow({extra, fmt("%.2f", cell.alone.accuracy),
                      fmt("%.2f", cell.alone.scope),
                      fmt("%.2f", cell.composed.accuracy),
                      fmt("%.2f", cell.composed.scope)});
    }
    table.print();
    std::printf("(paper: accuracy improves in every case when "
                "composed, e.g. SMS 27%% -> 43%%)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    for (const dol::WorkloadSpec &spec : dol::speclikeSuite())
        registerWorkload(spec);
    return dol::bench::benchMain(argc, argv, &collector(),
                                 printSummary);
}
