/**
 * @file
 * Figure 16: the effect of prefetch destination. For each prefetcher,
 * three policies: everything into L2, everything into L1, and the
 * stratified policy (LHF to L1, the rest to L2 — an oracle for
 * monolithics, TPC's natural component-based behaviour).
 */

#include <cstdio>

#include "bench/harness.hpp"
#include "core/registry.hpp"

namespace
{

dol::bench::Collector &
collector()
{
    static dol::bench::Collector instance(150000);
    return instance;
}

void
printSummary()
{
    using namespace dol;
    using namespace dol::bench;

    std::printf("\n== Figure 16: prefetch destination policy "
                "(suite average speedup and range) ==\n");
    TextTable table({"prefetcher", "to L2", "to L1", "stratified",
                     "range L1 (min..max)"});
    for (const std::string &pf : figureEightPrefetcherNames()) {
        RunningStat l2, l1, strat;
        // Results were recorded in registration order: L2, L1,
        // stratified for each workload.
        const auto runs = collector().byPrefetcher(pf);
        for (std::size_t i = 0; i + 2 < runs.size(); i += 3) {
            l2.add(runs[i]->speedup());
            l1.add(runs[i + 1]->speedup());
            strat.add(runs[i + 2]->speedup());
        }
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace dol;
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
    return bench::benchMain(argc, argv, &collector(), printSummary);
}
