/**
 * @file
 * Figure 15: compositing vs shunting an existing prefetcher with TPC,
 * normalized to TPC alone (paper: compositing gains 3-8%% and never
 * loses; shunting loses 1-6%% on average).
 */

#include <cstdio>

#include "bench/harness.hpp"
#include "core/registry.hpp"

namespace
{

const char *kExtras[] = {"VLDP", "SPP", "FDP", "SMS"};

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

    std::printf("\n== Figure 15: compositing vs shunting, normalized "
                "to TPC alone ==\n");

    // Per-workload TPC speedups index.
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

} // namespace

int
main(int argc, char **argv)
{
    using namespace dol;
    for (const WorkloadSpec &spec : speclikeSuite())
        collector().addCell(spec, "TPC");
    for (const char *extra : kExtras) {
        for (const WorkloadSpec &spec : speclikeSuite()) {
            collector().addCell(spec, std::string("TPC+") + extra);
            collector().addCell(spec,
                                std::string("SHUNT:TPC+") + extra);
        }
    }
    return bench::benchMain(argc, argv, &collector(), printSummary);
}
