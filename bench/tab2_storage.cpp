/**
 * @file
 * Table II: storage cost of every evaluated prefetcher, measured from
 * each implementation's storageBits() against the paper's budgets.
 */

#include <cstdio>
#include <map>

#include "bench/harness.hpp"
#include "core/registry.hpp"
#include "metrics/table.hpp"

namespace
{

const std::map<std::string, double> kPaperKilobytes = {
    {"GHB-PC/DC", 4.0}, {"SPP", 5.0},  {"VLDP", 3.25}, {"BOP", 4.0},
    {"FDP", 2.5},       {"SMS", 12.0}, {"AMPM", 4.0},  {"T2", 2.3},
    {"T2P1", 3.37},     {"TPC", 4.57},
};

void
printTableTwo()
{
    using namespace dol;
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

} // namespace

int
main(int argc, char **argv)
{
    return dol::bench::benchMain(argc, argv, printTableTwo);
}
