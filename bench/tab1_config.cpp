/**
 * @file
 * Table I: the simulated machine configuration.
 */

#include <cstdio>

#include "bench/harness.hpp"
#include "metrics/table.hpp"
#include "sim/simulator.hpp"

namespace
{

void
printTableOne()
{
    using namespace dol;
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

} // namespace

int
main(int argc, char **argv)
{
    return dol::bench::benchMain(argc, argv, printTableOne);
}
