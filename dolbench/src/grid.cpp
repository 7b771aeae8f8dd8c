#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"
#include "runner/result_store.hpp"
#include "runner/sweep.hpp"

namespace dolbench
{

namespace
{

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs{
        {"paper_grid", 200000},
        {"extras_grid", 500000},
        {"contention_mixes", 200000},
    };
    return defs;
}

std::string
seedSuffix(unsigned k)
{
    return ":s" + std::to_string(k);
}

void
addGridCells(std::vector<Cell> &cells,
             const std::vector<dol::WorkloadSpec> &specs,
             const std::vector<std::string> &prefetchers,
             const std::string &pin_variant, bool adaptive, unsigned k)
{
    for (const dol::WorkloadSpec &spec : specs) {
        for (const std::string &prefetcher : prefetchers) {
            Cell cell;
            cell.pinVariant = pin_variant;
            cell.variant = pin_variant + seedSuffix(k);
            cell.label = prefetcher + "/" + spec.name + cell.variant;
            cell.spec = spec;
            cell.prefetcher = prefetcher;
            cell.options.collectCounters = true;
            cell.options.adaptiveCoordinator = adaptive;
            cells.push_back(std::move(cell));
        }
    }
}

const dol::WorkloadSpec &
traceSpec(const std::string &name)
{
    for (const dol::WorkloadSpec &spec : dol::traceSuite()) {
        if (spec.name == name)
            return spec;
    }
    throw std::runtime_error("ChampSim fixture " + name +
                             " not found (set DOL_TRACE_DIR)");
}

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

} // namespace

const WorkloadDef *
findWorkloadDef(const std::string &name)
{
    for (const WorkloadDef &def : workloadDefs()) {
        if (def.name == name)
            return &def;
    }
    return nullptr;
}

std::string
Cell::pinKey() const
{
    if (mix)
        return "mix:" + mix->name + "|" + dol::mixPrefetcherLabel(*mix) +
               "|" + pinVariant;
    return spec.name + "|" + prefetcher + "|" + pinVariant;
}

std::vector<Cell>
buildCells(const WorkloadDef &def, unsigned k)
{
    std::vector<Cell> cells;
    if (def.name == "paper_grid") {
        std::vector<dol::WorkloadSpec> specs;
        for (const auto *suite :
             {&dol::speclikeSuite(), &dol::cronoSuite(),
              &dol::starbenchSuite(), &dol::npbSuite()})
            specs.insert(specs.end(), suite->begin(), suite->end());
        addGridCells(cells, specs,
                     {"TPC", "SPP", "BOP", "VLDP", "AMPM", "SMS",
                      "GHB-PC/DC", "FDP"},
                     "", false, k);
    } else if (def.name == "extras_grid") {
        std::vector<dol::WorkloadSpec> specs = dol::temporalSuite();
        specs.push_back(traceSpec("trace:stream_gups"));
        specs.push_back(traceSpec("trace:linked_walk"));
        const std::vector<std::string> prefetchers{
            "TPC+SPP+Triangel+PChase", "TPC+SPP"};
        addGridCells(cells, specs, prefetchers, ":coord=hardwired",
                     false, k);
        addGridCells(cells, specs, prefetchers, ":coord=adaptive", true,
                     k);
    } else if (def.name == "contention_mixes") {
        for (const dol::ContentionMix &mix : dol::contentionMixes()) {
            for (const char *arb : {"demand-first", "fifo", "rr"}) {
                Cell cell;
                cell.mix = &mix;
                if (!dol::arbitrationFromName(arb, cell.arbitration))
                    throw std::runtime_error("bad arbitration");
                cell.pinVariant = std::string(":arb=") + arb;
                cell.variant = cell.pinVariant + seedSuffix(k);
                cell.label = "mix:" + mix.name;
                cells.push_back(std::move(cell));
            }
        }
    }
    return cells;
}

std::string
rowDigest(const dol::runner::MetricsRow &row)
{
    // The row exactly as dol-sweep-v1 serializes it (one-element
    // "results" array), counters included.
    dol::runner::ResultStore store;
    store.append(row);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(store.resultsJson())));
    return hex;
}

std::uint64_t
jobInstructions(const dol::RunOutput &out, const Cell &cell)
{
    return cell.mix ? 2 * out.instructions : out.instructions;
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    file << text;
    return static_cast<bool>(file);
}

} // namespace dolbench
