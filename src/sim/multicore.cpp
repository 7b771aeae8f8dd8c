#include "sim/multicore.hpp"

#include <algorithm>

#include "core/registry.hpp"
#include "trace/counters.hpp"
#include "workloads/suite.hpp"

namespace dol
{

FairnessMetrics
computeFairness(const std::vector<double> &solo_ipc,
                const std::vector<double> &mix_ipc)
{
    FairnessMetrics out;
    const std::size_t n = std::min(solo_ipc.size(), mix_ipc.size());
    out.slowdown.assign(std::max(solo_ipc.size(), mix_ipc.size()), 0.0);

    double speedup_sum = 0.0;
    double slowdown_sum = 0.0;
    double min_slowdown = 0.0;
    double max_slowdown = 0.0;
    unsigned valid = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (solo_ipc[i] <= 0.0 || mix_ipc[i] <= 0.0)
            continue;
        const double slowdown = solo_ipc[i] / mix_ipc[i];
        out.slowdown[i] = slowdown;
        speedup_sum += mix_ipc[i] / solo_ipc[i];
        slowdown_sum += slowdown;
        if (valid == 0 || slowdown < min_slowdown)
            min_slowdown = slowdown;
        if (valid == 0 || slowdown > max_slowdown)
            max_slowdown = slowdown;
        ++valid;
    }
    if (valid == 0)
        return out;
    out.weightedSpeedup = speedup_sum / valid;
    out.harmonicSpeedup =
        slowdown_sum > 0.0 ? valid / slowdown_sum : 0.0;
    out.unfairness =
        min_slowdown > 0.0 ? max_slowdown / min_slowdown : 0.0;
    return out;
}

MulticoreSimulator::MulticoreSimulator(
    const SimConfig &config, const std::vector<CoreSpec> &specs,
    ShadowMode shadow)
    : _config(config),
      _shared(std::make_shared<SharedMemory>(
          config.mem, static_cast<unsigned>(specs.size()), shadow))
{
    for (const CoreSpec &spec : specs)
        addCore(spec);
}

void
MulticoreSimulator::addCore(const CoreSpec &spec)
{
    const WorkloadSpec &workload = findWorkload(spec.workload);
    auto image = std::make_unique<MemoryImage>();
    auto kernel = workload.factory(*image);

    Prefetcher *prefetcher = nullptr;
    if (!spec.prefetcher.empty()) {
        _prefetchers.push_back(
            makePrefetcher(spec.prefetcher, image.get()));
        prefetcher = _prefetchers.back().get();
    }

    _cores.push_back(std::make_unique<Simulator>(_config, *kernel,
                                                 prefetcher, _shared));
    _cores.back()->mem().setCoreId(
        static_cast<unsigned>(_cores.size() - 1));
    _budgets.push_back(spec.maxInstrs ? spec.maxInstrs
                                      : _config.maxInstrs);
    _images.push_back(std::move(image));
    _kernels.push_back(std::move(kernel));
}

MulticoreResult
MulticoreSimulator::run()
{
    // Advance the core that is furthest behind in simulated time, so
    // requests reach the shared levels in roughly global time order.
    std::vector<bool> active(_cores.size(), true);
    bool any_active = !_cores.empty();
    while (any_active) {
        std::size_t next = _cores.size();
        Cycle best = kNoCycle;
        for (std::size_t i = 0; i < _cores.size(); ++i) {
            if (!active[i])
                continue;
            const Cycle cycle = _cores[i]->currentCycle();
            if (next == _cores.size() || cycle < best) {
                next = i;
                best = cycle;
            }
        }
        if (next == _cores.size())
            break;

        // A small quantum keeps scheduling overhead low. The quantum
        // runs through the batched pipeline but still executes exactly
        // the same up-to-64 instructions a per-step loop would, so the
        // cross-core interleaving (and every contention stat derived
        // from it) is unchanged.
        std::uint64_t left =
            _cores[next]->instructions() >= _budgets[next]
                ? 0
                : std::min<std::uint64_t>(
                      64, _budgets[next] - _cores[next]->instructions());
        if (left == 0)
            active[next] = false;
        while (left > 0) {
            const std::size_t got = _cores[next]->stepBlock(
                static_cast<std::size_t>(left));
            if (got == 0) {
                active[next] = false;
                break;
            }
            left -= got;
        }
        if (_cores[next]->instructions() >= _budgets[next])
            active[next] = false;

        any_active = false;
        for (std::size_t i = 0; i < _cores.size(); ++i)
            any_active = any_active || active[i];
    }

    MulticoreResult result;
    for (std::size_t i = 0; i < _cores.size(); ++i) {
        const unsigned core_id = static_cast<unsigned>(i);
        result.ipc.push_back(_cores[i]->ipc());
        result.instructions.push_back(_cores[i]->instructions());
        result.coreDramLines.push_back(
            _shared->dram().coreLines(core_id));
        result.corePrefetchLines.push_back(
            _shared->dram().corePrefetchLines(core_id));
        const CoreShareStats &share = _shared->coreShare(core_id);
        result.coreL3Insertions.push_back(share.l3Insertions);
        result.coreL3EvictionsOfOthers.push_back(
            share.l3EvictionsOfOthers);
        result.coreL3MshrStalls.push_back(
            _cores[i]->mem().stats().level[kL3].mshrStalls);
    }
    const DramStats &dram = _shared->dram().stats();
    result.dramLines = _shared->dram().linesTransferred();
    result.baselineDramLines = _shared->baselineDramLines();
    result.droppedPrefetches = dram.droppedPrefetches;
    result.arbDelayCycles = dram.arbDelayCycles;
    result.demandsDelayedByPrefetch = dram.demandsDelayedByPrefetch;
    result.windowDeferrals = dram.windowDeferrals;
    return result;
}

void
MulticoreSimulator::exportCounters(CounterRegistry &registry) const
{
    for (std::size_t i = 0; i < _cores.size(); ++i) {
        const std::string prefix = "core" + std::to_string(i);

        CounterRegistry per_core;
        _cores[i]->exportCounters(per_core);
        for (const auto &[scope, name, value] : per_core.entries())
            registry.set(prefix + "." + scope, name, value);

        const unsigned core_id = static_cast<unsigned>(i);
        const CoreShareStats &share = _shared->coreShare(core_id);
        registry.set(prefix, "dram_lines",
                     _shared->dram().coreLines(core_id));
        registry.set(prefix, "prefetch_dram_lines",
                     _shared->dram().corePrefetchLines(core_id));
        registry.set(prefix, "l3_insertions", share.l3Insertions);
        registry.set(prefix, "l3_evictions_of_others",
                     share.l3EvictionsOfOthers);
        registry.set(prefix, "l3_mshr_stalls",
                     _cores[i]->mem().stats().level[kL3].mshrStalls);
        registry.set(prefix, "instructions",
                     _cores[i]->instructions());
    }

    const DramStats &dram = _shared->dram().stats();
    registry.set("dram", "lines", _shared->dram().linesTransferred());
    registry.set("dram", "reads", dram.reads);
    registry.set("dram", "writes", dram.writes);
    registry.set("dram", "row_hits", dram.rowHits);
    registry.set("dram", "row_misses", dram.rowMisses);
    registry.set("dram", "dropped_prefetches", dram.droppedPrefetches);
    registry.set("dram", "queue_full_demand_stalls",
                 dram.queueFullDemandStalls);
    registry.set("dram", "arb_delay_cycles", dram.arbDelayCycles);
    registry.set("dram", "arb_delayed_requests",
                 dram.arbDelayedRequests);
    registry.set("dram", "demands_delayed_by_prefetch",
                 dram.demandsDelayedByPrefetch);
    registry.set("dram", "window_deferrals", dram.windowDeferrals);
    registry.set("dram", "bandwidth_stall_cycles",
                 dram.bandwidthStallCycles);
    registry.set("dram", "baseline_lines",
                 _shared->baselineDramLines());
}

} // namespace dol
