/**
 * @file
 * Multiprogrammed simulation (paper section V-A): private L1/L2 and
 * per-core prefetchers over a shared L3 and DRAM channel. Cores are
 * interleaved in simulated-time order so they contend for the shared
 * levels realistically.
 *
 * Every core is built from a CoreSpec naming its own workload,
 * prefetcher and instruction budget, so a mix can pit an enlarged
 * composite against a bare pointer-chase prefetcher, and a
 * homogeneous mix is one whose specs share a prefetcher. Shared-resource
 * attribution (per-core DRAM lines, L3 insertions, evictions of
 * other cores' lines) and the fairness metrics built on solo
 * baselines live here too.
 */

#ifndef DOL_SIM_MULTICORE_HPP
#define DOL_SIM_MULTICORE_HPP

#include <memory>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "workloads/contention.hpp"

namespace dol
{

struct MulticoreResult
{
    std::vector<double> ipc; ///< per-core IPC, in mix
    std::vector<std::uint64_t> instructions; ///< per-core retired
    /** Per-core shared-resource attribution, index = core. */
    std::vector<std::uint64_t> coreDramLines;
    std::vector<std::uint64_t> corePrefetchLines;
    std::vector<std::uint64_t> coreL3Insertions;
    std::vector<std::uint64_t> coreL3EvictionsOfOthers;
    std::vector<std::uint64_t> coreL3MshrStalls;
    std::uint64_t dramLines = 0;
    std::uint64_t baselineDramLines = 0;
    std::uint64_t droppedPrefetches = 0;
    /** Shared-channel arbitration/bandwidth pressure (DramStats). */
    std::uint64_t arbDelayCycles = 0;
    std::uint64_t demandsDelayedByPrefetch = 0;
    std::uint64_t windowDeferrals = 0;
};

/**
 * Fairness metrics over a mix run and its solo baselines
 * (slowdown_i = soloIpc_i / mixIpc_i, the classic definition).
 * Cores with zero solo or mix IPC are excluded; all aggregate
 * metrics are 0.0 when no core qualifies. The weighted speedup of a
 * mix over its no-prefetch run is this weightedSpeedup, with the
 * no-prefetch run's per-core IPC as the solo IPC.
 */
struct FairnessMetrics
{
    std::vector<double> slowdown; ///< per core; 0.0 = not comparable
    double weightedSpeedup = 0.0; ///< mean of mix/solo ratios
    double harmonicSpeedup = 0.0; ///< n / sum(solo/mix)
    double unfairness = 0.0;      ///< max slowdown / min slowdown
};

/** Compute fairness metrics from solo and mix per-core IPC. */
FairnessMetrics computeFairness(const std::vector<double> &solo_ipc,
                                const std::vector<double> &mix_ipc);

class MulticoreSimulator
{
  public:
    /**
     * One CoreSpec per core, each naming its own workload, prefetcher
     * and optional instruction budget (the named mixes of
     * contentionMixes() and the seeded ones of makeMixes()). A run
     * that reads only IPC passes ShadowMode::kNone: its cores then
     * walk no alternate reality, and its shadow and induced misses
     * and baseline DRAM lines read 0.
     */
    MulticoreSimulator(const SimConfig &config,
                       const std::vector<CoreSpec> &specs,
                       ShadowMode shadow = ShadowMode::kLiveWalk);

    /** Run every core to its instruction budget. */
    MulticoreResult run();

    Simulator &core(std::size_t i) { return *_cores[i]; }
    const Simulator &core(std::size_t i) const { return *_cores[i]; }
    SharedMemory &shared() { return *_shared; }

    /**
     * Harvest every core's counters under a "coreN." scope prefix
     * plus the shared-channel and per-core attribution scopes. The
     * merged registry serializes byte-identically across runs, the
     * property the golden cell and differential fuzzer pin down.
     */
    void exportCounters(CounterRegistry &registry) const;

  private:
    void addCore(const CoreSpec &spec);

    SimConfig _config;
    std::shared_ptr<SharedMemory> _shared;
    std::vector<std::unique_ptr<MemoryImage>> _images;
    std::vector<std::unique_ptr<Kernel>> _kernels;
    std::vector<std::unique_ptr<Prefetcher>> _prefetchers;
    std::vector<std::unique_ptr<Simulator>> _cores;
    std::vector<std::uint64_t> _budgets;
};

} // namespace dol

#endif // DOL_SIM_MULTICORE_HPP
