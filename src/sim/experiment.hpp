/**
 * @file
 * Experiment harness: runs (workload, prefetcher) pairs and extracts
 * every metric the paper reports — speedup over the no-prefetch
 * baseline, scope, effective accuracy and coverage at L1 and L2,
 * normalized memory traffic, per-category (LHF/MHF/HHF) accuracy, and
 * per-component breakdowns. Each workload's baseline is computed once
 * and cached: one prefetcher-less pass measures its IPC, feeds the
 * offline stratifier, records its alternate reality (the shadow level
 * that served each demand access) and freezes its footprint FP. Every
 * measured run replays that record and scores scope against that FP
 * instead of walking shadow caches of its own. The runner, not the
 * Simulator, owns the accountings: one per baseline, one per run. A
 * RunOutput holds no line sets: Figure 14's chain gets TPC's lines
 * from prefetchedLines().
 */

#ifndef DOL_SIM_EXPERIMENT_HPP
#define DOL_SIM_EXPERIMENT_HPP

#include <array>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.hpp"
#include "metrics/accounting.hpp"
#include "sim/simulator.hpp"
#include "trace/counters.hpp"
#include "workloads/suite.hpp"

namespace dol
{

/** Everything measured in one (workload, prefetcher) run. */
struct RunOutput
{
    std::string workload;
    std::string prefetcher;

    double ipc = 0.0;
    double baselineIpc = 0.0;
    double speedup() const
    {
        return baselineIpc > 0.0 ? ipc / baselineIpc : 1.0;
    }

    std::uint64_t instructions = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t l1ShadowMisses = 0;
    std::uint64_t l1Misses = 0;
    double baselineMpkiL1 = 0.0;

    double scope = 0.0;
    double effAccuracyL1 = 0.0;
    double effCoverageL1 = 0.0;
    double effAccuracyL2 = 0.0;
    double effCoverageL2 = 0.0;
    double trafficNormalized = 1.0;

    /** Per ground-truth category (Figure 13). */
    std::array<PrefetchAccounting::CategoryCounters, kNumFruit>
        categories{};
    std::array<double, kNumFruit> categoryScope{};

    /** Per component (Figure 12 incremental, Figure 14). */
    struct ComponentOutput
    {
        std::string name;
        std::uint64_t issued = 0;
        std::uint64_t used = 0;
        double inducedCredit = 0.0;
        double scope = 0.0;
    };
    std::vector<ComponentOutput> components;

    /** Focus-region counters (outside an exclude set; Figure 14). */
    PrefetchAccounting::CategoryCounters focus{};
    double focusScope = 0.0;

    /** End-of-run counter snapshot, populated when the run collected
     *  counters (RunOptions::collectCounters or a trace path). */
    CounterRegistry counters;
};

/** Per-run options beyond the prefetcher name. */
struct RunOptions
{
    /** Build the prefetcher directly (ablations with custom params);
     *  overrides the registry name when set. */
    std::function<std::unique_ptr<Prefetcher>(const ValueSource *)>
        factory;
    /** Force all prefetches to one destination (Figure 16). */
    std::optional<unsigned> forceDest;
    /** Oracle-stratified destination: LHF to L1, rest to L2. */
    bool oracleDest = false;
    /** Exclude set for focus-region accounting (Figure 14). */
    std::shared_ptr<const FlatHashSet<Addr>> exclude;

    /** Write this run's binary event trace here (empty = no trace). */
    std::string tracePath;
    /** Collect end-of-run counters into RunOutput::counters (implied
     *  by a non-empty tracePath). */
    bool collectCounters = false;

    /** Run composite coordinators in adaptive mode (`--coordinator
     *  adaptive`): feedback-driven degree ramping and claim demotion,
     *  with the DRAM window-deferral counter wired in as the pressure
     *  signal. No-op for monolithic prefetchers. */
    bool adaptiveCoordinator = false;
};

class BaselineCache;

class ExperimentRunner
{
  public:
    /**
     * @param baselines optional cross-runner baseline cache; parallel
     *                  sweeps hand every job the same cache so each
     *                  workload's baseline is simulated exactly once.
     *                  nullptr gives the runner a cache of its own.
     *                  All runners sharing a cache must use the same
     *                  config but for the DRAM drop-RNG seed: a
     *                  measured run throws, naming the fields that
     *                  differ, when its baseline ran another config.
     */
    explicit ExperimentRunner(
        const SimConfig &config = {},
        std::shared_ptr<BaselineCache> baselines = nullptr);

    /** Read-only once published: worker threads share it. */
    struct Baseline
    {
        double ipc = 0.0;
        double mpkiL1 = 0.0;
        std::shared_ptr<const OfflineStratifier> stratifier;
        /** The alternate reality every measured run replays. */
        std::shared_ptr<const ShadowRecord> shadow;
        std::shared_ptr<const FrozenFootprint> footprint;
        /** The config it ran, with the DRAM drop-RNG seed cleared. */
        SimConfig config;
    };

    /**
     * Baseline run (cached per workload): IPC, ground truth and the
     * alternate reality, from one prefetcher-less pass whose demand
     * stream also feeds the offline stratifier.
     */
    const Baseline &baseline(const WorkloadSpec &spec);

    /** Measured run with a prefetcher built by the registry. */
    RunOutput
    run(const WorkloadSpec &spec, const std::string &prefetcher_name,
        const RunOptions &options = {})
    {
        return measure(spec, prefetcher_name, options, nullptr);
    }

    /** The lines run(spec, prefetcher_name) prefetches (its PFP). */
    std::shared_ptr<const FlatHashSet<Addr>>
    prefetchedLines(const WorkloadSpec &spec,
                    const std::string &prefetcher_name);

    /**
     * Cooperative cancellation for the measured run (borrowed; may be
     * null). Applied to the measured simulation only — deliberately
     * not to baseline computation, whose result is memoized in a
     * cache shared across jobs: cancelling a shared computation would
     * poison every waiter, not just the attempt that timed out.
     */
    void setCancelToken(const CancelToken *cancel)
    {
        _cancel = cancel;
    }

    const SimConfig &config() const { return _config; }

  private:
    Baseline computeBaseline(const WorkloadSpec &spec);

    /** run(), also handing out its PFP when @p lines is set. */
    RunOutput measure(const WorkloadSpec &spec,
                      const std::string &prefetcher_name,
                      const RunOptions &options,
                      std::shared_ptr<const FlatHashSet<Addr>> *lines);

    SimConfig _config;
    std::shared_ptr<BaselineCache> _cache;
    const CancelToken *_cancel = nullptr;
};

/**
 * Thread-safe baseline cache: the memo behind every
 * ExperimentRunner::baseline, shared between the per-job runners of a
 * parallel sweep. The first requester of a workload computes its
 * baseline; concurrent requesters block on the same shared future, so
 * the result (and any exception) is computed once and observed by all.
 */
class BaselineCache
{
  public:
    /** Look up @p key, running @p compute on a miss. */
    const ExperimentRunner::Baseline &
    get(const std::string &key,
        const std::function<ExperimentRunner::Baseline()> &compute);

    std::size_t size() const;

  private:
    mutable std::mutex _mutex;
    std::unordered_map<std::string,
                       std::shared_future<ExperimentRunner::Baseline>>
        _futures;
};

/** Honour DOL_QUICK=1 by shrinking the instruction budget. */
SimConfig makeBenchConfig(std::uint64_t max_instrs = 400000);

} // namespace dol

#endif // DOL_SIM_EXPERIMENT_HPP
