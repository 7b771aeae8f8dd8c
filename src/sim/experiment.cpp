#include "sim/experiment.hpp"

#include <cstdlib>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/registry.hpp"
#include "trace/context.hpp"
#include "trace/trace_io.hpp"

namespace dol
{

namespace
{

/** What a baseline depends on: its whole config, timing included,
 *  but the DRAM drop-RNG seed, which only a prefetch drop consults. */
SimConfig
seedless(SimConfig config)
{
    config.mem.dram.rngSeed = 0;
    return config;
}

/** Each field of @p config but the DRAM drop-RNG seed, one
 *  "name value" line per field. */
std::string
describe(const SimConfig &config)
{
    static const char *const kArbitration[] = {"demand-first", "fifo",
                                               "rr"};
    const CoreParams &core = config.core;
    const DramParams &dram = config.mem.dram;
    std::ostringstream out;
    out << "budget " << config.maxInstrs << "\ncore width " << core.width
        << "\nrobSize " << core.robSize << "\nlsqSize " << core.lsqSize
        << "\nbranchMissPenalty " << core.branchMissPenalty
        << "\nagenLatency " << core.agenLatency;
    for (const Cache::Params *cache :
         {&config.mem.l1, &config.mem.l2, &config.mem.l3}) {
        const std::string level = "\n" + cache->name;
        out << level << " size " << cache->sizeBytes << " B" << level
            << " assoc " << cache->assoc << level << " latency "
            << cache->latency << level << " mshrs " << cache->mshrs;
    }
    out << "\nDRAM channels " << dram.channels << "\nDRAM ranksPerChannel "
        << dram.ranksPerChannel << "\nDRAM banksPerRank "
        << dram.banksPerRank << "\nDRAM rowBytes " << dram.rowBytes
        << "\nDRAM tRCD " << dram.tRCD << "\nDRAM tRP " << dram.tRP
        << "\nDRAM tCAS " << dram.tCAS << "\nDRAM tBurst " << dram.tBurst
        << "\nDRAM tController " << dram.tController
        << "\nDRAM queueCapacity " << dram.queueCapacity
        << "\nDRAM dropPolicy " << static_cast<unsigned>(dram.dropPolicy)
        << "\nDRAM arbitration "
        << kArbitration[static_cast<unsigned>(dram.arbitration)]
        << "\nDRAM linesPerWindow " << dram.linesPerWindow
        << "\nDRAM windowCycles " << dram.windowCycles;
    return out.str();
}

/** The fields in which a runner's config differs from its baseline's. */
std::string
describeDifference(const SimConfig &theirs, const SimConfig &ours)
{
    std::istringstream a(describe(theirs)), b(describe(ours));
    std::string text;
    for (std::string x, y; std::getline(a, x) && std::getline(b, y);) {
        if (x != y) {
            text += (text.empty() ? "" : "; ") + x +
                    ", not this runner's " + y;
        }
    }
    return text;
}

} // namespace

ExperimentRunner::ExperimentRunner(const SimConfig &config,
                                   std::shared_ptr<BaselineCache> baselines)
    : _config(config),
      _cache(baselines ? std::move(baselines)
                       : std::make_shared<BaselineCache>())
{}

const ExperimentRunner::Baseline &
ExperimentRunner::baseline(const WorkloadSpec &spec)
{
    return _cache->get(spec.name, [&] { return computeBaseline(spec); });
}

ExperimentRunner::Baseline
ExperimentRunner::computeBaseline(const WorkloadSpec &spec)
{
    Baseline base;
    base.config = seedless(_config);

    auto stratifier = std::make_shared<OfflineStratifier>();
    std::shared_ptr<const ShadowRecord> shadow;
    std::shared_ptr<const FrozenFootprint> footprint;
    {
        MemoryImage image;
        auto kernel = spec.factory(image);

        // One pass: the run measures the baseline, its demand stream
        // feeds the ground-truth classifier as it retires, its live
        // shadow walk is recorded for the measured runs to replay,
        // and its shadow L1 misses build FP.
        PrefetchAccounting accounting;
        Simulator sim(_config, *kernel, nullptr);
        sim.addListener(&accounting);
        sim.setAccessObserver([&stratifier](const AccessInfo &access) {
            stratifier->observe(access.pc, access.addr);
        });
        sim.mem().recordShadow(spec.name);
        sim.run();

        shadow = sim.mem().takeShadowRecord();
        accounting.setStratifier(stratifier.get());
        footprint = accounting.freezeFootprint();
        base.ipc = sim.ipc();
        const std::uint64_t l1_misses =
            sim.mem().stats().level[kL1].primaryMisses;
        base.mpkiL1 =
            sim.instructions()
                ? 1000.0 * static_cast<double>(l1_misses) /
                      static_cast<double>(sim.instructions())
                : 0.0;
    }
    // The baseline outlives its run, so it keeps exact-size copies
    // made once the run's memory (kernel image, caches, FP table) is
    // free: the record sheds the slack of its doubling growth, and
    // neither array stays above that freed memory, where it would
    // keep the heap from shrinking (about 2 MB of peak RSS on
    // dolbench's paper_grid).
    base.shadow = std::make_shared<const ShadowRecord>(*shadow);
    base.footprint = std::make_shared<const FrozenFootprint>(*footprint);
    base.stratifier = std::move(stratifier);
    return base;
}

const ExperimentRunner::Baseline &
BaselineCache::get(
    const std::string &key,
    const std::function<ExperimentRunner::Baseline()> &compute)
{
    std::promise<ExperimentRunner::Baseline> promise;
    std::shared_future<ExperimentRunner::Baseline> future;
    bool owner = false;
    {
        std::lock_guard lock(_mutex);
        auto it = _futures.find(key);
        if (it == _futures.end()) {
            future = promise.get_future().share();
            _futures.emplace(key, future);
            owner = true;
        } else {
            future = it->second;
        }
    }
    if (owner) {
        // A failure is memoized like a value: a baseline is a pure
        // function of its workload, so every cell that needs it
        // observes the same exception, and `--resume` recomputes it
        // in a fresh process.
        try {
            promise.set_value(compute());
        } catch (...) {
            promise.set_exception(std::current_exception());
        }
    }
    return future.get();
}

std::size_t
BaselineCache::size() const
{
    std::lock_guard lock(_mutex);
    return _futures.size();
}

std::shared_ptr<const FlatHashSet<Addr>>
ExperimentRunner::prefetchedLines(const WorkloadSpec &spec,
                                  const std::string &prefetcher_name)
{
    std::shared_ptr<const FlatHashSet<Addr>> lines;
    measure(spec, prefetcher_name, {}, &lines);
    return lines;
}

RunOutput
ExperimentRunner::measure(const WorkloadSpec &spec,
                          const std::string &prefetcher_name,
                          const RunOptions &options,
                          std::shared_ptr<const FlatHashSet<Addr>> *lines)
{
    const Baseline &base = baseline(spec);
    if (base.config != seedless(_config)) {
        throw std::invalid_argument(
            "baseline of " + spec.name + " was computed with " +
            describeDifference(base.config, seedless(_config)));
    }

    MemoryImage image;
    auto kernel = spec.factory(image);
    auto prefetcher =
        options.factory
            ? options.factory(&image)
            : makePrefetcher(prefetcher_name, &image,
                             options.adaptiveCoordinator);

    PrefetchAccounting acct(base.footprint);
    acct.setStratifier(base.stratifier.get());
    if (options.exclude)
        acct.setExcludeSet(options.exclude);
    Simulator sim(_config, *kernel, prefetcher.get(), base.shadow);
    sim.addListener(&acct);
    if (options.adaptiveCoordinator) {
        // Feed the degree schedule's pressure signal from the shared
        // DRAM controller. The probe only fires inside sim.run(), so
        // the captured reference never outlives the simulator.
        if (auto *composite =
                dynamic_cast<CompositePrefetcher *>(prefetcher.get())) {
            MemorySystem &mem = sim.mem();
            composite->setPressureProbe([&mem] {
                return mem.shared().dram().stats().windowDeferrals;
            });
        }
    }
    if (options.forceDest)
        sim.emitter().forceDestLevel(options.forceDest);
    if (options.oracleDest) {
        const OfflineStratifier *strat = base.stratifier.get();
        sim.emitter().setDestOracle([strat](Addr addr, unsigned) {
            return strat->classify(addr) == Fruit::kLHF ? kL1 : kL2;
        });
    }

    // Observability: a trace path attaches a binary sink; counters
    // alone attach a sink-less context (tallies only). Neither touches
    // the defaults, so untraced runs keep the null-pointer fast path.
    const bool tracing = !options.tracePath.empty();
    const bool counting = options.collectCounters || tracing;
    TraceContext trace_ctx;
    TraceWriter trace_writer;
    std::optional<WriterTraceSink> trace_sink;
    if (tracing) {
        if (!trace_writer.open(options.tracePath)) {
            throw std::runtime_error("trace: " + trace_writer.error());
        }
        trace_sink.emplace(trace_writer);
        trace_ctx.setSink(&*trace_sink);
    }
    if (counting)
        sim.setTraceContext(&trace_ctx);

    sim.run(_cancel);

    RunOutput out;
    if (counting) {
        sim.exportCounters(out.counters);
        trace_ctx.exportEventCounts(out.counters);
    }
    if (tracing) {
        if (!trace_writer.close()) {
            throw std::runtime_error("trace: " + trace_writer.error());
        }
        out.counters.set("trace", "events", trace_writer.eventCount());
        out.counters.set("trace", "bytes_fnv64", trace_writer.digest());
    }
    out.workload = spec.name;
    out.prefetcher = prefetcher_name;
    out.ipc = sim.ipc();
    out.baselineIpc = base.ipc;
    out.instructions = sim.instructions();

    const MemStats &mem = sim.mem().stats();
    out.prefetchesIssued = mem.prefetchesIssued();
    out.l1ShadowMisses = mem.level[kL1].shadowMisses;
    out.l1Misses = mem.level[kL1].primaryMisses;
    out.baselineMpkiL1 = base.mpkiL1;

    const auto avoided = [&mem](unsigned lv) {
        const std::uint64_t shadow = mem.level[lv].shadowMisses;
        const std::uint64_t real = mem.level[lv].primaryMisses;
        return shadow > real ? static_cast<double>(shadow - real)
                             : -static_cast<double>(real - shadow);
    };
    const double avoided_l1 = avoided(kL1), avoided_l2 = avoided(kL2);
    const auto per = [](double part, std::uint64_t whole) {
        return whole ? part / static_cast<double>(whole) : 0.0;
    };
    out.effAccuracyL1 = per(avoided_l1, out.prefetchesIssued);
    out.effAccuracyL2 = per(avoided_l2, out.prefetchesIssued);
    out.effCoverageL1 = per(avoided_l1, mem.level[kL1].shadowMisses);
    out.effCoverageL2 = per(avoided_l2, mem.level[kL2].shadowMisses);

    const std::uint64_t baseline_lines =
        sim.mem().shared().baselineDramLines();
    out.trafficNormalized =
        baseline_lines
            ? static_cast<double>(sim.mem().dramLines()) /
                  static_cast<double>(baseline_lines)
            : 1.0;

    const PrefetchAccounting::Scopes scopes = acct.scopes();
    out.scope = scopes.total;
    for (unsigned f = 0; f < kNumFruit; ++f)
        out.categories[f] = acct.category(static_cast<Fruit>(f));
    out.categoryScope = scopes.byCategory;
    out.focus = acct.focus();
    out.focusScope = scopes.focus;

    // Per-component outputs.
    const auto &names = sim.componentNames();
    for (unsigned id = 1; id < kMaxComponents; ++id) {
        if (names[id].empty())
            continue;
        RunOutput::ComponentOutput comp;
        comp.name = names[id];
        comp.issued = mem.comp[id].issued;
        comp.used = mem.comp[id].used;
        comp.inducedCredit = mem.comp[id].inducedCredit;
        comp.scope = scopes.byComponent[id];
        out.components.push_back(std::move(comp));
    }

    if (lines)
        *lines = acct.prefetchedLines();
    return out;
}

SimConfig
makeBenchConfig(std::uint64_t max_instrs)
{
    SimConfig config;
    config.maxInstrs = max_instrs;
    if (const char *quick = std::getenv("DOL_QUICK");
        quick && quick[0] == '1') {
        config.maxInstrs = std::min<std::uint64_t>(max_instrs, 60000);
    }
    return config;
}

} // namespace dol
