/**
 * @file
 * The traced run: per-layer host cost, measured from outside the
 * simulator by timing calls into each layer's public functions.
 *
 * Timing every hot call would cost more than the calls themselves (a
 * steady_clock read is ~25 ns against ~80 ns of simulation per
 * instruction), so the run has three parts over the workload's
 * cells:
 *
 *  1. reference: the untraced sweep, clocks read at job boundaries
 *     only (the runner.* metrics and the overhead base);
 *  2. traced: the same sweep with every grid prefetcher wrapped in a
 *     decorator that times a random 1-in-64 sample of its
 *     train/onInstr/onFill calls (a monolithic prefetcher's empty
 *     onInstr is forwarded unsampled);
 *  3. replay: per cell, a mirror of Simulator::run records the
 *     instruction stream, the data-port results, the memory request
 *     stream and the MemListener callbacks, then each layer is
 *     replayed alone: Kernel::nextBatch, Core::step against the
 *     recorded port results, MemorySystem demand/prefetch calls with
 *     no listener, and the callbacks into a fresh PrefetchAccounting.
 *
 * Both sweeps' rows are gated against the pins, and each cell's
 * replay against its row (run.py fails a cell whose mirror or memory
 * replay disagreed). sim.loop_self_s is the traced cells' CPU time
 * minus every replayed layer, so the layers always sum to the traced
 * cell time; trace.layer_sum_frac compares that sum with the untraced
 * cells.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>

#include "bench.hpp"
#include "core/composite.hpp"
#include "core/registry.hpp"
#include "mem/memory_system.hpp"
#include "metrics/accounting.hpp"
#include "runner/sweep.hpp"
#include "sim/contention.hpp"
#include "sim/multicore.hpp"
#include "sim/simulator.hpp"
#include "sweep.hpp"
#include "trace/context.hpp"
#include "trace/counters.hpp"

namespace dolbench
{

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/** Cost of one steady_clock read, as the samplers pay it. */
double
clockReadS()
{
    constexpr int kReads = 200000;
    Clock::time_point last{};
    const auto begin = Clock::now();
    for (int i = 0; i < kReads; ++i)
        last = std::max(last, Clock::now());
    return seconds(last - begin) / kReads;
}

// Spans -----------------------------------------------------------------

/** In-memory span log, written out once at the end. */
class SpanLog
{
  public:
    /** A fresh span id, so children can name a parent still open. */
    std::uint64_t reserve() { return ++_lastId; }

    std::uint64_t
    add(std::uint64_t id, const std::string &name,
        const std::string &label, std::uint64_t parent, double start,
        double end, double cpu)
    {
        std::lock_guard lock(_mutex);
        _spans.push_back({id, parent, name, label, start, end, cpu});
        return id;
    }

    std::uint64_t
    add(const std::string &name, const std::string &label,
        std::uint64_t parent, double start, double end, double cpu)
    {
        return add(reserve(), name, label, parent, start, end, cpu);
    }

    std::string
    json(double origin)
    {
        std::lock_guard lock(_mutex);
        std::sort(_spans.begin(), _spans.end(),
                  [](const Span &a, const Span &b) { return a.id < b.id; });
        Json out(0);
        out.beginObject().key("spans").beginArray();
        for (const Span &s : _spans) {
            out.beginObject();
            out.field("id", s.id);
            out.field("parent", s.parent);
            out.field("name", s.name);
            out.field("label", s.label);
            out.field("start_s", s.start - origin);
            out.field("end_s", s.end - origin);
            out.field("cpu_s", s.cpu);
            out.endObject();
        }
        out.endArray().endObject();
        return out.str();
    }

  private:
    struct Span
    {
        std::uint64_t id;
        std::uint64_t parent;
        std::string name;
        std::string label;
        double start;
        double end;
        double cpu;
    };
    std::mutex _mutex;
    std::vector<Span> _spans;
    std::atomic<std::uint64_t> _lastId{0};
};

/** Times one phase on the calling thread and records it as a span. */
class Phase
{
  public:
    Phase(SpanLog &log, std::string name, const std::string &label,
          std::uint64_t parent)
        : _log(&log), _name(std::move(name)), _label(label),
          _parent(parent), _id(log.reserve()), _wall(wallS()),
          _cpu(threadCpuS())
    {}

    /** Close the span; returns its thread CPU seconds. */
    double
    end(double extra_cpu = 0.0)
    {
        const double cpu = threadCpuS() - _cpu + extra_cpu;
        _log->add(_id, _name, _label, _parent, _wall, wallS(), cpu);
        return cpu;
    }

    std::uint64_t id() const { return _id; }

  private:
    SpanLog *_log;
    std::string _name;
    std::string _label;
    std::uint64_t _parent;
    std::uint64_t _id;
    double _wall;
    double _cpu;
};

// Sampled prefetcher hooks -------------------------------------------

struct HookStats
{
    std::uint64_t calls = 0;
    std::uint64_t sampled = 0;
    double sampledS = 0.0;

    /** Estimated total hook time, clock cost removed. */
    double
    estimateS(double clock_read) const
    {
        if (sampled == 0)
            return 0.0;
        const double per_call =
            std::max(0.0, sampledS / static_cast<double>(sampled) -
                              clock_read);
        return per_call * static_cast<double>(calls);
    }
};

/**
 * Times a pseudo-random 1-in-64 (mean) sample of the calls. Counts
 * stay in the decorator (one per simulation, one thread) and reach
 * the shared HookStats only when it is destroyed, so concurrent cells
 * never write to neighbouring stats on the hot path.
 */
class HookSampler
{
  public:
    explicit HookSampler(HookStats &stats) : _stats(&stats) {}

    HookSampler(const HookSampler &) = delete;
    HookSampler &operator=(const HookSampler &) = delete;

    ~HookSampler()
    {
        _stats->calls += _local.calls;
        _stats->sampled += _local.sampled;
        _stats->sampledS += _local.sampledS;
    }

    template <typename Fn>
    void
    call(Fn &&fn)
    {
        ++_local.calls;
        if (--_countdown != 0) {
            fn();
            return;
        }
        // Random gaps (32..95) so periodic kernels cannot alias with
        // the sampling period.
        _state = _state * 6364136223846793005ull + 1442695040888963407ull;
        _countdown = 32 + static_cast<unsigned>(_state >> 58);
        const auto begin = Clock::now();
        fn();
        const auto end = Clock::now();
        ++_local.sampled;
        _local.sampledS += seconds(end - begin);
    }

  private:
    HookStats *_stats;
    HookStats _local;
    std::uint64_t _state = 0x9e3779b97f4a7c15ull;
    unsigned _countdown = 1;
};

/**
 * The composite decorator derives from CompositePrefetcher, so
 * ExperimentRunner::run still finds the composite through its
 * dynamic_cast and wires the adaptive coordinator's DRAM pressure
 * probe — a wrapper holding the composite would hide it and simulate
 * a different machine.
 */
class TimedComposite final : public dol::CompositePrefetcher
{
  public:
    TimedComposite(const dol::ValueSource *memory, const Config &config,
                   HookStats &stats)
        : CompositePrefetcher(memory, config, "TPC"), _sampler(stats)
    {}

    void
    train(const dol::AccessInfo &access,
          dol::PrefetchEmitter &emitter) override
    {
        _sampler.call([&] { CompositePrefetcher::train(access, emitter); });
    }

    void
    onInstr(const dol::Instr &instr, const dol::RetireInfo &retire,
            dol::Pc m_pc, dol::PrefetchEmitter &emitter) override
    {
        _sampler.call([&] {
            CompositePrefetcher::onInstr(instr, retire, m_pc, emitter);
        });
    }

    void
    onFill(dol::ComponentId comp, dol::Addr line, dol::Cycle completion,
           dol::PrefetchEmitter &emitter) override
    {
        _sampler.call([&] {
            CompositePrefetcher::onFill(comp, line, completion, emitter);
        });
    }

  private:
    HookSampler _sampler;
};

/** Decorator for prefetchers without a coordinator. */
class TimedPrefetcher final : public dol::Prefetcher
{
  public:
    TimedPrefetcher(std::unique_ptr<dol::Prefetcher> inner,
                    HookStats &stats)
        : Prefetcher(inner->name()), _inner(std::move(inner)),
          _sampler(stats)
    {}

    void
    train(const dol::AccessInfo &access,
          dol::PrefetchEmitter &emitter) override
    {
        _sampler.call([&] { _inner->train(access, emitter); });
    }

    void
    onInstr(const dol::Instr &instr, const dol::RetireInfo &retire,
            dol::Pc m_pc, dol::PrefetchEmitter &emitter) override
    {
        // Not sampled: no monolithic prefetcher overrides onInstr, and
        // counting the empty call on every instruction cost the traced
        // paper_grid cells about 10% of their CPU time. One that starts
        // overriding it shows up in sim.loop_self_s.
        _inner->onInstr(instr, retire, m_pc, emitter);
    }

    void
    onFill(dol::ComponentId comp, dol::Addr line, dol::Cycle completion,
           dol::PrefetchEmitter &emitter) override
    {
        _sampler.call(
            [&] { _inner->onFill(comp, line, completion, emitter); });
    }

    std::size_t storageBits() const override { return _inner->storageBits(); }

    void
    assignIds(const IdAllocator &alloc) override
    {
        _inner->assignIds(alloc);
        setId(_inner->id());
    }

    void
    setTraceContext(dol::TraceContext *trace) override
    {
        Prefetcher::setTraceContext(trace);
        _inner->setTraceContext(trace);
    }

    void
    exportCounters(dol::CounterRegistry &registry) const override
    {
        _inner->exportCounters(registry);
    }

  private:
    std::unique_ptr<dol::Prefetcher> _inner;
    HookSampler _sampler;
};

/** The registry's prefetcher for @p name, with its hooks sampled. */
std::unique_ptr<dol::Prefetcher>
makeTimedPrefetcher(const std::string &name,
                    const dol::ValueSource *memory, bool adaptive,
                    HookStats &stats)
{
    constexpr std::string_view kComposite = "TPC+";
    if (name != "TPC" && !name.starts_with(kComposite)) {
        return std::make_unique<TimedPrefetcher>(
            dol::makePrefetcher(name, memory, adaptive), stats);
    }
    // Same construction as makePrefetcher's "TPC[+extra...]" branch.
    dol::CompositePrefetcher::Config config;
    config.adaptive = adaptive;
    auto tpc = std::make_unique<TimedComposite>(memory, config, stats);
    std::size_t start = name == "TPC" ? name.size() : kComposite.size();
    while (start < name.size()) {
        std::size_t plus = name.find('+', start);
        if (plus == std::string::npos)
            plus = name.size();
        tpc->addComponent(
            dol::makePrefetcher(name.substr(start, plus - start), memory));
        start = plus + 1;
    }
    return tpc;
}

/** dolsim-style config name: '+' and '/' become '-'. */
std::string
configName(const std::string &prefetcher, bool adaptive)
{
    std::string name = prefetcher;
    std::replace(name.begin(), name.end(), '+', '-');
    std::replace(name.begin(), name.end(), '/', '-');
    return adaptive ? name + ".adaptive" : name;
}

// Recording mirror of Simulator::run -----------------------------------

enum : std::uint8_t
{
    kLoad,
    kStore,
    kPrefetch,
};

struct MemReq
{
    dol::Addr addr = 0;
    dol::Pc pc = 0;
    dol::Cycle when = 0;
    dol::DataPort::Result result{};
    std::uint8_t kind = kLoad;
    std::uint8_t level = 0;
    dol::ComponentId comp = 0;
    std::uint8_t priority = 0;
    dol::PrefetchOutcome outcome = dol::PrefetchOutcome::kIssued;
};

enum : std::uint8_t
{
    kShadowMiss,
    kDemandMiss,
    kPrefetchIssued,
    kPrefetchFill,
    kPrefetchUsed,
    kInducedMiss,
    kPrefetchDropped,
    kPrefetchEvictedUnused,
};

struct ListenerEvent
{
    dol::Addr line = 0;
    std::uint64_t arg = 0; ///< pc, or cycle
    std::uint32_t compsBegin = 0;
    std::uint8_t compsCount = 0;
    std::uint8_t type = 0;
    std::uint8_t level = 0;
    dol::ComponentId comp = 0;
    bool inHook = false;
};

struct Recording
{
    std::vector<dol::Instr> instrs;
    std::vector<MemReq> reqs;
    std::vector<ListenerEvent> events;
    std::vector<dol::ComponentId> comps;

    std::uint64_t instructions = 0;
    double ipc = 0.0;
    dol::MemStats stats{};
    std::uint64_t dramLines = 0;
    std::uint64_t windowDeferrals = 0;
    std::uint64_t arbDelayCycles = 0;
    std::uint64_t throttled = 0;
};

class RecordingListener final : public dol::MemListener
{
  public:
    RecordingListener(Recording &rec, const bool &in_hook)
        : _rec(&rec), _inHook(&in_hook)
    {}

    void
    shadowMiss(unsigned level, dol::Addr line, dol::Pc pc) override
    {
        push(kShadowMiss, level, 0, line, pc);
    }

    void
    demandMiss(unsigned level, dol::Addr line, dol::Pc pc) override
    {
        push(kDemandMiss, level, 0, line, pc);
    }

    void
    prefetchIssued(dol::ComponentId comp, dol::Addr line, unsigned dest,
                   dol::Cycle when) override
    {
        push(kPrefetchIssued, dest, comp, line, when);
    }

    void
    prefetchFill(dol::ComponentId comp, dol::Addr line,
                 dol::Cycle completion) override
    {
        push(kPrefetchFill, 0, comp, line, completion);
    }

    void
    prefetchUsed(dol::ComponentId comp, unsigned level,
                 dol::Addr line) override
    {
        push(kPrefetchUsed, level, comp, line, 0);
    }

    void
    inducedMiss(unsigned level, dol::Addr line,
                std::span<const dol::ComponentId> comps) override
    {
        push(kInducedMiss, level, 0, line, 0);
        ListenerEvent &event = _rec->events.back();
        event.compsBegin = static_cast<std::uint32_t>(_rec->comps.size());
        event.compsCount = static_cast<std::uint8_t>(comps.size());
        _rec->comps.insert(_rec->comps.end(), comps.begin(), comps.end());
    }

    void
    prefetchDropped(dol::ComponentId comp, dol::Addr line) override
    {
        push(kPrefetchDropped, 0, comp, line, 0);
    }

    void
    prefetchEvictedUnused(dol::ComponentId comp, unsigned level,
                          dol::Addr line) override
    {
        push(kPrefetchEvictedUnused, level, comp, line, 0);
    }

  private:
    void
    push(std::uint8_t type, unsigned level, dol::ComponentId comp,
         dol::Addr line, std::uint64_t arg)
    {
        ListenerEvent event;
        event.type = type;
        event.level = static_cast<std::uint8_t>(level);
        event.comp = comp;
        event.line = line;
        event.arg = arg;
        event.inHook = *_inHook;
        _rec->events.push_back(event);
    }

    Recording *_rec;
    const bool *_inHook;
};

struct FillEvent
{
    dol::ComponentId comp;
    dol::Addr line;
    dol::Cycle completion;
};

class FillQueue final : public dol::MemListener
{
  public:
    explicit FillQueue(std::deque<FillEvent> &queue) : _queue(&queue) {}

    void
    prefetchFill(dol::ComponentId comp, dol::Addr line,
                 dol::Cycle completion) override
    {
        _queue->push_back({comp, line, completion});
    }

  private:
    std::deque<FillEvent> *_queue;
};

class RecordingPort final : public dol::DataPort
{
  public:
    RecordingPort(dol::MemorySystem &mem, std::vector<MemReq> &reqs)
        : _mem(&mem), _reqs(&reqs)
    {}

    Result
    demandLoad(dol::Addr addr, dol::Pc pc, dol::Cycle when) override
    {
        const Result result = _mem->demandLoad(addr, pc, when);
        record(kLoad, addr, pc, when, result);
        return result;
    }

    Result
    demandStore(dol::Addr addr, dol::Pc pc, dol::Cycle when) override
    {
        const Result result = _mem->demandStore(addr, pc, when);
        record(kStore, addr, pc, when, result);
        return result;
    }

  private:
    void
    record(std::uint8_t kind, dol::Addr addr, dol::Pc pc,
           dol::Cycle when, const Result &result)
    {
        MemReq req;
        req.kind = kind;
        req.addr = addr;
        req.pc = pc;
        req.when = when;
        req.result = result;
        _reqs->push_back(req);
    }

    dol::MemorySystem *_mem;
    std::vector<MemReq> *_reqs;
};

/** How a cell's simulator was set up (ExperimentRunner::run, or the
 *  solo runs of runContentionScenario). */
struct SimSetup
{
    const dol::SimConfig *config = nullptr;
    /** Shared L3/DRAM for the contention solo runs; null = private. */
    std::shared_ptr<dol::SharedMemory> shared;
    const dol::OfflineStratifier *stratifier = nullptr;
    /** A sink-less TraceContext was attached (collectCounters). */
    bool counting = false;
    bool adaptive = false;
};

/**
 * Run the cell as Simulator::run does — same construction order,
 * batched decode, per-instruction fill drain — recording what crosses
 * each layer boundary.
 */
Recording
recordRun(const SimSetup &setup, dol::Kernel &kernel,
          dol::Prefetcher *prefetcher)
{
    const dol::SimConfig &config = *setup.config;
    Recording rec;
    bool in_hook = false;

    dol::MemorySystem mem(config.mem, setup.shared);
    dol::Core core(config.core);
    dol::PrefetchEmitter emitter(mem);
    dol::PrefetchAccounting accounting;
    std::deque<FillEvent> fills;
    FillQueue fill_queue(fills);
    RecordingListener recorder(rec, in_hook);
    dol::ListenerChain listeners;
    listeners.add(&accounting);
    listeners.add(&fill_queue);
    listeners.add(&recorder);
    mem.setListener(&listeners);

    std::vector<std::string> names(dol::kMaxComponents);
    if (prefetcher) {
        dol::ComponentId next = 1;
        prefetcher->assignIds([&](const std::string &name) {
            names[next] = name;
            return next++;
        });
    }
    accounting.setStratifier(setup.stratifier);
    if (setup.adaptive) {
        if (auto *composite =
                dynamic_cast<dol::CompositePrefetcher *>(prefetcher)) {
            composite->setPressureProbe([&mem] {
                return mem.shared().dram().stats().windowDeferrals;
            });
        }
    }
    dol::TraceContext counters;
    if (setup.counting) {
        mem.setTraceContext(&counters);
        core.setTraceContext(&counters);
        if (prefetcher)
            prefetcher->setTraceContext(&counters);
    }
    emitter.setEmitHook([&](const dol::PrefetchEmitter::EmitRecord &r) {
        if (r.outcome == dol::PrefetchOutcome::kDroppedThrottle)
            return;
        // Controller drop priority: T2 and P1 emit at 3, every other
        // component at the emitter's default of 1.
        MemReq req;
        req.kind = kPrefetch;
        req.addr = r.addr;
        req.when = r.when;
        req.level = static_cast<std::uint8_t>(r.level);
        req.comp = r.comp;
        req.priority =
            names[r.comp] == "T2" || names[r.comp] == "P1" ? 3 : 1;
        req.outcome = r.outcome;
        rec.reqs.push_back(req);
    });

    RecordingPort port(mem, rec.reqs);
    std::array<dol::Instr, 256> batch;
    std::uint64_t instrs = 0;
    rec.instrs.reserve(config.maxInstrs);
    while (instrs < config.maxInstrs) {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(config.maxInstrs - instrs,
                                    batch.size()));
        const std::size_t got = kernel.nextBatch(batch.data(), want);
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i) {
            const dol::Instr &instr = batch[i];
            rec.instrs.push_back(instr);
            const dol::Pc m_pc = instr.pc ^ core.ras().top();
            const dol::RetireInfo retire = core.step(instr, port);
            if (prefetcher) {
                in_hook = true;
                emitter.setContext(prefetcher->id(), retire.issue);
                prefetcher->onInstr(instr, retire, m_pc, emitter);
                if (instr.isMem()) {
                    dol::AccessInfo access;
                    access.pc = instr.pc;
                    access.mPc = m_pc;
                    access.addr = instr.addr;
                    access.isLoad = instr.isLoad();
                    access.l1Hit = retire.mem.l1Hit;
                    access.l1PrimaryMiss = retire.mem.l1PrimaryMiss;
                    access.l1HitPrefetched = retire.mem.l1HitPrefetched;
                    access.l1HitComp = retire.mem.l1HitComp;
                    access.l2Hit = retire.mem.l2Hit;
                    access.l3Hit = retire.mem.l3Hit;
                    access.value = instr.value;
                    access.when = retire.issue;
                    access.completion = retire.mem.completion;
                    emitter.setContext(prefetcher->id(), retire.issue);
                    prefetcher->train(access, emitter);
                }
                while (!fills.empty()) {
                    const FillEvent event = fills.front();
                    fills.pop_front();
                    emitter.setContext(prefetcher->id(), event.completion);
                    prefetcher->onFill(event.comp, event.line,
                                       event.completion, emitter);
                }
                in_hook = false;
            }
            ++instrs;
        }
    }

    rec.instructions = instrs;
    const dol::Cycle cycles = core.stats().cycles;
    rec.ipc = cycles ? static_cast<double>(instrs) / cycles : 0.0;
    rec.stats = mem.stats();
    rec.dramLines = mem.dramLines();
    rec.windowDeferrals = mem.shared().dram().stats().windowDeferrals;
    rec.arbDelayCycles = mem.shared().dram().stats().arbDelayCycles;
    rec.throttled = emitter.throttledCount();
    return rec;
}

// Layer replays --------------------------------------------------------

/** Returns the recorded data-port results in order. */
class ReplayPort final : public dol::DataPort
{
  public:
    explicit ReplayPort(const std::vector<Result> &results)
        : _next(results.data()), _end(results.data() + results.size())
    {}

    Result demandLoad(dol::Addr, dol::Pc, dol::Cycle) override { return take(); }
    Result demandStore(dol::Addr, dol::Pc, dol::Cycle) override { return take(); }

  private:
    Result take() { return _next != _end ? *_next++ : Result{}; }

    const Result *_next;
    const Result *_end;
};

bool
sameResult(const dol::DataPort::Result &a, const dol::DataPort::Result &b)
{
    return a.completion == b.completion && a.l1Hit == b.l1Hit &&
           a.l2Hit == b.l2Hit && a.l3Hit == b.l3Hit &&
           a.l1PrimaryMiss == b.l1PrimaryMiss &&
           a.l1HitPrefetched == b.l1HitPrefetched &&
           a.l1HitComp == b.l1HitComp;
}

/** Host cost of one single-core run, split by layer (seconds). */
struct Layers
{
    double build = 0.0;
    double construct = 0.0;
    double gen = 0.0;
    double step = 0.0;
    double demand = 0.0;
    double prefetch = 0.0;
    double listener = 0.0;
    double listenerInHooks = 0.0;
    double hooks = 0.0; ///< sampled estimate, before subtraction
    std::uint64_t instrs = 0;
    std::uint64_t demands = 0;
    std::uint64_t prefetches = 0;
    std::uint64_t callbacks = 0;
    std::uint64_t hookCalls = 0;
    std::uint64_t replayMismatches = 0;

    /** Hook self time: minus the memory and accounting work the
     *  hooks' emissions caused. */
    double
    hooksSelf() const
    {
        return hooks - prefetch - listenerInHooks;
    }

    double
    split() const
    {
        return build + construct + gen + step + demand + prefetch +
               listener + hooksSelf();
    }

    void
    add(const Layers &o)
    {
        build += o.build;
        construct += o.construct;
        gen += o.gen;
        step += o.step;
        demand += o.demand;
        prefetch += o.prefetch;
        listener += o.listener;
        listenerInHooks += o.listenerInHooks;
        hooks += o.hooks;
        instrs += o.instrs;
        demands += o.demands;
        prefetches += o.prefetches;
        callbacks += o.callbacks;
        hookCalls += o.hookCalls;
        replayMismatches += o.replayMismatches;
    }
};

/** WorkloadSpec::factory, then Kernel::nextBatch drained alone. */
void
replayKernel(const dol::WorkloadSpec &spec, std::uint64_t budget,
             SpanLog &spans, const std::string &label,
             std::uint64_t parent, Layers &layers)
{
    dol::MemoryImage image;
    Phase build(spans, "workloads.build", label, parent);
    const double child0 = childCpuS();
    auto kernel = spec.factory(image);
    layers.build += build.end(childCpuS() - child0);

    std::array<dol::Instr, 256> batch;
    std::uint64_t n = 0;
    Phase gen(spans, "workloads.gen", label, parent);
    while (n < budget) {
        const std::size_t got = kernel->nextBatch(
            batch.data(), static_cast<std::size_t>(std::min<std::uint64_t>(
                              budget - n, batch.size())));
        if (got == 0)
            break;
        n += got;
    }
    layers.gen += gen.end();
    layers.instrs += n;
}

/** Core::step over the recorded stream and port results. */
void
replayCore(const SimSetup &setup, const Recording &rec, SpanLog &spans,
           const std::string &label, std::uint64_t parent, Layers &layers)
{
    std::vector<dol::DataPort::Result> results;
    for (const MemReq &req : rec.reqs) {
        if (req.kind != kPrefetch)
            results.push_back(req.result);
    }
    ReplayPort port(results);
    dol::Core core(setup.config->core);
    dol::TraceContext counters;
    if (setup.counting)
        core.setTraceContext(&counters);
    Phase phase(spans, "cpu.step", label, parent);
    for (const dol::Instr &instr : rec.instrs)
        core.step(instr, port);
    layers.step += phase.end();
}

/**
 * The recorded demand and prefetch calls into a fresh MemorySystem
 * with no listener. Runs of same-kind calls are timed on the wall
 * clock to split the phase's CPU time between demands and prefetches.
 */
void
replayMemory(const SimSetup &setup, const Recording &rec, unsigned cores,
             double clock_read, SpanLog &spans, const std::string &label,
             std::uint64_t parent, Layers &layers)
{
    const dol::SimConfig &config = *setup.config;
    std::shared_ptr<dol::SharedMemory> shared;
    if (setup.shared)
        shared = std::make_shared<dol::SharedMemory>(config.mem, cores);
    dol::MemorySystem mem(config.mem, shared);
    dol::TraceContext counters;
    if (setup.counting)
        mem.setTraceContext(&counters);

    const std::vector<MemReq> &reqs = rec.reqs;
    std::vector<dol::DataPort::Result> results(reqs.size());
    std::vector<dol::PrefetchOutcome> outcomes(reqs.size());
    double demand_wall = 0.0;
    double prefetch_wall = 0.0;
    Phase phase(spans, "mem.replay", label, parent);
    std::size_t i = 0;
    while (i < reqs.size()) {
        const bool prefetch = reqs[i].kind == kPrefetch;
        std::size_t j = i;
        const auto begin = Clock::now();
        if (prefetch) {
            for (; j < reqs.size() && reqs[j].kind == kPrefetch; ++j) {
                const MemReq &r = reqs[j];
                outcomes[j] = mem.prefetch(r.addr, r.level, r.comp, r.when,
                                           r.priority);
            }
        } else {
            for (; j < reqs.size() && reqs[j].kind != kPrefetch; ++j) {
                const MemReq &r = reqs[j];
                results[j] = r.kind == kLoad
                                 ? mem.demandLoad(r.addr, r.pc, r.when)
                                 : mem.demandStore(r.addr, r.pc, r.when);
            }
        }
        const double took =
            std::max(0.0, seconds(Clock::now() - begin) - clock_read);
        (prefetch ? prefetch_wall : demand_wall) += took;
        (prefetch ? layers.prefetches : layers.demands) += j - i;
        i = j;
    }
    const double cpu = phase.end();
    const double wall = demand_wall + prefetch_wall;
    const double demand_share = wall > 0.0 ? demand_wall / wall : 1.0;
    layers.demand += cpu * demand_share;
    layers.prefetch += cpu * (1.0 - demand_share);

    for (std::size_t k = 0; k < reqs.size(); ++k) {
        const bool same = reqs[k].kind == kPrefetch
                              ? outcomes[k] == reqs[k].outcome
                              : sameResult(results[k], reqs[k].result);
        layers.replayMismatches += same ? 0 : 1;
    }
}

/** The recorded callbacks into a fresh PrefetchAccounting. */
void
replayListener(const SimSetup &setup, const Recording &rec,
               double clock_read, SpanLog &spans, const std::string &label,
               std::uint64_t parent, Layers &layers)
{
    dol::PrefetchAccounting accounting;
    accounting.setStratifier(setup.stratifier);
    dol::MemListener &listener = accounting;
    const std::vector<ListenerEvent> &events = rec.events;
    double hook_wall = 0.0;
    double other_wall = 0.0;
    Phase phase(spans, "metrics.listener", label, parent);
    std::size_t i = 0;
    while (i < events.size()) {
        const bool in_hook = events[i].inHook;
        std::size_t j = i;
        const auto begin = Clock::now();
        for (; j < events.size() && events[j].inHook == in_hook; ++j) {
            const ListenerEvent &e = events[j];
            switch (e.type) {
            case kShadowMiss:
                listener.shadowMiss(e.level, e.line, e.arg);
                break;
            case kDemandMiss:
                listener.demandMiss(e.level, e.line, e.arg);
                break;
            case kPrefetchIssued:
                listener.prefetchIssued(e.comp, e.line, e.level, e.arg);
                break;
            case kPrefetchFill:
                listener.prefetchFill(e.comp, e.line, e.arg);
                break;
            case kPrefetchUsed:
                listener.prefetchUsed(e.comp, e.level, e.line);
                break;
            case kInducedMiss:
                listener.inducedMiss(
                    e.level, e.line,
                    std::span<const dol::ComponentId>(
                        rec.comps.data() + e.compsBegin, e.compsCount));
                break;
            case kPrefetchDropped:
                listener.prefetchDropped(e.comp, e.line);
                break;
            case kPrefetchEvictedUnused:
                listener.prefetchEvictedUnused(e.comp, e.level, e.line);
                break;
            }
        }
        const double took =
            std::max(0.0, seconds(Clock::now() - begin) - clock_read);
        (in_hook ? hook_wall : other_wall) += took;
        i = j;
    }
    const double cpu = phase.end();
    const double wall = hook_wall + other_wall;
    layers.listener += cpu;
    layers.listenerInHooks += wall > 0.0 ? cpu * hook_wall / wall : 0.0;
    layers.callbacks += events.size();
}

/** Prefetcher + Simulator construction and teardown. */
double
timeConstruct(const dol::SimConfig &config, const dol::WorkloadSpec &spec,
              const std::string &prefetcher, bool adaptive, unsigned cores,
              SpanLog &spans, const std::string &label,
              std::uint64_t parent)
{
    dol::MemoryImage image;
    auto kernel = spec.factory(image);
    Phase phase(spans, "sim.construct", label, parent);
    {
        auto pf = prefetcher.empty()
                      ? nullptr
                      : dol::makePrefetcher(prefetcher, &image, adaptive);
        std::shared_ptr<dol::SharedMemory> shared;
        if (cores > 0)
            shared = std::make_shared<dol::SharedMemory>(config.mem, cores);
        dol::Simulator sim(config, *kernel, pf.get(), shared);
    }
    return phase.end();
}

/** Counts a mirror-versus-real mismatch and the recorded layers. */
struct CellReplay
{
    Layers layers;
    std::uint64_t mirrorMismatches = 0;
    /** Contention jobs: solo runs and the contended mix (seconds). */
    double soloCpu = 0.0;
    double soloWall = 0.0;
    double contended = 0.0;
    unsigned soloRuns = 0;
    /** Single-core counts the row does not carry. */
    std::uint64_t dramLines = 0;
    std::uint64_t windowDeferrals = 0;
    std::uint64_t arbDelayCycles = 0;
    std::uint64_t throttled = 0;
    HookStats hooks;
};

/** Replay every layer of one single-core run. */
Recording
replaySingleCore(const SimSetup &setup, const dol::WorkloadSpec &spec,
                 const std::string &prefetcher, unsigned cores,
                 double clock_read, SpanLog &spans,
                 const std::string &label, std::uint64_t parent,
                 Layers &layers)
{
    const dol::SimConfig &config = *setup.config;
    replayKernel(spec, config.maxInstrs, spans, label, parent, layers);
    layers.construct += timeConstruct(config, spec, prefetcher,
                                      setup.adaptive, cores, spans, label,
                                      parent);
    Recording rec;
    {
        dol::MemoryImage image;
        auto kernel = spec.factory(image);
        auto pf = prefetcher.empty()
                      ? nullptr
                      : dol::makePrefetcher(prefetcher, &image,
                                            setup.adaptive);
        Phase phase(spans, "record", label, parent);
        rec = recordRun(setup, *kernel, pf.get());
        phase.end();
    }
    replayCore(setup, rec, spans, label, parent, layers);
    replayMemory(setup, rec, cores, clock_read, spans, label, parent,
                 layers);
    replayListener(setup, rec, clock_read, spans, label, parent, layers);
    return rec;
}

std::uint64_t
toMilli(double value)
{
    return value > 0.0 ? static_cast<std::uint64_t>(value * 1000.0 + 0.5)
                       : 0;
}

/** Value of counter @p key in @p out's row (0 when absent). */
std::uint64_t
counter(const dol::RunOutput &out, const std::string &key)
{
    for (const auto &[name, value] : out.counters.sorted()) {
        if (name == key)
            return value;
    }
    return 0;
}

CellReplay
replayCell(const Cell &cell, const dol::SimConfig &config,
           const dol::OfflineStratifier *stratifier,
           const dol::RunOutput &row, double clock_read, SpanLog &spans,
           std::uint64_t parent)
{
    CellReplay out;
    if (!cell.mix) {
        SimSetup setup;
        setup.config = &config;
        setup.stratifier = stratifier;
        setup.counting = cell.options.collectCounters;
        setup.adaptive = cell.options.adaptiveCoordinator;
        const Recording rec =
            replaySingleCore(setup, cell.spec, cell.prefetcher, 0,
                             clock_read, spans, cell.label, parent,
                             out.layers);
        out.mirrorMismatches =
            rec.instructions != row.instructions || rec.ipc != row.ipc ||
            rec.stats.prefetchesIssued() != row.prefetchesIssued ||
            rec.stats.level[dol::kL1].primaryMisses != row.l1Misses ||
            rec.stats.level[dol::kL1].shadowMisses != row.l1ShadowMisses;
        out.dramLines = rec.dramLines;
        out.windowDeferrals = rec.windowDeferrals;
        out.arbDelayCycles = rec.arbDelayCycles;
        out.throttled = rec.throttled;
        return out;
    }

    // runContentionScenario: a solo run per core on an identically
    // scaled SharedMemory, then the contended MulticoreSimulator.
    const dol::ContentionMix &mix = *cell.mix;
    const unsigned cores = static_cast<unsigned>(mix.cores.size());
    for (unsigned i = 0; i < cores; ++i) {
        const dol::CoreSpec &core = mix.cores[i];
        dol::SimConfig solo = config;
        if (core.maxInstrs)
            solo.maxInstrs = core.maxInstrs;
        const dol::WorkloadSpec &spec = dol::findWorkload(core.workload);
        SimSetup setup;
        setup.config = &solo;
        setup.shared = std::make_shared<dol::SharedMemory>(solo.mem, cores);
        const Recording rec = replaySingleCore(
            setup, spec, core.prefetcher, cores, clock_read, spans,
            cell.label, parent, out.layers);
        const std::string scope = "core" + std::to_string(i);
        if (toMilli(rec.ipc) != counter(row, scope + ".solo_ipc_milli"))
            ++out.mirrorMismatches;
        out.throttled += rec.throttled;

        // The solo run itself, as runContentionScenario makes it, with
        // the prefetcher hooks sampled.
        const double wall0 = wallS();
        Phase phase(spans, "sim.mix_solo", cell.label, parent);
        {
            dol::MemoryImage image;
            auto kernel = spec.factory(image);
            auto pf = core.prefetcher.empty()
                          ? nullptr
                          : makeTimedPrefetcher(core.prefetcher, &image,
                                                false, out.hooks);
            auto shared = std::make_shared<dol::SharedMemory>(solo.mem,
                                                              cores);
            dol::Simulator sim(solo, *kernel, pf.get(), shared);
            sim.run();
        }
        const double cpu = phase.end();
        out.soloCpu += cpu;
        out.soloWall += wallS() - wall0;
        ++out.soloRuns;
    }
    Phase phase(spans, "sim.mix_contended", cell.label, parent);
    dol::MulticoreResult result;
    {
        dol::MulticoreSimulator mc(config, mix.cores);
        result = mc.run();
    }
    out.contended = phase.end();
    for (unsigned i = 0; i < cores; ++i) {
        if (toMilli(result.ipc[i]) !=
            counter(row, "core" + std::to_string(i) + ".ipc_milli"))
            ++out.mirrorMismatches;
    }
    return out;
}

// Row counters -----------------------------------------------------------

/** Sum of every counter named @p suffix, in any scope ("L1.x" also
 *  matches "core2.L1.x"). */
std::uint64_t
sumCounter(const dol::RunOutput &out, const std::string &suffix)
{
    std::uint64_t total = 0;
    for (const auto &[name, value] : out.counters.sorted()) {
        if (name == suffix ||
            (name.size() > suffix.size() &&
             name.ends_with(suffix) &&
             name[name.size() - suffix.size() - 1] == '.'))
            total += value;
    }
    return total;
}

/** Sum of pf.<component>.<field> over components and cores. */
std::uint64_t
sumPrefetch(const dol::RunOutput &out, const std::string &field)
{
    std::uint64_t total = 0;
    for (const auto &[name, value] : out.counters.sorted()) {
        const bool scoped =
            name.starts_with("pf.") || name.find(".pf.") != std::string::npos;
        if (scoped && name.ends_with("." + field))
            total += value;
    }
    return total;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Untraced and traced sweeps each run this many times, alternated;
 *  with four, a serial sweep's jobs visit four CPUs in both. */
constexpr unsigned kTracePasses = 4;

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/** Median over passes of cell @p i's CPU time. */
double
medianCellCpu(const std::vector<SweepResult> &passes, std::size_t i)
{
    std::vector<double> values;
    for (const SweepResult &pass : passes)
        values.push_back(pass.jobs[i].cellCpu);
    return median(values);
}

/** The pass whose sweep wall time is the median. */
const SweepResult &
medianPass(const std::vector<SweepResult> &passes)
{
    std::vector<const SweepResult *> order;
    for (const SweepResult &pass : passes)
        order.push_back(&pass);
    std::sort(order.begin(), order.end(),
              [](const SweepResult *a, const SweepResult *b) {
                  return a->wall < b->wall;
              });
    return *order[order.size() / 2];
}

/** Median over passes of the sweep's process CPU. */
double
medianSweepCpu(const std::vector<SweepResult> &passes)
{
    std::vector<double> values;
    for (const SweepResult &pass : passes)
        values.push_back(pass.cpu);
    return median(values);
}

} // namespace

int
runTraced(const WorkloadDef &def, const Args &args)
{
    const std::vector<Cell> cells = buildCells(def, args.variant);
    const double clock_read = clockReadS();
    SpanLog spans;
    const double origin = wallS();

    // 1+2. Reference (untraced) and traced sweeps, alternated and
    // taking turns to go first, so host noise and the first sweep's
    // cold start hit both alike; per-cell figures are medians over the
    // passes.
    std::vector<HookStats> hook_stats(cells.size());
    std::vector<Cell> traced_cells = cells;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        Cell &cell = traced_cells[i];
        if (cell.mix)
            continue;
        HookStats *stats = &hook_stats[i];
        const std::string name = cell.prefetcher;
        const bool adaptive = cell.options.adaptiveCoordinator;
        cell.options.factory = [name, adaptive,
                                stats](const dol::ValueSource *memory) {
            return makeTimedPrefetcher(name, memory, adaptive, *stats);
        };
    }
    std::vector<SweepResult> references;
    std::vector<SweepResult> traces;
    for (unsigned pass = 0; pass < kTracePasses; ++pass) {
        // Both sweeps of a pass pin each serial job to the same CPU.
        if (pass % 2 == 0)
            references.push_back(runSweep(def, cells, pass));
        traces.push_back(runSweep(def, traced_cells, pass));
        if (pass % 2 == 1)
            references.push_back(runSweep(def, cells, pass));
        for (SweepResult *done : {&references.back(), &traces.back()}) {
            if (done == &traces.back() && pass + 1 == kTracePasses)
                continue; // the replays check against these rows
            done->report.outputs.clear();
            done->outputs.assign(cells.size(), nullptr);
        }
        const SweepResult &traced = traces.back();
        const std::uint64_t sweep_span = spans.add(
            "sweep", def.name + " traced pass " + std::to_string(pass), 0,
            traced.start, traced.start + traced.wall, traced.cpu);
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const JobTimes &t = traced.jobs[i];
            if (!t.done)
                continue;
            const std::string label = cells[i].label + cells[i].variant;
            const std::uint64_t job =
                spans.add("job", label, sweep_span, t.start, t.end,
                          t.baselineCpu + t.cellCpu);
            if (!cells[i].mix)
                spans.add("baseline", cells[i].spec.name, job, t.start,
                          t.start + t.baselineWall, t.baselineCpu);
            spans.add("cell", label, job, t.end - t.cellWall, t.end,
                      t.cellCpu);
        }
    }
    const SweepResult &traced = traces.back();
    const SweepResult &reference = medianPass(references);

    // 3. Replays, serial like the sweeps.
    std::vector<CellReplay> replays(cells.size());
    auto baselines = std::make_shared<dol::BaselineCache>();
    const double replay_start = wallS();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const dol::RunOutput *row = traced.outputs[i];
        if (!row)
            continue;
        try {
            const Cell &cell = cells[i];
            dol::SimConfig config;
            config.maxInstrs = def.instrs;
            config.mem.dram.rngSeed = traced.seeds[i];
            config.mem.dram.arbitration = cell.arbitration;
            const dol::OfflineStratifier *stratifier = nullptr;
            if (!cell.mix) {
                dol::ExperimentRunner runner(config, baselines);
                stratifier = runner.baseline(cell.spec).stratifier.get();
            }
            dol::RunOutput planted;
            if (static_cast<std::int64_t>(i) == args.plantMismatch) {
                // Gate self-test: check the replay against a row whose
                // IPC is off, as if the mirror had diverged.
                planted = *row;
                planted.ipc += 1.0;
                row = &planted;
            }
            Phase phase(spans, "replay", cell.label + cell.variant, 0);
            replays[i] = replayCell(cell, config, stratifier, *row,
                                    clock_read, spans, phase.id());
            phase.end();
        } catch (const std::exception &e) {
            throw std::runtime_error(std::string("replay: ") + e.what());
        }
    }
    const double replay_wall = wallS() - replay_start;

    // Aggregate.
    Layers layers;
    double traced_cell_cpu = 0.0;
    double reference_cell_cpu = 0.0;
    double contended = 0.0;
    double solo_cpu = 0.0;
    double solo_wait = 0.0;
    std::uint64_t solo_runs = 0;
    std::uint64_t mirror_mismatches = 0;
    std::uint64_t dram_lines = 0;
    std::uint64_t window_deferrals = 0;
    std::uint64_t arb_delay = 0;
    std::uint64_t throttled = 0;
    std::map<std::string, std::pair<double, std::uint64_t>> per_config;
    std::map<std::string, std::uint64_t> counts;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const dol::RunOutput *row = traced.outputs[i];
        if (!row || !reference.jobs[i].done)
            continue;
        const Cell &cell = cells[i];
        CellReplay &replay = replays[i];
        if (!cell.mix) {
            // Sampled over every traced pass: per-pass average.
            replay.layers.hooks =
                hook_stats[i].estimateS(clock_read) / kTracePasses;
            replay.layers.hookCalls = hook_stats[i].calls / kTracePasses;
        } else {
            replay.layers.hooks = replay.hooks.estimateS(clock_read);
            replay.layers.hookCalls = replay.hooks.calls;
        }
        layers.add(replay.layers);
        traced_cell_cpu += medianCellCpu(traces, i);
        reference_cell_cpu += medianCellCpu(references, i);
        contended += replay.contended;
        solo_cpu += replay.soloCpu;
        solo_wait += std::max(0.0, replay.soloWall - replay.soloCpu);
        solo_runs += replay.soloRuns;
        mirror_mismatches += replay.mirrorMismatches;
        throttled += replay.throttled;
        if (cell.mix) {
            dram_lines += sumCounter(*row, "dram.lines");
            window_deferrals += sumCounter(*row, "dram.window_deferrals");
            arb_delay += sumCounter(*row, "dram.arb_delay_cycles");
        } else {
            dram_lines += replay.dramLines;
            window_deferrals += replay.windowDeferrals;
            arb_delay += replay.arbDelayCycles;
            auto &entry = per_config[configName(
                cell.prefetcher, cell.options.adaptiveCoordinator)];
            entry.first += replay.layers.hooksSelf();
            entry.second += replay.layers.hookCalls;
        }
        for (const char *name :
             {"core.instructions", "core.cycles", "L1.demand_accesses",
              "L1.primary_misses", "L1.shadow_misses", "L2.shadow_misses",
              "L3.mshr_stalls"})
            counts[name] += sumCounter(*row, name);
        for (const char *field :
             {"issued", "used", "filtered", "dropped_mshr", "dropped_queue"})
            counts[std::string("pf.") + field] += sumPrefetch(*row, field);
    }

    // Runner layer, from the reference pass (job-boundary clocks only).
    double baseline_cpu = 0.0;
    double baseline_wait = 0.0;
    double job_thread_cpu = 0.0;
    std::uint64_t baselines_computed = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const JobTimes &t = reference.jobs[i];
        if (!t.done)
            continue;
        // A waiter or a cache hit burns microseconds; computing a
        // baseline burns the cost of a whole run.
        if (!cells[i].mix && t.baselineCpu > 1e-3) {
            baseline_cpu += t.baselineCpu;
            ++baselines_computed;
        }
        baseline_wait += std::max(0.0, t.baselineWall - t.baselineCpu);
        job_thread_cpu += t.baselineCpu - t.baselineChildCpu + t.cellCpu -
                          t.cellChildCpu;
    }
    if (def.name == "contention_mixes") {
        // A mix job's baselines are its solo runs.
        baseline_cpu = solo_cpu;
        baseline_wait = solo_wait;
        baselines_computed = solo_runs;
    }
    const double split = layers.split() + contended;
    const auto ns_per = [](double s, std::uint64_t n) {
        return n ? s * 1e9 / static_cast<double>(n) : 0.0;
    };
    const std::uint64_t pf_issued = counts["pf.issued"];
    const std::uint64_t pf_wasted = counts["pf.filtered"] +
                                    counts["pf.dropped_mshr"] +
                                    counts["pf.dropped_queue"] + throttled;
    const std::vector<Metric> metrics{
        {"workloads.build_s", layers.build, "s"},
        {"workloads.gen_s", layers.gen, "s"},
        {"workloads.ns_per_instr", ns_per(layers.gen, layers.instrs), "ns"},
        {"cpu.step_s", layers.step, "s"},
        {"cpu.ns_per_instr", ns_per(layers.step, layers.instrs), "ns"},
        {"mem.demand_s", layers.demand, "s"},
        {"mem.ns_per_demand", ns_per(layers.demand, layers.demands), "ns"},
        {"mem.prefetch_s", layers.prefetch, "s"},
        {"mem.ns_per_prefetch", ns_per(layers.prefetch, layers.prefetches),
         "ns"},
        {"metrics.listener_s", layers.listener, "s"},
        {"metrics.callbacks", static_cast<double>(layers.callbacks),
         "count"},
        {"prefetch.hooks_s", layers.hooksSelf(), "s"},
        {"prefetch.ns_per_call", ns_per(layers.hooksSelf(), layers.hookCalls),
         "ns"},
        {"sim.construct_s", layers.construct, "s"},
        {"sim.loop_self_s", traced_cell_cpu - split, "s"},
        {"runner.baseline_s", baseline_cpu, "s"},
        {"runner.baseline_wait_s", baseline_wait, "s"},
        {"runner.idle_frac", 1.0 - job_thread_cpu / reference.wall,
         "fraction"},
        {"runner.overhead_s", reference.cpu - job_thread_cpu, "s"},
        {"trace.layer_sum_frac",
         reference_cell_cpu > 0.0 ? traced_cell_cpu / reference_cell_cpu
                                  : 0.0,
         "ratio"},
        {"trace.sweep_cpu_ratio",
         medianSweepCpu(traces) / medianSweepCpu(references), "ratio"},
        {"cpu.instructions",
         static_cast<double>(counts["core.instructions"]), "count"},
        {"cpu.cycles", static_cast<double>(counts["core.cycles"]), "count"},
        {"mem.l1.demand_accesses",
         static_cast<double>(counts["L1.demand_accesses"]), "count"},
        {"mem.l1.primary_misses",
         static_cast<double>(counts["L1.primary_misses"]), "count"},
        {"mem.l1.shadow_misses",
         static_cast<double>(counts["L1.shadow_misses"]), "count"},
        {"mem.l2.shadow_misses",
         static_cast<double>(counts["L2.shadow_misses"]), "count"},
        {"mem.l3.mshr_stalls",
         static_cast<double>(counts["L3.mshr_stalls"]), "count"},
        {"mem.dram.lines", static_cast<double>(dram_lines), "count"},
        {"mem.dram.window_deferrals",
         static_cast<double>(window_deferrals), "count"},
        {"mem.dram.arb_delay_cycles", static_cast<double>(arb_delay),
         "count"},
        {"prefetch.issued", static_cast<double>(pf_issued), "count"},
        {"prefetch.useful_frac",
         pf_issued ? static_cast<double>(counts["pf.used"]) / pf_issued
                   : 0.0,
         "fraction"},
        {"prefetch.wasted_frac",
         pf_issued + pf_wasted
             ? static_cast<double>(pf_wasted) / (pf_issued + pf_wasted)
             : 0.0,
         "fraction"},
        {"runner.baselines", static_cast<double>(baselines_computed),
         "count"},
        {"mem.replay_mismatches",
         static_cast<double>(layers.replayMismatches), "count"},
        {"sim.mirror_mismatches", static_cast<double>(mirror_mismatches),
         "count"},
    };

    Json json(0);
    json.beginObject();
    json.field("workload", def.name);
    json.field("instrs", def.instrs);
    json.field("cells", cells.size());
    json.field("build_type", DOLBENCH_BUILD_TYPE);
    json.field("compiler", DOLBENCH_COMPILER);
    json.field("clock_read_ns", clock_read * 1e9);
    json.key("metrics").beginObject();
    for (const Metric &m : metrics) {
        json.key(m.name).beginObject();
        json.field("value", m.value);
        json.field("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    // Layers only some workloads have: one hook figure per prefetcher
    // configuration, and the contention split.
    json.key("detail").beginObject();
    for (const auto &[name, entry] : per_config) {
        json.field("prefetch." + name + ".hooks_s", entry.first);
        json.field("prefetch." + name + ".ns_per_call",
                   ns_per(entry.first, entry.second));
    }
    if (def.name == "contention_mixes") {
        json.field("sim.mix_solo_s", solo_cpu);
        json.field("sim.mix_contended_s", contended);
    }
    json.field("reference.sweep_wall_s", reference.wall);
    json.field("traced.sweep_wall_s", traced.wall);
    json.field("replay.wall_s", replay_wall);
    json.field("reference.cell_cpu_s", reference_cell_cpu);
    json.field("traced.cell_cpu_s", traced_cell_cpu);
    json.endObject();
    // Every pass's rows, for the pin gate in run.py.
    json.key("passes").beginArray();
    for (unsigned pass = 0; pass < kTracePasses; ++pass) {
        for (const SweepResult *sweep : {&references[pass], &traces[pass]}) {
            json.beginObject();
            json.field("kind", sweep == &traces[pass] ? "traced" : "untraced");
            json.key("jobs").beginArray();
            for (std::size_t i = 0; i < cells.size(); ++i) {
                json.beginObject();
                json.field("key", cells[i].pinKey());
                json.field("done", sweep->jobs[i].done);
                json.field("digest", sweep->digests[i]);
                json.field("cell_cpu_s", sweep->jobs[i].cellCpu);
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
    }
    json.endArray();
    // Each cell's replay, also gated: a mirror that disagrees with the
    // real row, or a replayed memory call whose result differs from
    // the recording, would skew every layer figure.
    json.key("replays").beginArray();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        json.beginObject();
        json.field("key", cells[i].pinKey());
        json.field("done", traced.outputs[i] != nullptr);
        json.field("mirror_mismatches", replays[i].mirrorMismatches);
        json.field("replay_mismatches",
                   replays[i].layers.replayMismatches);
        json.endObject();
    }
    json.endArray();
    json.field("peak_rss_kb", peakRssKb());
    json.endObject();

    if (!args.spans.empty() && !writeFile(args.spans, spans.json(origin)))
        return 1;
    return writeFile(args.out, json.str()) ? 0 : 1;
}

} // namespace dolbench
