#include "sim/simulator.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "trace/context.hpp"
#include "trace/counters.hpp"

namespace dol
{

Simulator::Simulator(const SimConfig &config, Kernel &kernel,
                     Prefetcher *prefetcher,
                     std::shared_ptr<SharedMemory> shared)
    : _config(config), _kernel(&kernel), _prefetcher(prefetcher),
      _mem(config.mem, std::move(shared)), _core(config.core),
      _emitter(_mem), _fillQueue(_fills)
{
    wire();
}

Simulator::Simulator(const SimConfig &config, Kernel &kernel,
                     Prefetcher *prefetcher,
                     std::shared_ptr<const ShadowRecord> shadow)
    : _config(config), _kernel(&kernel), _prefetcher(prefetcher),
      _mem(config.mem, nullptr, std::move(shadow)), _core(config.core),
      _emitter(_mem), _fillQueue(_fills)
{
    wire();
}

void
Simulator::wire()
{
    _componentNames.resize(kMaxComponents);
    _componentNames[kNoComponent] = "none";
    if (_prefetcher) {
        ComponentId next = 1;
        _prefetcher->assignIds([&](const std::string &name) {
            if (next >= kMaxComponents)
                fatal("too many prefetcher components");
            _componentNames[next] = name;
            return next++;
        });
    }

    _listeners.add(&_fillQueue);
    _mem.setListener(&_listeners);
}

void
Simulator::drainFills()
{
    while (!_fills.empty()) {
        const FillEvent event = _fills.front();
        _fills.pop_front();
        _emitter.setContext(_prefetcher->id(), event.completion);
        _prefetcher->onFill(event.comp, event.line, event.completion,
                            _emitter);
    }
}

void
Simulator::stepOne(const Instr &instr)
{
    // mPC uses the RAS as of *before* this instruction's own effect.
    const Pc m_pc = instr.pc ^ _core.ras().top();

    const RetireInfo retire = _core.step(instr, _mem);

    if (_prefetcher) {
        _emitter.setContext(_prefetcher->id(), retire.issue);
        _prefetcher->onInstr(instr, retire, m_pc, _emitter);
    }

    if (instr.isMem() && (_prefetcher || _accessObserver)) {
        AccessInfo access;
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

        if (_prefetcher) {
            _emitter.setContext(_prefetcher->id(), retire.issue);
            _prefetcher->train(access, _emitter);
        }
        if (_accessObserver)
            _accessObserver(access);
    }

    // Fills drain after *every* instruction, not at a batch boundary:
    // deferring them would let P1's chained prefetches observe later
    // training events than the hardware ordering allows (DESIGN.md,
    // batched pipeline note).
    if (_prefetcher && !_fills.empty())
        drainFills();

    ++_instrs;
}

std::size_t
Simulator::stepBlock(std::size_t max)
{
    const std::size_t want = std::min(max, kBatchInstrs);
    const std::size_t got = _kernel->nextBatch(_batch.data(), want);
    for (std::size_t i = 0; i < got; ++i)
        stepOne(_batch[i]);
    return got;
}

void
Simulator::run(const CancelToken *cancel)
{
    while (_instrs < _config.maxInstrs) {
        const std::uint64_t budget = _config.maxInstrs - _instrs;
        const std::size_t got = stepBlock(static_cast<std::size_t>(
            std::min<std::uint64_t>(budget, kBatchInstrs)));
        if (got == 0)
            break;
        // Poll coarsely: a deadline check costs a clock read, so do it
        // at the first batch boundary past each multiple of 4096
        // instructions.
        if (cancel && (_instrs & ~std::uint64_t{0xFFF}) !=
                          ((_instrs - got) & ~std::uint64_t{0xFFF}) &&
            cancel->expired()) {
            throw CancelledError("simulation cancelled after " +
                                 std::to_string(_instrs) +
                                 " instructions");
        }
    }
    _mem.finishShadowReplay();
}

void
Simulator::setTraceContext(TraceContext *trace)
{
    _mem.setTraceContext(trace);
    _core.setTraceContext(trace);
    if (_prefetcher)
        _prefetcher->setTraceContext(trace);
}

void
Simulator::exportCounters(CounterRegistry &registry) const
{
    if (_prefetcher)
        _prefetcher->exportCounters(registry);
    _mem.exportCounters(registry);

    const CoreStats &cs = _core.stats();
    registry.set("core", "instructions", _instrs);
    registry.set("core", "loads", cs.loads);
    registry.set("core", "stores", cs.stores);
    registry.set("core", "branches", cs.branches);
    registry.set("core", "mispredicts", cs.mispredicts);
    registry.set("core", "cycles", _core.finalCycle());

    // Per-component prefetch outcomes, under "pf.<component name>".
    const MemStats &ms = _mem.stats();
    for (ComponentId comp = 1; comp < kMaxComponents; ++comp) {
        const ComponentStats &stats = ms.comp[comp];
        if (stats.issued == 0 && stats.filtered == 0 &&
            stats.droppedQueue == 0) {
            continue;
        }
        const std::string scope = "pf." + _componentNames[comp];
        registry.set(scope, "issued", stats.issued);
        registry.set(scope, "filled", stats.filled);
        registry.set(scope, "used", stats.used);
        registry.set(scope, "filtered", stats.filtered);
        // No prefetch ever holds an MSHR; the key stays, always 0, so
        // counter text and sweep rows keep their shape.
        registry.set(scope, "dropped_mshr", std::uint64_t{0});
        registry.set(scope, "dropped_queue", stats.droppedQueue);
    }
}

} // namespace dol
