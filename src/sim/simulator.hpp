/**
 * @file
 * Single-core simulation driver: wires a workload kernel, the timing
 * core, the memory hierarchy and one prefetcher together, and runs the
 * instruction budget. It keeps no scores: ExperimentRunner attaches
 * its accounting through addListener().
 *
 * Prefetch fill events are queued and drained between instructions
 * (never delivered re-entrantly), so a component chaining prefetches
 * off fills (P1) observes the same ordering the hardware would.
 *
 * The run loop is batched: decode drains the kernel's
 * already-generated queue in blocks of up to kBatchInstrs into a flat
 * buffer, then executes the block instruction by instruction. Kernel
 * generation still happens exactly when the queue is empty — never
 * ahead of execution — and fills still drain after every instruction,
 * so the observable event order does not depend on the block size.
 */

#ifndef DOL_SIM_SIMULATOR_HPP
#define DOL_SIM_SIMULATOR_HPP

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/ring_buffer.hpp"
#include "cpu/core.hpp"
#include "mem/memory_system.hpp"
#include "prefetch/prefetcher.hpp"
#include "workloads/kernel.hpp"

namespace dol
{

struct SimConfig
{
    CoreParams core{};
    MemParams mem{};
    std::uint64_t maxInstrs = 400000;
    bool operator==(const SimConfig &) const = default;
};

class Simulator
{
  public:
    /**
     * @param kernel     workload (borrowed; must outlive the sim)
     * @param prefetcher optional prefetcher (borrowed)
     * @param shared     shared L3/DRAM for multicore; nullptr builds
     *                   a private one
     */
    Simulator(const SimConfig &config, Kernel &kernel,
              Prefetcher *prefetcher,
              std::shared_ptr<SharedMemory> shared = nullptr);

    /**
     * A single-core run that replays a baseline's alternate reality:
     * the memory system reads @p shadow instead of walking shadow
     * caches, and makes no shadowMiss callback. run() throws unless
     * the run consumes exactly the recorded accesses.
     */
    Simulator(const SimConfig &config, Kernel &kernel,
              Prefetcher *prefetcher,
              std::shared_ptr<const ShadowRecord> shadow);

    /** Also deliver every memory-system event to @p listener. */
    void addListener(MemListener *listener) { _listeners.add(listener); }

    PrefetchEmitter &emitter() { return _emitter; }

    /**
     * Run until the instruction budget is exhausted. A cancel token
     * (borrowed; may be null) is polled every few thousand
     * instructions: once it has expired, run() throws
     * CancelledError, leaving the sim in a consistent but incomplete
     * state. This is the cooperative cancellation point the runner's
     * per-cell timeout relies on.
     */
    void run(const CancelToken *cancel = nullptr);

    /**
     * Execute up to @p max instructions from one decoded batch.
     * The batch never spans a kernel generate() call (see
     * Kernel::nextBatch), so any sequence of block sizes produces the
     * same events as run(). The multicore driver interleaves cores
     * through this call.
     *
     * @return instructions executed; 0 when the kernel is done.
     */
    std::size_t stepBlock(std::size_t max);

    const Core &core() const { return _core; }
    MemorySystem &mem() { return _mem; }
    const MemorySystem &mem() const { return _mem; }
    std::uint64_t instructions() const { return _instrs; }

    double
    ipc() const
    {
        const Cycle cycles = _core.stats().cycles;
        return cycles ? static_cast<double>(_instrs) / cycles : 0.0;
    }

    /** Interleaving key for the multicore driver. */
    Cycle currentCycle() const { return _core.finalCycle(); }

    /** Names of the allocated component ids (id -> name). */
    const std::vector<std::string> &componentNames() const
    {
        return _componentNames;
    }

    /**
     * Attach the observability event bus to every instrumented layer
     * (core, memory hierarchy, prefetcher tree). nullptr detaches.
     */
    void setTraceContext(TraceContext *trace);

    /**
     * Observe every demand access (every load and store), with or
     * without a prefetcher. With one, the observer sees the access
     * exactly as the prefetcher did, immediately after it trained and
     * before the queued prefetch fills drain: the differential checker
     * (src/check/) compares its reference models' post-train state
     * per access this way. Without one, the baseline run feeds the
     * offline stratifier from it. The default (empty) observer costs
     * one branch per memory access.
     */
    using AccessObserver = std::function<void(const AccessInfo &)>;
    void setAccessObserver(AccessObserver observer)
    {
        _accessObserver = std::move(observer);
    }

    /**
     * Harvest end-of-run counters from every layer into @p registry:
     * component decision counters, per-level cache stats, per-component
     * prefetch outcomes (named), and core totals.
     */
    void exportCounters(CounterRegistry &registry) const;

  private:
    struct FillEvent
    {
        ComponentId comp;
        Addr line;
        Cycle completion;
    };

    /** Queues fill events for post-instruction delivery. */
    class FillQueue : public MemListener
    {
      public:
        explicit FillQueue(RingBuffer<FillEvent> &queue)
            : _queue(&queue)
        {}

        void
        prefetchFill(ComponentId comp, Addr line,
                     Cycle completion) override
        {
            _queue->push_back({comp, line, completion});
        }

      private:
        RingBuffer<FillEvent> *_queue;
    };

    /** Instructions decoded per batch: big enough to amortise the
     *  loop overhead, small enough that a batch of Instr (56 B each,
     *  14 KB in all) stays resident in L1 while it executes. */
    static constexpr std::size_t kBatchInstrs = 256;

    /** Name the components and attach the fill queue. */
    void wire();

    void drainFills();

    /** Execute one already-decoded instruction. */
    void stepOne(const Instr &instr);

    SimConfig _config;
    Kernel *_kernel;
    Prefetcher *_prefetcher;

    MemorySystem _mem;
    Core _core;
    PrefetchEmitter _emitter;

    RingBuffer<FillEvent> _fills;
    FillQueue _fillQueue;
    ListenerChain _listeners;

    std::vector<std::string> _componentNames;
    AccessObserver _accessObserver;
    std::uint64_t _instrs = 0;
    /** Decode buffer for the batched pipeline. */
    std::array<Instr, kBatchInstrs> _batch;
};

} // namespace dol

#endif // DOL_SIM_SIMULATOR_HPP
