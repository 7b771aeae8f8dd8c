/**
 * @file
 * The prefetcher component interface.
 *
 * A Prefetcher observes the demand access stream (train) and, for the
 * paper's instruction-based components, the full retire stream
 * (onInstr) and prefetch fill completions (onFill). Prefetches are
 * issued through a PrefetchEmitter, which binds the component identity
 * and the current cycle and lets the harness override the destination
 * level (the Figure 16 experiment).
 */

#ifndef DOL_PREFETCH_PREFETCHER_HPP
#define DOL_PREFETCH_PREFETCHER_HPP

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "cpu/core.hpp"
#include "cpu/instr.hpp"
#include "mem/memory_system.hpp"

namespace dol
{

class TraceContext;
class CounterRegistry;

/** One demand access as seen by the prefetchers (post L1 lookup). */
struct AccessInfo
{
    Pc pc = 0;
    /** Call-site-disambiguated PC: pc ^ RAS.top (paper IV-A.2). */
    Pc mPc = 0;
    Addr addr = 0; ///< byte address
    bool isLoad = true;
    bool l1Hit = false;
    bool l1PrimaryMiss = false;
    bool l1HitPrefetched = false;
    /** Component whose prefetch the L1 hit landed on (0 = none). */
    ComponentId l1HitComp = kNoComponent;
    bool l2Hit = false;
    bool l3Hit = false;
    std::uint64_t value = 0; ///< value returned (loads)
    Cycle when = 0;          ///< cycle the access issued
    Cycle completion = 0;    ///< cycle the value arrived

    Addr line() const { return lineAddr(addr); }
};

/**
 * Issues prefetches on behalf of one component. The harness sets the
 * context (component id + current cycle) before every training call.
 */
class PrefetchEmitter
{
  public:
    explicit PrefetchEmitter(MemorySystem &mem) : _mem(&mem) {}

    void
    setContext(ComponentId comp, Cycle when)
    {
        _comp = comp;
        _when = when;
    }

    /** Force all prefetches to one level (Figure 16 sweeps). */
    void forceDestLevel(std::optional<unsigned> level) { _force = level; }

    /**
     * Oracle destination policy (Figure 16's "stratified" bars): maps
     * (target address, natural destination) to the level to use.
     */
    using DestOracle = std::function<unsigned(Addr, unsigned)>;
    void setDestOracle(DestOracle oracle) { _oracle = std::move(oracle); }

    /**
     * One attempted prefetch emission, as seen by the hook: the target
     * address, resolved destination level, issuing component, request
     * cycle, and the memory system's verdict (issued / filtered /
     * dropped). The differential checker (src/check/) compares this
     * stream against the reference models' predictions.
     */
    struct EmitRecord
    {
        Addr addr = 0;
        unsigned level = kL1;
        ComponentId comp = kNoComponent;
        Cycle when = 0;
        PrefetchOutcome outcome = PrefetchOutcome::kIssued;
    };

    /** Observe every attempted emission (nullptr = off, the default). */
    using EmitHook = std::function<void(const EmitRecord &)>;
    void setEmitHook(EmitHook hook) { _hook = std::move(hook); }

    PrefetchOutcome
    emit(Addr addr, unsigned dest_level = kL1, std::uint8_t priority = 1)
    {
        return emitAt(addr, _when, dest_level, priority);
    }

    /** Issue at an explicit time (P1's chained fills). */
    PrefetchOutcome
    emitAt(Addr addr, Cycle when, unsigned dest_level = kL1,
           std::uint8_t priority = 1)
    {
        const unsigned level = resolveDest(addr, dest_level);
        if (_budget == 0) {
            // Adaptive degree cap: the request never reaches the
            // memory system, so throttling only removes traffic.
            ++_throttledCount;
            const PrefetchOutcome outcome =
                PrefetchOutcome::kDroppedThrottle;
            if (_hook)
                _hook({addr, level, _comp, when, outcome});
            return outcome;
        }
        if (_budget != kUnlimitedBudget)
            --_budget;
        const PrefetchOutcome outcome = account(
            _mem->prefetch(addr, level, _comp, when, priority));
        if (_hook)
            _hook({addr, level, _comp, when, outcome});
        return outcome;
    }

    ComponentId component() const { return _comp; }
    Cycle now() const { return _when; }

    /** Running count of prefetches that actually issued (for the
     *  adaptive coordinator's accuracy bookkeeping). */
    std::uint64_t issuedCount() const { return _issuedCount; }

    /**
     * Per-call emission budget (the adaptive coordinator's degree
     * cap). kUnlimitedBudget — the default, and the only value the
     * hardwired coordinator ever sees — disables the mechanism
     * entirely.
     */
    static constexpr std::uint32_t kUnlimitedBudget = 0xffffffffu;
    void setEmitBudget(std::uint32_t budget) { _budget = budget; }

    /** Emissions blocked by an exhausted budget. */
    std::uint64_t throttledCount() const { return _throttledCount; }

  private:
    unsigned
    resolveDest(Addr addr, unsigned dest_level) const
    {
        if (_oracle)
            return _oracle(addr, dest_level);
        return _force.value_or(dest_level);
    }

    PrefetchOutcome
    account(PrefetchOutcome outcome)
    {
        if (outcome == PrefetchOutcome::kIssued)
            ++_issuedCount;
        return outcome;
    }

    MemorySystem *_mem;
    ComponentId _comp = kNoComponent;
    Cycle _when = 0;
    std::optional<unsigned> _force;
    DestOracle _oracle;
    EmitHook _hook;
    std::uint64_t _issuedCount = 0;
    std::uint32_t _budget = kUnlimitedBudget;
    std::uint64_t _throttledCount = 0;
};

class Prefetcher
{
  public:
    explicit Prefetcher(std::string name) : _name(std::move(name)) {}
    virtual ~Prefetcher() = default;

    Prefetcher(const Prefetcher &) = delete;
    Prefetcher &operator=(const Prefetcher &) = delete;

    /** Train on one demand access (loads and stores at L1). */
    virtual void train(const AccessInfo &access,
                       PrefetchEmitter &emitter) = 0;

    /**
     * Observe one retired instruction (all classes). Components that
     * watch branches or register dependences (T2, P1) override this;
     * cache-access-pattern prefetchers do not need to. A composite
     * forwards the retire stream to T2 and P1 only: its extras see
     * only the accesses routed to them and the prefetch fills.
     *
     * @param m_pc call-site-disambiguated PC (pc ^ RAS.top)
     */
    virtual void
    onInstr(const Instr &instr, const RetireInfo &retire, Pc m_pc,
            PrefetchEmitter &emitter)
    {
        (void)instr; (void)retire; (void)m_pc; (void)emitter;
    }

    /** A prefetch issued by component @p comp filled at @p completion. */
    virtual void
    onFill(ComponentId comp, Addr line_addr, Cycle completion,
           PrefetchEmitter &emitter)
    {
        (void)comp; (void)line_addr; (void)completion; (void)emitter;
    }

    /** Hardware budget of the design, in bits (Table II). */
    virtual std::size_t storageBits() const = 0;

    /**
     * Allocate component identities. Monolithic prefetchers take one
     * id; composites override this to give every sub-component its
     * own, so metrics can attribute each prefetch.
     */
    using IdAllocator =
        std::function<ComponentId(const std::string &name)>;

    virtual void
    assignIds(const IdAllocator &alloc)
    {
        setId(alloc(name()));
    }

    const std::string &name() const { return _name; }

    ComponentId id() const { return _id; }
    void setId(ComponentId id) { _id = id; }

    /**
     * Attach the observability event bus (nullptr = tracing off, the
     * default). Composites override to fan the context out to their
     * sub-components.
     */
    virtual void setTraceContext(TraceContext *trace) { _trace = trace; }

    /**
     * Export this component's decision counters into @p registry,
     * scoped under the component name. Called once at end of run —
     * components keep plain members on the hot path.
     */
    virtual void exportCounters(CounterRegistry &registry) const
    {
        (void)registry;
    }

  protected:
    TraceContext *_trace = nullptr;

  private:
    std::string _name;
    ComponentId _id = kNoComponent;
};

} // namespace dol

#endif // DOL_PREFETCH_PREFETCHER_HPP
