/**
 * @file
 * The composite prefetcher and its coordinator (paper sections IV-D,
 * IV-E, Figure 7).
 *
 * The coordinator is hardwired priority logic: a memory instruction is
 * offered to T2 first, then P1, then C1; instructions none of them
 * claims are routed to optional "extra" components (existing
 * monolithic prefetchers), bound round-robin per instruction and
 * rebound to whichever component's prefetched line the instruction
 * later hits. An extra sees only the accesses routed to it and the
 * prefetch fills, never the retire stream: only T2 and P1 read that.
 * T2/P1 prefetch into L1; C1 into L2 (its lower accuracy
 * makes L2 the appropriate destination). Figure 16 overrides the
 * destination for every component at once, on the PrefetchEmitter.
 */

#ifndef DOL_CORE_COMPOSITE_HPP
#define DOL_CORE_COMPOSITE_HPP

#include <memory>
#include <vector>

#include "common/flat_table.hpp"
#include "core/adaptive.hpp"
#include "core/c1.hpp"
#include "core/p1.hpp"
#include "core/t2.hpp"
#include "prefetch/prefetcher.hpp"

namespace dol
{

class CompositePrefetcher : public Prefetcher
{
  public:
    /** T2 is always present; P1 and C1 can be left out (Fig. 12). */
    struct Config
    {
        bool enableP1 = true;
        bool enableC1 = true;
        T2Prefetcher::Params t2{};
        P1Prefetcher::Params p1{};
        C1Prefetcher::Params c1{};

        /**
         * Feedback-driven coordination (`--coordinator adaptive`,
         * src/core/adaptive.hpp; the paper's "flexibility" conjecture,
         * section III): windowed accuracy/coverage EWMAs, slow-start
         * degree ramping for the extras, and K-window claimant
         * demotion. Off by default so the hardwired coordinator — and
         * every golden trace — is untouched.
         */
        bool adaptive = false;
        AdaptiveParams adapt{};
    };

    explicit CompositePrefetcher(const ValueSource *memory);
    CompositePrefetcher(const ValueSource *memory, const Config &config,
                        std::string name = "TPC");

    /** Append an existing prefetcher as an extra component. Its
     *  onInstr() is never called (see the file comment). */
    void addComponent(std::unique_ptr<Prefetcher> extra);

    // Prefetcher interface -----------------------------------------
    void train(const AccessInfo &access, PrefetchEmitter &emitter) override;
    void onInstr(const Instr &instr, const RetireInfo &retire, Pc m_pc,
                 PrefetchEmitter &emitter) override;
    void onFill(ComponentId comp, Addr line_addr, Cycle completion,
                PrefetchEmitter &emitter) override;
    void assignIds(const IdAllocator &alloc) override;
    std::size_t storageBits() const override;
    void setTraceContext(TraceContext *trace) override;
    void exportCounters(CounterRegistry &registry) const override;

    // Introspection -------------------------------------------------
    T2Prefetcher *t2() { return _t2.get(); }
    P1Prefetcher *p1() { return _p1.get(); }
    C1Prefetcher *c1() { return _c1.get(); }

    const std::vector<std::unique_ptr<Prefetcher>> &
    extras() const
    {
        return _extras;
    }

    /** Which component currently owns this instruction (for tests). */
    enum class Owner { kNone, kT2, kP1, kC1, kExtra };
    Owner ownerOf(Pc m_pc) const;

    /**
     * Index of the extra component this instruction is bound to, or
     * -1 when unbound (tests and the differential checker).
     */
    int boundExtraOf(Pc m_pc) const;

    // Adaptive coordination ----------------------------------------
    /** The adaptive policy engine, nullptr in hardwired mode. */
    AdaptiveCoordinator *adaptive() { return _adapt.get(); }
    const AdaptiveCoordinator *adaptive() const { return _adapt.get(); }

    /** DRAM pressure feed for the degree schedule (no-op when
     *  hardwired; the experiment runner wires it to the shared
     *  controller's windowDeferrals counter). */
    void
    setPressureProbe(std::function<std::uint64_t()> probe)
    {
        if (_adapt)
            _adapt->setPressureProbe(std::move(probe));
    }

    /** Window-decision mirror for the differential checker. */
    void
    setAdaptiveDecisionLog(std::vector<AdaptiveWindowRecord> *log)
    {
        if (_adapt)
            _adapt->setDecisionLog(log);
    }

  private:
    /**
     * Run a sub-component with its identity set on the emitter. In
     * adaptive mode, also arm the slot's emission budget and record
     * the issued/throttled deltas; in hardwired mode (_adapt ==
     * nullptr) that costs one null test on the hot path.
     */
    template <typename Fn>
    void
    runSlot(std::size_t slot, Prefetcher &comp, PrefetchEmitter &emitter,
            Fn &&fn)
    {
        emitter.setContext(comp.id(), emitter.now());
        if (!_adapt) {
            fn();
            return;
        }
        emitter.setEmitBudget(_adapt->budgetFor(slot));
        const std::uint64_t issued_before = emitter.issuedCount();
        const std::uint64_t throttled_before = emitter.throttledCount();
        fn();
        _adapt->recordIssued(slot,
                             emitter.issuedCount() - issued_before);
        _adapt->recordThrottled(
            slot, emitter.throttledCount() - throttled_before);
        emitter.setEmitBudget(PrefetchEmitter::kUnlimitedBudget);
    }

    /** Adaptive slot of a component id, or -1 (see AdaptiveCoordinator
     *  slot layout: T2/P1/C1 then the extras). */
    int slotOfComponent(ComponentId comp) const;

    void routeToExtras(const AccessInfo &access,
                       PrefetchEmitter &emitter);
    int extraIndexOfComponent(ComponentId comp) const;

    std::unique_ptr<T2Prefetcher> _t2;
    std::unique_ptr<P1Prefetcher> _p1;
    std::unique_ptr<C1Prefetcher> _c1;
    std::vector<std::unique_ptr<Prefetcher>> _extras;
    std::unique_ptr<AdaptiveCoordinator> _adapt;

    /** Instruction -> extra-component binding (round-robin seeded). */
    FlatHashMap<Pc, unsigned> _bindings;
    unsigned _nextBinding = 0;

    /** Last coordinator owner per instruction — maintained only while
     *  a trace context is attached (the map stays empty otherwise, so
     *  the untraced hot path pays nothing). */
    FlatHashMap<Pc, std::uint8_t> _lastOwner;
    std::uint64_t _coordClaims = 0;
    std::uint64_t _coordUnclaims = 0;

    /** Coordinator routing statistics — exported only when extras are
     *  present, so extra-less configurations keep their counter text
     *  (and golden traces) unchanged. */
    std::uint64_t _roundRobinBinds = 0;
    std::uint64_t _rebinds = 0;
    std::vector<std::uint64_t> _extraBoundAccesses;
};

/**
 * Shunting: the same components running in parallel, every one seeing
 * every access, with no coordination (paper section V-C.3's contrast).
 */
class ShuntPrefetcher : public Prefetcher
{
  public:
    explicit ShuntPrefetcher(std::string name = "Shunt")
        : Prefetcher(std::move(name))
    {}

    void
    addComponent(std::unique_ptr<Prefetcher> component)
    {
        _components.push_back(std::move(component));
    }

    void train(const AccessInfo &access, PrefetchEmitter &emitter) override;
    void onInstr(const Instr &instr, const RetireInfo &retire, Pc m_pc,
                 PrefetchEmitter &emitter) override;
    void onFill(ComponentId comp, Addr line_addr, Cycle completion,
                PrefetchEmitter &emitter) override;
    void assignIds(const IdAllocator &alloc) override;
    std::size_t storageBits() const override;
    void setTraceContext(TraceContext *trace) override;
    void exportCounters(CounterRegistry &registry) const override;

    const std::vector<std::unique_ptr<Prefetcher>> &
    components() const
    {
        return _components;
    }

  private:
    std::vector<std::unique_ptr<Prefetcher>> _components;
};

} // namespace dol

#endif // DOL_CORE_COMPOSITE_HPP
