#include "core/composite.hpp"

#include "trace/context.hpp"
#include "trace/counters.hpp"

namespace dol
{

CompositePrefetcher::CompositePrefetcher(const ValueSource *memory)
    : CompositePrefetcher(memory, Config(), "TPC")
{}

CompositePrefetcher::CompositePrefetcher(const ValueSource *memory,
                                         const Config &config,
                                         std::string name)
    : Prefetcher(std::move(name)),
      _t2(std::make_unique<T2Prefetcher>(config.t2))
{
    if (config.enableP1) {
        _p1 = std::make_unique<P1Prefetcher>(_t2.get(), memory,
                                             config.p1);
    }
    if (config.enableC1)
        _c1 = std::make_unique<C1Prefetcher>(config.c1);
    if (config.adaptive)
        _adapt = std::make_unique<AdaptiveCoordinator>(config.adapt);
}

void
CompositePrefetcher::addComponent(std::unique_ptr<Prefetcher> extra)
{
    _extras.push_back(std::move(extra));
    _extraBoundAccesses.push_back(0);
    if (_adapt)
        _adapt->addExtra();
}

void
CompositePrefetcher::assignIds(const IdAllocator &alloc)
{
    _t2->setId(alloc(_t2->name()));
    if (_p1)
        _p1->setId(alloc(_p1->name()));
    if (_c1)
        _c1->setId(alloc(_c1->name()));
    for (auto &extra : _extras)
        extra->assignIds(alloc);

    // The composite itself never emits; give it a representative id.
    setId(_t2->id());

    if (_adapt) {
        _adapt->setSlotComponent(AdaptiveCoordinator::kSlotT2,
                                 _t2->id());
        if (_p1)
            _adapt->setSlotComponent(AdaptiveCoordinator::kSlotP1,
                                     _p1->id());
        if (_c1)
            _adapt->setSlotComponent(AdaptiveCoordinator::kSlotC1,
                                     _c1->id());
        for (std::size_t i = 0; i < _extras.size(); ++i) {
            _adapt->setSlotComponent(
                AdaptiveCoordinator::kFirstExtraSlot + i,
                _extras[i]->id());
        }
    }
}

void
CompositePrefetcher::setTraceContext(TraceContext *trace)
{
    Prefetcher::setTraceContext(trace);
    _t2->setTraceContext(trace);
    if (_p1)
        _p1->setTraceContext(trace);
    if (_c1)
        _c1->setTraceContext(trace);
    for (auto &extra : _extras)
        extra->setTraceContext(trace);
    if (_adapt)
        _adapt->setTraceContext(trace);
}

void
CompositePrefetcher::exportCounters(CounterRegistry &registry) const
{
    _t2->exportCounters(registry);
    if (_p1)
        _p1->exportCounters(registry);
    if (_c1)
        _c1->exportCounters(registry);
    for (const auto &extra : _extras)
        extra->exportCounters(registry);
    registry.set(name(), "coord_claims", _coordClaims);
    registry.set(name(), "coord_unclaims", _coordUnclaims);
    if (!_extras.empty()) {
        registry.set(name(), "coord_rr_binds", _roundRobinBinds);
        registry.set(name(), "coord_rebinds", _rebinds);
        for (std::size_t i = 0; i < _extras.size(); ++i) {
            registry.set(name(),
                         "coord_bound_" + _extras[i]->name(),
                         _extraBoundAccesses[i]);
        }
    }
    if (_adapt)
        _adapt->exportCounters(registry);
}

int
CompositePrefetcher::slotOfComponent(ComponentId comp) const
{
    if (comp == _t2->id())
        return static_cast<int>(AdaptiveCoordinator::kSlotT2);
    if (_p1 && comp == _p1->id())
        return static_cast<int>(AdaptiveCoordinator::kSlotP1);
    if (_c1 && comp == _c1->id())
        return static_cast<int>(AdaptiveCoordinator::kSlotC1);
    const int extra = extraIndexOfComponent(comp);
    if (extra >= 0) {
        return static_cast<int>(AdaptiveCoordinator::kFirstExtraSlot) +
               extra;
    }
    return -1;
}

CompositePrefetcher::Owner
CompositePrefetcher::ownerOf(Pc m_pc) const
{
    const InstrState state = _t2->stateOf(m_pc);
    if (state == InstrState::kStrided ||
        state == InstrState::kObservation) {
        return Owner::kT2;
    }
    if (_p1 && _p1->handles(m_pc))
        return Owner::kP1;
    if (_c1 && (_c1->isMarked(m_pc) || _c1->isMonitored(m_pc)))
        return Owner::kC1;
    if (_bindings.contains(m_pc))
        return Owner::kExtra;
    return Owner::kNone;
}

int
CompositePrefetcher::boundExtraOf(Pc m_pc) const
{
    const unsigned *binding = _bindings.find(m_pc);
    return binding ? static_cast<int>(*binding) : -1;
}

int
CompositePrefetcher::extraIndexOfComponent(ComponentId comp) const
{
    for (std::size_t i = 0; i < _extras.size(); ++i) {
        if (_extras[i]->id() == comp)
            return static_cast<int>(i);
    }
    return -1;
}

void
CompositePrefetcher::routeToExtras(const AccessInfo &access,
                                   PrefetchEmitter &emitter)
{
    // Rebinding: when a demand hits a line one of the extras
    // prefetched, that component owns the instruction from now on
    // (paper section IV-E).
    if (access.l1HitPrefetched) {
        const int idx = extraIndexOfComponent(access.l1HitComp);
        if (idx >= 0) {
            unsigned &bound = _bindings[access.mPc];
            if (bound != static_cast<unsigned>(idx)) {
                bound = static_cast<unsigned>(idx);
                ++_rebinds;
            }
        }
    }

    if (_bindings.size() > (1u << 16))
        _bindings.clear(); // finite coordinator state

    auto [binding, inserted] = _bindings.tryEmplace(access.mPc);
    if (inserted) {
        *binding = _nextBinding++ %
                   static_cast<unsigned>(_extras.size());
        ++_roundRobinBinds;
    }

    const unsigned index = *binding;
    ++_extraBoundAccesses[index];
    Prefetcher &extra = *_extras[index];
    runSlot(AdaptiveCoordinator::kFirstExtraSlot + index, extra, emitter,
            [&] { extra.train(access, emitter); });
}

void
CompositePrefetcher::train(const AccessInfo &access,
                           PrefetchEmitter &emitter)
{
    // Adaptive feedback: credit the component whose prefetched line
    // this demand hit, before any training mutates state.
    if (_adapt && access.l1HitPrefetched) {
        const int slot = slotOfComponent(access.l1HitComp);
        if (slot >= 0)
            _adapt->recordUsed(static_cast<std::size_t>(slot));
    }
    const auto demoted = [&](std::size_t slot) {
        return _adapt && _adapt->demoted(slot);
    };

    // T2 sees every access: it is the first expert consulted and the
    // sole owner of strided instructions. A demoted claimant still
    // trains (so it re-admits with warm state) but its claim is
    // ignored and its emission budget is zero, so the access falls
    // through to lower-priority components. Each verdict below is
    // asked once; ownerOf()'s answer is derived from them.
    InstrState t2_state = InstrState::kUnknown;
    runSlot(AdaptiveCoordinator::kSlotT2, *_t2, emitter, [&] {
        t2_state = _t2->trainAndGetState(access, emitter);
    });
    if (!_t2->params().useCallSiteXor) {
        // T2 trained access.pc; the coordinator asks about the mPC.
        t2_state = _t2->stateOf(access.mPc);
    }
    const bool t2_claims = t2_state == InstrState::kStrided ||
                           t2_state == InstrState::kObservation;
    bool claimed = t2_claims && !demoted(AdaptiveCoordinator::kSlotT2);

    // P1 acts on the retire stream; here it only claims ownership so
    // lower-priority components leave its instructions alone. Nothing
    // in train() changes its answer.
    bool p1_asked = false;
    bool p1_claims = false;
    if (!claimed && _p1 && !demoted(AdaptiveCoordinator::kSlotP1)) {
        p1_asked = true;
        p1_claims = _p1->handles(access.mPc);
        claimed = p1_claims;
    }

    bool c1_claims = false;
    if (!claimed && _c1) {
        runSlot(AdaptiveCoordinator::kSlotC1, *_c1, emitter, [&] {
            c1_claims = _c1->trainAndClaim(access, emitter);
        });
        claimed = c1_claims && !demoted(AdaptiveCoordinator::kSlotC1);
    }

    const bool routed = !claimed && !_extras.empty();
    if (routed)
        routeToExtras(access, emitter);

    if (_adapt)
        _adapt->onAccess(access.when);

    if (_trace) {
        // Ownership-transition events. The map is only populated while
        // tracing, so the untraced path never touches it. The owner is
        // ownerOf()'s, which ignores demotion. When neither T2's state
        // nor P1 claims, C1 was consulted, and the access was routed
        // unless C1 claims.
        Owner current = Owner::kNone;
        if (t2_claims)
            current = Owner::kT2;
        else if (_p1 && (p1_asked ? p1_claims : _p1->handles(access.mPc)))
            current = Owner::kP1;
        else if (c1_claims)
            current = Owner::kC1;
        else if (routed)
            current = Owner::kExtra;
        const auto owner = static_cast<std::uint8_t>(current);
        const std::uint8_t *last = _lastOwner.find(access.mPc);
        const std::uint8_t previous = last ? *last : 0;
        if (owner != previous) {
            if (previous != 0) {
                ++_coordUnclaims;
                DOL_TRACE_EVENT(_trace, TraceEventType::kCoordUnclaim,
                                access.when, access.addr, access.mPc,
                                id(), 0, previous);
            }
            if (owner != 0) {
                ++_coordClaims;
                DOL_TRACE_EVENT(_trace, TraceEventType::kCoordClaim,
                                access.when, access.addr, access.mPc,
                                id(), 0, owner);
            }
            if (_lastOwner.size() > (1u << 16))
                _lastOwner.clear();
            _lastOwner[access.mPc] = owner;
        }
    }
}

void
CompositePrefetcher::onInstr(const Instr &instr, const RetireInfo &retire,
                             Pc m_pc, PrefetchEmitter &emitter)
{
    // Only T2 and P1 read the retire stream. T2's hook feeds its loop
    // detector and never emits, so it needs no slot; extras see only
    // the accesses routed to them and their fills.
    _t2->onInstr(instr, retire, m_pc, emitter);
    if (_p1) {
        runSlot(AdaptiveCoordinator::kSlotP1, *_p1, emitter, [&] {
            _p1->onInstr(instr, retire, m_pc, emitter);
        });
    }
}

void
CompositePrefetcher::onFill(ComponentId comp, Addr line_addr,
                            Cycle completion, PrefetchEmitter &emitter)
{
    if (_p1) {
        runSlot(AdaptiveCoordinator::kSlotP1, *_p1, emitter, [&] {
            _p1->onFill(comp, line_addr, completion, emitter);
        });
    }
    for (std::size_t i = 0; i < _extras.size(); ++i) {
        runSlot(AdaptiveCoordinator::kFirstExtraSlot + i, *_extras[i],
                emitter, [&] {
            _extras[i]->onFill(comp, line_addr, completion, emitter);
        });
    }
}

std::size_t
CompositePrefetcher::storageBits() const
{
    std::size_t total = _t2->storageBits();
    if (_p1)
        total += _p1->storageBits();
    if (_c1)
        total += _c1->storageBits();
    for (const auto &extra : _extras)
        total += extra->storageBits();
    return total;
}

// --- ShuntPrefetcher ---------------------------------------------

void
ShuntPrefetcher::assignIds(const IdAllocator &alloc)
{
    for (auto &component : _components)
        component->assignIds(alloc);
    if (!_components.empty())
        setId(_components.front()->id());
}

void
ShuntPrefetcher::train(const AccessInfo &access, PrefetchEmitter &emitter)
{
    const Cycle now = emitter.now();
    for (auto &component : _components) {
        emitter.setContext(component->id(), now);
        component->train(access, emitter);
    }
}

void
ShuntPrefetcher::onInstr(const Instr &instr, const RetireInfo &retire,
                         Pc m_pc, PrefetchEmitter &emitter)
{
    const Cycle now = emitter.now();
    for (auto &component : _components) {
        emitter.setContext(component->id(), now);
        component->onInstr(instr, retire, m_pc, emitter);
    }
}

void
ShuntPrefetcher::onFill(ComponentId comp, Addr line_addr,
                        Cycle completion, PrefetchEmitter &emitter)
{
    for (auto &component : _components) {
        emitter.setContext(component->id(), completion);
        component->onFill(comp, line_addr, completion, emitter);
    }
}

std::size_t
ShuntPrefetcher::storageBits() const
{
    std::size_t total = 0;
    for (const auto &component : _components)
        total += component->storageBits();
    return total;
}

void
ShuntPrefetcher::setTraceContext(TraceContext *trace)
{
    Prefetcher::setTraceContext(trace);
    for (auto &component : _components)
        component->setTraceContext(trace);
}

void
ShuntPrefetcher::exportCounters(CounterRegistry &registry) const
{
    for (const auto &component : _components)
        component->exportCounters(registry);
}

} // namespace dol
