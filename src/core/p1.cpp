#include "core/p1.hpp"

#include <algorithm>

#include "trace/context.hpp"
#include "trace/counters.hpp"

namespace dol
{

P1Prefetcher::P1Prefetcher(T2Prefetcher *t2, const ValueSource *memory)
    : P1Prefetcher(t2, memory, Params())
{}

P1Prefetcher::P1Prefetcher(T2Prefetcher *t2, const ValueSource *memory,
                           const Params &params)
    : Prefetcher("P1"), _params(params), _t2(t2), _memory(memory),
      _chains(params.chainEntries)
{}

void
P1Prefetcher::PredictionRing::push(Addr line)
{
    lines[head] = line;
    head = (head + 1) % lines.size();
    if (count < lines.size())
        ++count;
}

bool
P1Prefetcher::PredictionRing::contains(Addr line) const
{
    for (unsigned i = 0; i < count; ++i) {
        if (lines[i] == line)
            return true;
    }
    return false;
}

P1Prefetcher::ChainEntry *
P1Prefetcher::findChain(Pc m_pc)
{
    for (ChainEntry &entry : _chains) {
        if (entry.valid && entry.mPc == m_pc) {
            entry.lruStamp = ++_stamp;
            return &entry;
        }
    }
    return nullptr;
}

P1Prefetcher::ChainEntry &
P1Prefetcher::allocateChain(Pc m_pc)
{
    ChainEntry *victim = &_chains[0];
    for (ChainEntry &entry : _chains) {
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        // Never evict a confirmed chain for an unconfirmed candidate.
        if (entry.confirmed && !victim->confirmed)
            continue;
        if (!entry.confirmed && victim->confirmed) {
            victim = &entry;
            continue;
        }
        if (entry.lruStamp < victim->lruStamp)
            victim = &entry;
    }
    *victim = ChainEntry{};
    victim->valid = true;
    victim->mPc = m_pc;
    victim->lruStamp = ++_stamp;
    return *victim;
}

bool
P1Prefetcher::isChainConfirmed(Pc m_pc) const
{
    for (const ChainEntry &entry : _chains) {
        if (entry.valid && entry.mPc == m_pc)
            return entry.confirmed;
    }
    return false;
}

bool
P1Prefetcher::handles(Pc m_pc) const
{
    return isChainConfirmed(m_pc) || _dependents.contains(m_pc);
}

void
P1Prefetcher::resetChase(ChainEntry &entry)
{
    entry.awaitFill = false;
    entry.nextValid = false;
    entry.ahead = 0;
    entry.predicted.clear();
    entry.missCount = 0;
    entry.confirmed = false;
    entry.conf = 0;
    entry.hasValue = false;
}

void
P1Prefetcher::advanceChase(ChainEntry &entry, Cycle when,
                           PrefetchEmitter &emitter)
{
    // Top the chain up to the target depth. Prefetches that hit in the
    // cache resolve immediately (the value is available); a prefetch
    // that actually goes out suspends the FSM until its fill returns.
    const unsigned target =
        std::min(_params.maxChainDepth,
                 std::max(2u, _t2 ? _t2->distance() : 4u));
    unsigned guard = 0;
    while (!entry.awaitFill && entry.nextValid &&
           entry.ahead < target && ++guard <= 2 * target) {
        const Addr link_addr = entry.nextChaseAddr;
        entry.chaseAddr = link_addr;
        entry.nextValid = false;

        // The FSM cannot act on a value before the fill that carried
        // it returned: never issue earlier than nextKnownAt.
        const Cycle issue_at = std::max(when, entry.nextKnownAt);
        const auto outcome = emitter.emitAt(link_addr, issue_at, kL1,
                                            _params.priority);
        ++_linksFollowed;
        DOL_TRACE_EVENT(_trace, TraceEventType::kP1ChainAdvance,
                        issue_at, link_addr, entry.mPc, id(), 0,
                        static_cast<std::uint8_t>(outcome));
        ++entry.ahead;
        entry.predicted.push(lineAddr(link_addr));

        if (outcome == PrefetchOutcome::kIssued) {
            entry.pendingLine = lineAddr(link_addr);
            entry.awaitFill = true;
            ++_chainsStarted;
            return;
        }
        if (outcome == PrefetchOutcome::kFilteredPresent ||
            outcome == PrefetchOutcome::kFilteredPending) {
            // The line is cached: its value is readable immediately.
            const std::uint64_t value = _memory->read64(link_addr);
            if (!plausiblePointer(value))
                return;
            entry.nextChaseAddr =
                static_cast<Addr>(static_cast<std::int64_t>(value) +
                                  entry.delta);
            entry.nextValid = true;
            entry.nextKnownAt = issue_at;
            continue;
        }
        return; // dropped: give up this round
    }
}

void
P1Prefetcher::onFill(ComponentId comp, Addr line_addr, Cycle completion,
                     PrefetchEmitter &emitter)
{
    if (comp != id())
        return;
    for (ChainEntry &entry : _chains) {
        if (!entry.valid || !entry.awaitFill ||
            entry.pendingLine != lineAddr(line_addr)) {
            continue;
        }
        entry.awaitFill = false;
        const std::uint64_t value = _memory->read64(entry.chaseAddr);
        if (!plausiblePointer(value))
            continue;
        entry.nextChaseAddr =
            static_cast<Addr>(static_cast<std::int64_t>(value) +
                              entry.delta);
        entry.nextValid = true;
        entry.nextKnownAt = completion;
        advanceChase(entry, completion, emitter);
    }
}

void
P1Prefetcher::observeChainCandidate(const Instr &instr, Pc m_pc,
                                    PrefetchEmitter &emitter, Cycle when)
{
    ChainEntry *entry = findChain(m_pc);
    if (!entry) {
        if (!plausiblePointer(instr.value))
            return;
        entry = &allocateChain(m_pc);
        entry->lastValue = instr.value;
        entry->hasValue = true;
        return;
    }

    if (entry->confirmed) {
        // Resync check: the demand address should be one of the nodes
        // we predicted.
        const Addr line = lineAddr(instr.addr);
        if (entry->predicted.count > 0) {
            if (entry->predicted.contains(line)) {
                entry->missCount = 0;
            } else if (++entry->missCount > _params.timeoutIters) {
                // Off track for too long: reset and re-detect
                // (the paper's time-out correction).
                ++_chainResyncs;
                DOL_TRACE_EVENT(_trace, TraceEventType::kP1ChainResync,
                                when, instr.addr, m_pc, id(), 0, 0);
                resetChase(*entry);
                return;
            }
        }
        if (entry->ahead > 0)
            --entry->ahead; // demand consumed one node

        entry->lastValue = instr.value;
        if (!entry->awaitFill && !entry->nextValid &&
            plausiblePointer(instr.value)) {
            // Restart chasing from the freshest architectural value,
            // which arrives when this demand load completes.
            entry->nextChaseAddr = static_cast<Addr>(
                static_cast<std::int64_t>(instr.value) + entry->delta);
            entry->nextValid = true;
            entry->nextKnownAt = when;
        }
        advanceChase(*entry, when, emitter);
        return;
    }

    // Detection: next address = previous value + constant delta?
    if (entry->hasValue) {
        const auto delta = static_cast<std::int64_t>(instr.addr) -
                           static_cast<std::int64_t>(entry->lastValue);
        if (std::llabs(delta) <= _params.maxPtrDelta) {
            if (delta == entry->delta && entry->conf > 0) {
                if (++entry->conf >= _params.confirmThreshold) {
                    entry->confirmed = true;
                    entry->missCount = 0;
                    entry->predicted.clear();
                    ++_chainsConfirmed;
                    DOL_TRACE_EVENT(_trace,
                                    TraceEventType::kP1ChainStart,
                                    when, instr.addr, m_pc, id(), 0, 0);
                }
            } else {
                entry->delta = delta;
                entry->conf = 1;
            }
        } else {
            entry->conf = 0;
        }
    }
    entry->lastValue = instr.value;
    entry->hasValue = plausiblePointer(instr.value);
}

void
P1Prefetcher::confirmProducer(Pc producer_m_pc, Pc dependent_m_pc,
                              std::int64_t delta, Cycle when)
{
    if (SitEntry *sit = _t2->sitLookup(producer_m_pc)) {
        sit->ptrProducer = true;
        sit->ptrDelta = delta;
    }
    ++_producersConfirmed;
    DOL_TRACE_EVENT(_trace, TraceEventType::kP1ProducerConfirm, when,
                    static_cast<Addr>(dependent_m_pc), producer_m_pc,
                    id(), 0, 0);
    ProducerRecord record;
    record.producerMPc = producer_m_pc;
    record.dependentMPc = dependent_m_pc;
    record.ptrDelta = delta;
    _producers.insert(producer_m_pc, record);
    _dependents.insert(dependent_m_pc, producer_m_pc);
}

void
P1Prefetcher::runScout(const Instr &instr, Pc m_pc, Cycle when)
{
    if (!_scout.active)
        return;

    if (m_pc == _scout.producerMPc && instr.isLoad()) {
        // The producer executed again: one iteration swept.
        if (++_scout.iterations > _params.scoutIterBudget) {
            _scouted.insert(_scout.producerMPc);
            _scout.active = false;
            return;
        }
        _scout.taint.seed(instr.dst);
        _scout.producerValue = instr.value;
        return;
    }

    const bool tainted = _scout.taint.propagate(instr);
    if (!tainted || !instr.isLoad())
        return;

    const auto delta = static_cast<std::int64_t>(instr.addr) -
                       static_cast<std::int64_t>(_scout.producerValue);
    if (std::llabs(delta) > _params.maxPtrDelta)
        return;

    if (_scout.haveCandidate && _scout.candidateMPc == m_pc) {
        if (delta == _scout.candidateDelta) {
            if (++_scout.candidateConf >= _params.confirmThreshold) {
                confirmProducer(_scout.producerMPc, m_pc, delta, when);
                _scouted.insert(_scout.producerMPc);
                _scout.active = false;
            }
        } else {
            _scout.candidateDelta = delta;
            _scout.candidateConf = 1;
        }
    } else if (!_scout.haveCandidate) {
        _scout.haveCandidate = true;
        _scout.candidateMPc = m_pc;
        _scout.candidateDelta = delta;
        _scout.candidateConf = 1;
    }
}

void
P1Prefetcher::producerExecuted(const Instr &instr, Pc m_pc, Cycle when,
                               PrefetchEmitter &emitter)
{
    ProducerRecord *found = _producers.find(m_pc);
    if (!found)
        return;
    ProducerRecord &record = *found;
    record.lastValue = instr.value;
    record.hasLastValue = plausiblePointer(instr.value);

    const SitEntry *sit = _t2->sitLookup(m_pc);
    if (!sit || !sit->ptrProducer)
        return;

    // The producer's stream runs at doubled distance; by now the
    // future element's line has been prefetched, so its value (a
    // pointer) is available to P1 — follow it. A slot frontier walks
    // every producer element exactly once, so distance drift never
    // leaves dependent gaps.
    if (sit->delta == 0)
        return;
    const unsigned dist =
        std::min(2 * _t2->distance(), 2 * _t2->params().maxDistance);
    const Addr target_slot = static_cast<Addr>(
        static_cast<std::int64_t>(instr.addr) +
        sit->delta * static_cast<std::int64_t>(dist));

    const bool forward = sit->delta > 0;
    const bool have_frontier =
        record.slotFrontier != kNoAddr &&
        (forward ? record.slotFrontier >= instr.addr
                 : record.slotFrontier <= instr.addr);
    Addr slot = have_frontier ? record.slotFrontier : instr.addr;

    unsigned emitted = 0;
    while (emitted < 2 &&
           (forward ? slot < target_slot : slot > target_slot)) {
        const Addr next_slot = static_cast<Addr>(
            static_cast<std::int64_t>(slot) + sit->delta);
        const std::uint64_t value = _memory->read64(next_slot);
        if (!plausiblePointer(value))
            break;
        const Addr target = static_cast<Addr>(
            static_cast<std::int64_t>(value) + record.ptrDelta);
        const auto outcome =
            emitter.emitAt(target, when, kL1, _params.priority);
        if (outcome == PrefetchOutcome::kDroppedQueue) {
            break; // retry from this slot next execution
        }
        slot = next_slot;
        ++emitted;
    }
    record.slotFrontier = slot;
}

void
P1Prefetcher::dependentExecuted(const Instr &instr, Pc m_pc, Cycle when)
{
    const Pc *dep = _dependents.find(m_pc);
    if (!dep)
        return;
    ProducerRecord *prod = _producers.find(*dep);
    if (!prod)
        return;
    ProducerRecord &record = *prod;
    if (!record.hasLastValue)
        return;
    // The dependent executes right after its producer in the same
    // iteration: its address must be the producer's current value
    // plus the learned offset.
    const Addr expected = static_cast<Addr>(
        static_cast<std::int64_t>(record.lastValue) + record.ptrDelta);
    if (lineAddr(instr.addr) == lineAddr(expected)) {
        record.missCount = 0;
    } else if (++record.missCount > _params.timeoutIters) {
        // The dependent wandered off: unmark and allow re-detection.
        ++_dependentTimeouts;
        DOL_TRACE_EVENT(_trace, TraceEventType::kP1ChainResync, when,
                        instr.addr, m_pc, id(), 0, 1);
        if (SitEntry *sit = _t2->sitLookup(record.producerMPc))
            sit->ptrProducer = false;
        const Pc producer_m_pc = record.producerMPc;
        _scouted.erase(producer_m_pc);
        _dependents.erase(m_pc);
        _producers.erase(producer_m_pc);
    }
}

void
P1Prefetcher::onInstr(const Instr &instr, const RetireInfo &retire,
                      Pc m_pc, PrefetchEmitter &emitter)
{
    runScout(instr, m_pc, retire.issue);

    if (!instr.isLoad())
        return;

    const InstrState t2_state = _t2->stateOf(m_pc);

    if (t2_state == InstrState::kStrided) {
        // Launch a scout at newly confirmed strided loads.
        if (!_scout.active && !_scouted.contains(m_pc) &&
            instr.dst != kNoReg) {
            _scout.active = true;
            _scout.producerMPc = m_pc;
            _scout.producerValue = instr.value;
            _scout.taint.seed(instr.dst);
            _scout.iterations = 0;
            _scout.haveCandidate = false;
            _scout.candidateConf = 0;
        }
        producerExecuted(instr, m_pc, retire.issue, emitter);
        return; // strided loads are never chain candidates
    }

    dependentExecuted(instr, m_pc, retire.issue);

    // Chain candidates are non-strided loads whose own value predicts
    // their next address. The FSM learns the value when the load
    // completes, so that is the earliest it can act.
    if (t2_state == InstrState::kNonStrided ||
        t2_state == InstrState::kUnknown ||
        t2_state == InstrState::kObservation) {
        observeChainCandidate(instr, m_pc, emitter,
                              retire.mem.completion);
    }
}

void
P1Prefetcher::train(const AccessInfo &access, PrefetchEmitter &emitter)
{
    // All of P1's work happens on the retire stream (onInstr) and on
    // fills; the demand-access hook is unused.
    (void)access;
    (void)emitter;
}

std::size_t
P1Prefetcher::storageBits() const
{
    // PtrPC scout (32) + TPU (64) + chain SIT entries (mPc tag 16 +
    // value 48 + delta 16 + FSM state 16 + counters 8) + 1 KB of
    // marked-instruction state bits (Table II: "1KB state bits").
    return 32 + TaintTracker::storageBits() +
           _chains.size() * (16 + 48 + 16 + 16 + 8) + 1024 * 8;
}

void
P1Prefetcher::exportCounters(CounterRegistry &registry) const
{
    registry.set(name(), "chains_confirmed", _chainsConfirmed);
    registry.set(name(), "chain_resyncs", _chainResyncs);
    registry.set(name(), "links_followed", _linksFollowed);
    registry.set(name(), "chain_prefetches", _chainsStarted);
    registry.set(name(), "producers_confirmed", _producersConfirmed);
    registry.set(name(), "dependent_timeouts", _dependentTimeouts);
}

} // namespace dol
