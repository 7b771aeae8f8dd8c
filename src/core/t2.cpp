#include "core/t2.hpp"

#include <algorithm>

#include "trace/context.hpp"

namespace dol
{

T2Prefetcher::T2Prefetcher() : T2Prefetcher(Params()) {}

T2Prefetcher::T2Prefetcher(const Params &params)
    : Prefetcher("T2"), _params(params),
      _loops(params.nlpctEntries), _sit(params.sitEntries)
{
    _states.reserve(params.maxStateEntries);
}

InstrState
T2Prefetcher::stateOf(Pc m_pc) const
{
    const InstrState *state = _states.find(m_pc);
    return state ? *state : InstrState::kUnknown;
}

InstrState
T2Prefetcher::setState(Pc m_pc, InstrState state, Cycle when)
{
    const InstrState previous = stateOf(m_pc);
    if (state == InstrState::kStrided)
        ++_streamsConfirmed;
    else if (state == InstrState::kNonStrided)
        ++_instrsWrittenOff;
    else if (state == InstrState::kObservation &&
             previous == InstrState::kStrided)
        ++_streamsBroken;
    DOL_TRACE_EVENT(_trace, TraceEventType::kT2Transition, when, 0,
                    m_pc, id(), 0,
                    static_cast<std::uint8_t>(state));

    if (_states.size() >= _params.maxStateEntries &&
        !_states.contains(m_pc)) {
        // The I-cache state bits are a finite resource: modelling a
        // line-fill that resets old entries, drop everything. This is
        // rare for our working sets.
        _states.clear();
    }
    _states.insert(m_pc, state);
    return state;
}

unsigned
T2Prefetcher::distance() const
{
    const double t_iter = _loops.iterationTime();
    if (!_loops.inLoop() || t_iter < 1.0)
        return _params.defaultDistance;
    const double d = (_amat + _params.marginCycles) / t_iter;
    return static_cast<unsigned>(std::clamp(
        d, 1.0, static_cast<double>(_params.maxDistance)));
}

void
T2Prefetcher::updateAmat(const AccessInfo &access)
{
    if (!access.l1PrimaryMiss)
        return;
    const auto sample =
        static_cast<double>(access.completion - access.when);
    _amat = 0.875 * _amat + 0.125 * sample;
}

void
T2Prefetcher::onInstr(const Instr &instr, const RetireInfo &retire,
                      Pc m_pc, PrefetchEmitter &emitter)
{
    (void)m_pc;
    (void)emitter;
    _loops.observe(instr, retire.finish);
}

void
T2Prefetcher::issueStream(SitEntry &entry, const AccessInfo &access,
                          PrefetchEmitter &emitter, unsigned dist)
{
    if (entry.delta == 0)
        return;
    const bool forward = entry.delta > 0;
    // Sub-line strides advance the frontier one line at a time;
    // larger strides advance one stream element at a time (the
    // intervening lines are never touched and must not be fetched).
    const std::int64_t magnitude = std::max<std::int64_t>(
        std::llabs(entry.delta), kLineBytes);
    const std::int64_t step = forward ? magnitude : -magnitude;
    const Addr target = static_cast<Addr>(
        static_cast<std::int64_t>(access.addr) +
        entry.delta * static_cast<std::int64_t>(dist));

    // Where is this stream's prefetch frontier (a byte position)?
    const bool have_frontier =
        entry.lastIssuedLine != kNoAddr &&
        (forward ? entry.lastIssuedLine >= access.addr
                 : entry.lastIssuedLine <= access.addr);
    // Catch-up stage starts just ahead of the demand access.
    Addr frontier = have_frontier ? entry.lastIssuedLine : access.addr;

    unsigned issued = 0;
    while (issued < _params.maxCatchup &&
           (forward ? frontier < target : frontier > target)) {
        const Addr next = static_cast<Addr>(
            static_cast<std::int64_t>(frontier) + step);
        const auto outcome = emitter.emit(next, kL1, _params.priority);
        if (outcome == PrefetchOutcome::kDroppedQueue) {
            // No resources: stop here and retry from this frontier on
            // the next training event, so no line is silently skipped.
            break;
        }
        frontier = next;
        ++issued;
    }
    if (issued > 0 || have_frontier)
        entry.lastIssuedLine = frontier;
}

void
T2Prefetcher::train(const AccessInfo &access, PrefetchEmitter &emitter)
{
    trainAndGetState(access, emitter);
}

InstrState
T2Prefetcher::trainAndGetState(const AccessInfo &access,
                               PrefetchEmitter &emitter)
{
    updateAmat(access);

    const Pc m_pc =
        _params.useCallSiteXor ? access.mPc : access.pc;
    InstrState state = stateOf(m_pc);

    switch (state) {
      case InstrState::kUnknown:
        // Only instructions that trigger a primary miss are worth
        // tracking (paper: state 0 -> 1 on primary miss).
        if (access.l1PrimaryMiss) {
            state = setState(m_pc, InstrState::kObservation,
                             access.when);
            _sit.allocate(m_pc, access.addr);
        }
        break;

      case InstrState::kObservation: {
        SitEntry *entry = _sit.find(m_pc);
        if (!entry) {
            // Evicted while under observation: start over.
            _sit.allocate(m_pc, access.addr);
            break;
        }
        const std::int64_t delta =
            static_cast<std::int64_t>(access.addr) -
            static_cast<std::int64_t>(entry->lastAddr);
        if (delta != 0 && delta == entry->delta) {
            if (entry->sameDeltaCount < 255)
                ++entry->sameDeltaCount;
            entry->diffDeltaCount = 0;
            if (entry->sameDeltaCount >= _params.strideThreshold) {
                state = setState(m_pc, InstrState::kStrided,
                                 access.when);
                _lastConfirmed = m_pc;
            }
        } else {
            entry->delta = delta;
            entry->sameDeltaCount = 0;
            if (++entry->diffDeltaCount >= _params.nonStrideThreshold) {
                state = setState(m_pc, InstrState::kNonStrided,
                                 access.when);
                entry->lastAddr = access.addr;
                break;
            }
        }
        entry->lastAddr = access.addr;
        // Early prefetching after a short stable run (paper: 4).
        if (entry->sameDeltaCount >= _params.earlyThreshold)
            issueStream(*entry, access, emitter, distance());
        break;
      }

      case InstrState::kStrided: {
        SitEntry *entry = _sit.find(m_pc);
        if (!entry) {
            entry = &_sit.allocate(m_pc, access.addr);
            state = setState(m_pc, InstrState::kObservation,
                             access.when);
            break;
        }
        const std::int64_t delta =
            static_cast<std::int64_t>(access.addr) -
            static_cast<std::int64_t>(entry->lastAddr);
        if (delta != 0 && delta == entry->delta) {
            entry->diffDeltaCount = 0;
            if (entry->sameDeltaCount < 255)
                ++entry->sameDeltaCount;
        } else if (++entry->diffDeltaCount >=
                   _params.nonStrideThreshold) {
            // The stream broke down; re-observe from scratch.
            state = setState(m_pc, InstrState::kObservation,
                             access.when);
            entry->delta = delta;
            entry->sameDeltaCount = 0;
            entry->diffDeltaCount = 0;
            entry->lastIssuedLine = kNoAddr;
            entry->lastAddr = access.addr;
            break;
        }
        entry->lastAddr = access.addr;
        unsigned dist = distance();
        if (entry->ptrProducer) {
            // Strided-pointer producers run at double distance to
            // cover the dependent access (paper IV-B.1).
            dist = std::min(2 * dist, _params.maxDistance);
        }
        issueStream(*entry, access, emitter, dist);
        break;
      }

      case InstrState::kNonStrided:
        // Not our pattern; P1/C1 take it from here.
        break;
    }
    return state;
}

std::size_t
T2Prefetcher::storageBits() const
{
    // SIT + loop hardware + 2 KB of 2-bit I-cache state annotations.
    return _sit.storageBits() + _loops.storageBits() + 2048 * 8;
}

void
T2Prefetcher::exportCounters(CounterRegistry &registry) const
{
    registry.set(name(), "streams_confirmed", _streamsConfirmed);
    registry.set(name(), "streams_broken", _streamsBroken);
    registry.set(name(), "instrs_written_off", _instrsWrittenOff);
    registry.set(name(), "tracked_instrs", _states.size());
    registry.set(name(), "distance", distance());
}

} // namespace dol
