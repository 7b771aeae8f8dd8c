#include "check/reference_t2.hpp"

#include <algorithm>

namespace dol::check
{

ReferenceT2::ReferenceT2(const T2Prefetcher::Params &params,
                         Mutation mutation)
    : _params(params), _mutation(mutation)
{}

InstrState
ReferenceT2::stateOf(Pc m_pc) const
{
    const auto it = _states.find(m_pc);
    return it == _states.end() ? InstrState::kUnknown : it->second;
}

unsigned
ReferenceT2::confirmThreshold() const
{
    if (_mutation == Mutation::kT2ConfirmThreshold)
        return _params.strideThreshold + 1;
    return _params.strideThreshold;
}

void
ReferenceT2::issueStream(Entry &entry, const AccessInfo &access,
                         unsigned dist, const Env &env)
{
    if (entry.delta == 0)
        return;
    const bool forward = entry.delta > 0;
    const std::int64_t magnitude = std::max<std::int64_t>(
        std::llabs(entry.delta), kLineBytes);
    const std::int64_t step = forward ? magnitude : -magnitude;
    const Addr target = static_cast<Addr>(
        static_cast<std::int64_t>(access.addr) +
        entry.delta * static_cast<std::int64_t>(dist));

    const bool have_frontier =
        entry.lastIssuedLine != kNoAddr &&
        (forward ? entry.lastIssuedLine >= access.addr
                 : entry.lastIssuedLine <= access.addr);
    Addr frontier = have_frontier ? entry.lastIssuedLine : access.addr;

    unsigned issued = 0;
    while (issued < _params.maxCatchup &&
           (forward ? frontier < target : frontier > target)) {
        const Addr next = static_cast<Addr>(
            static_cast<std::int64_t>(frontier) + step);
        const PrefetchOutcome outcome = env.emit(next);
        if (outcome == PrefetchOutcome::kDroppedQueue)
            break;
        frontier = next;
        ++issued;
    }
    if (issued > 0 || have_frontier)
        entry.lastIssuedLine = frontier;
}

void
ReferenceT2::train(const AccessInfo &access, const Env &env)
{
    const Pc m_pc = _params.useCallSiteXor ? access.mPc : access.pc;
    const InstrState state = stateOf(m_pc);

    switch (state) {
      case InstrState::kUnknown:
        if (access.l1PrimaryMiss) {
            _states[m_pc] = InstrState::kObservation;
            Entry fresh;
            fresh.lastAddr = access.addr;
            _entries[m_pc] = fresh;
        }
        break;

      case InstrState::kObservation: {
        Entry &entry = _entries[m_pc];
        const std::int64_t delta =
            static_cast<std::int64_t>(access.addr) -
            static_cast<std::int64_t>(entry.lastAddr);
        if (delta != 0 && delta == entry.delta) {
            if (entry.sameDeltaCount < 255)
                ++entry.sameDeltaCount;
            entry.diffDeltaCount = 0;
            if (entry.sameDeltaCount >= confirmThreshold())
                _states[m_pc] = InstrState::kStrided;
        } else {
            entry.delta = delta;
            entry.sameDeltaCount = 0;
            if (++entry.diffDeltaCount >= _params.nonStrideThreshold) {
                _states[m_pc] = InstrState::kNonStrided;
                entry.lastAddr = access.addr;
                break;
            }
        }
        entry.lastAddr = access.addr;
        if (entry.sameDeltaCount >= _params.earlyThreshold)
            issueStream(entry, access, _params.defaultDistance, env);
        break;
      }

      case InstrState::kStrided: {
        Entry &entry = _entries[m_pc];
        const std::int64_t delta =
            static_cast<std::int64_t>(access.addr) -
            static_cast<std::int64_t>(entry.lastAddr);
        if (delta != 0 && delta == entry.delta) {
            entry.diffDeltaCount = 0;
            if (entry.sameDeltaCount < 255)
                ++entry.sameDeltaCount;
        } else if (++entry.diffDeltaCount >=
                   _params.nonStrideThreshold) {
            _states[m_pc] = InstrState::kObservation;
            entry.delta = delta;
            entry.sameDeltaCount = 0;
            entry.diffDeltaCount = 0;
            entry.lastIssuedLine = kNoAddr;
            entry.lastAddr = access.addr;
            break;
        }
        entry.lastAddr = access.addr;
        unsigned dist = _params.defaultDistance;
        if (env.ptrProducer && env.ptrProducer(m_pc))
            dist = std::min(2 * dist, _params.maxDistance);
        issueStream(entry, access, dist, env);
        break;
      }

      case InstrState::kNonStrided:
        break;
    }
}

} // namespace dol::check
