#include "workloads/mixed_kernels.hpp"

#include "common/log.hpp"

namespace dol
{

AluKernel::AluKernel(MemoryImage &memory, const Params &params)
    : Kernel("alu", memory), _params(params), _rng(params.seed),
      _base((((params.seed % 64) + 193) << 32)),
      _pcBase(0x490000 + (params.seed % 97) * 0x1000)
{}

bool
AluKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;

    // One hot load (cache-resident working set) and lots of compute.
    const Addr addr =
        _base + lineAddr(_rng.below(_params.workingSetBytes));
    push(makeLoad(pc, addr, 0, 10, 1));
    pc += 4;
    for (unsigned a = 0; a < _params.aluPerIter; ++a) {
        push(makeAlu(pc, static_cast<RegId>(4 + a % 4),
                     static_cast<RegId>(4 + (a + 1) % 4), 10,
                     static_cast<std::uint8_t>(_params.aluLatency)));
        pc += 4;
    }
    push(makeAlu(pc, 1, 1));
    pc += 4;
    push(makeBranch(pc, loop_start, true, _rng.chance(0.003)));
    return true;
}

bool
PhasedKernel::generate()
{
    if (_phases.empty())
        panic("PhasedKernel without phases");

    // Skip exhausted phases (rare: most kernels are infinite).
    for (std::size_t tries = 0; tries <= _phases.size(); ++tries) {
        const std::uint64_t left = _phaseLengths[_current] - _phaseCount;
        const std::size_t got = _phases[_current]->nextBatch(
            _handOver.data(),
            static_cast<std::size_t>(std::min<std::uint64_t>(
                left, _handOver.size())));
        if (got != 0) {
            for (std::size_t i = 0; i < got; ++i)
                push(_handOver[i]);
            _phaseCount += got;
            if (_phaseCount == _phaseLengths[_current]) {
                _phaseCount = 0;
                _current = (_current + 1) % _phases.size();
            }
            return true;
        }
        _current = (_current + 1) % _phases.size();
        _phaseCount = 0;
    }
    return false;
}

} // namespace dol
