#include "workloads/stream_kernels.hpp"

#include <cstdlib>

namespace dol
{

namespace
{
/** Disjoint virtual-address arenas for kernel data structures. */
constexpr Addr kArenaStride = 1ull << 32;

Addr
arenaBase(std::uint64_t seed, unsigned which)
{
    // Seed-dependent arena placement keeps workloads from aliasing in
    // the caches across kernels of a phased mix.
    return ((seed % 64) + 1) * kArenaStride +
           static_cast<Addr>(which) * (1ull << 28);
}

} // namespace

// --- StreamKernel --------------------------------------------------

StreamKernel::StreamKernel(MemoryImage &memory, const Params &params)
    : Kernel("stream", memory), _params(params), _rng(params.seed),
      _pcBase(0x400000 + (params.seed % 97) * 0x1000)
{
    _elems = _params.footprintBytes /
             static_cast<std::uint64_t>(std::llabs(_params.strideBytes));
    if (_elems == 0)
        _elems = 1;
    for (unsigned s = 0; s < _params.streams; ++s)
        _bases.push_back(arenaBase(params.seed, s));
    _storeBase = arenaBase(params.seed, _params.streams);
}

bool
StreamKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;

    for (unsigned u = 0; u < _params.unroll; ++u) {
        const std::uint64_t index = (_pos + u) % _elems;
        const std::int64_t offset =
            static_cast<std::int64_t>(index) * _params.strideBytes;
        for (unsigned s = 0; s < _params.streams; ++s) {
            const Addr addr = static_cast<Addr>(
                static_cast<std::int64_t>(_bases[s]) + offset);
            push(makeLoad(pc, addr, 0,
                          static_cast<RegId>(10 + s), /*base=*/1));
            pc += 4;
        }
        if (_params.storeStream) {
            const Addr addr = static_cast<Addr>(
                static_cast<std::int64_t>(_storeBase) + offset);
            push(makeStore(pc, addr, 0, /*data=*/10, /*base=*/1));
            pc += 4;
        }
    }

    for (unsigned a = 0; a < _params.aluPerIter; ++a) {
        // Three parallel accumulator chains: compute does not choke
        // the core's ILP, so memory latency is the bottleneck.
        const auto acc = static_cast<RegId>(4 + a % 3);
        push(makeAlu(pc, acc, acc,
                     static_cast<RegId>(10 + a % _params.streams)));
        pc += 4;
    }

    // Induction update and loop branch.
    push(makeAlu(pc, /*dst=*/1, /*s1=*/1));
    pc += 4;
    push(makeBranch(pc, loop_start, true,
                    _rng.chance(_params.mispredictRate)));

    _pos = (_pos + _params.unroll) % _elems;
    return true;
}

// --- StencilKernel -------------------------------------------------

StencilKernel::StencilKernel(MemoryImage &memory, const Params &params)
    : Kernel("stencil", memory), _params(params),
      _srcBase(arenaBase(params.seed, 0)),
      _dstBase(arenaBase(params.seed, 1)),
      _pcBase(0x410000 + (params.seed % 97) * 0x1000)
{}

bool
StencilKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;
    const std::uint64_t row_bytes = _params.cols * 8ull;

    const Addr center =
        _srcBase + _row * row_bytes + _col * 8ull;

    // North, south, west, east loads: four distinct static loads, each
    // a canonical 8-byte stride stream as the column advances.
    push(makeLoad(pc, center - row_bytes, 0, 10, 1)); pc += 4;
    push(makeLoad(pc, center + row_bytes, 0, 11, 1)); pc += 4;
    push(makeLoad(pc, center - 8, 0, 12, 1)); pc += 4;
    push(makeLoad(pc, center + 8, 0, 13, 1)); pc += 4;

    for (unsigned a = 0; a < _params.aluPerIter; ++a) {
        push(makeAlu(pc, 4, 4, static_cast<RegId>(10 + a % 4),
                     a % 2 ? 3 : 1));
        pc += 4;
    }

    push(makeStore(pc, _dstBase + _row * row_bytes + _col * 8ull, 0,
                   4, 1));
    pc += 4;

    // Column loop branch; a row transition adds the outer branch.
    ++_col;
    const bool row_done = _col >= _params.cols - 1;
    push(makeBranch(pc, loop_start, !row_done, row_done));
    pc += 4;
    if (row_done) {
        _col = 1;
        ++_row;
        if (_row >= _params.rows - 1)
            _row = 1;
        push(makeAlu(pc, 1, 1));
        pc += 4;
        push(makeBranch(pc, loop_start - 8, true, false));
    }
    return true;
}

// --- CallStreamKernel ----------------------------------------------

CallStreamKernel::CallStreamKernel(MemoryImage &memory,
                                   const Params &params)
    : Kernel("callstream", memory), _params(params),
      _baseA(arenaBase(params.seed, 0)),
      _baseB(arenaBase(params.seed, 1)),
      _pcBase(0x420000 + (params.seed % 97) * 0x1000)
{}

bool
CallStreamKernel::generate()
{
    const Pc loop_start = _pcBase;
    const Pc site_a = _pcBase + 0x10;
    const Pc site_b = _pcBase + 0x30;
    const Pc helper = _pcBase + 0x100;

    const std::uint64_t elems_a =
        _params.footprintBytes /
        static_cast<std::uint64_t>(_params.strideA);
    const std::uint64_t elems_b =
        _params.footprintBytes /
        static_cast<std::uint64_t>(_params.strideB);

    // Call site A: helper walks stream A.
    push(makeCall(site_a, helper));
    push(makeLoad(helper,
                  static_cast<Addr>(
                      static_cast<std::int64_t>(_baseA) +
                      static_cast<std::int64_t>(_pos % elems_a) *
                          _params.strideA),
                  0, 10, 1));
    push(makeAlu(helper + 4, 11, 10));
    push(makeReturn(helper + 8, site_a + 4));

    // Call site B: the same helper load walks stream B.
    push(makeCall(site_b, helper));
    push(makeLoad(helper,
                  static_cast<Addr>(
                      static_cast<std::int64_t>(_baseB) +
                      static_cast<std::int64_t>(_pos % elems_b) *
                          _params.strideB),
                  0, 10, 1));
    push(makeAlu(helper + 4, 12, 10));
    push(makeReturn(helper + 8, site_b + 4));

    push(makeAlu(loop_start + 0x50, 1, 1));
    push(makeBranch(loop_start + 0x54, loop_start, true, false));

    ++_pos;
    return true;
}

} // namespace dol
