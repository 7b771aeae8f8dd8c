#include "workloads/irregular_kernels.hpp"

#include <algorithm>

namespace dol
{

namespace
{

constexpr Addr kArenaStride = 1ull << 32;

Addr
arenaBase(std::uint64_t seed, unsigned which)
{
    return ((seed % 64) + 129) * kArenaStride +
           static_cast<Addr>(which) * (1ull << 28);
}

} // namespace

// --- RegionKernel ---------------------------------------------------

RegionKernel::RegionKernel(MemoryImage &memory, const Params &params)
    : Kernel("region", memory), _params(params), _rng(params.seed),
      _base(arenaBase(params.seed, 0)),
      _pcBase(0x450000 + (params.seed % 97) * 0x1000)
{}

bool
RegionKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;

    const std::uint64_t region =
        _params.randomRegionOrder ? _rng.below(_params.regions)
                                  : _visit % _params.regions;
    const Addr region_base = _base + region * kRegionBytes;

    // Touch a scrambled subset of the region's lines through one
    // static load, with several accesses (and compute) per line.
    std::uint16_t touched = 0;
    for (unsigned i = 0; i < _params.linesPerVisit; ++i) {
        unsigned line = static_cast<unsigned>(
            _rng.below(kRegionLineCount));
        // Avoid double-touches so density is controlled precisely.
        while ((touched >> line) & 1)
            line = (line + 1) % kRegionLineCount;
        touched |= static_cast<std::uint16_t>(1u << line);

        for (unsigned l = 0; l < _params.loadsPerLine; ++l) {
            push(makeLoad(pc,
                          region_base + (static_cast<Addr>(line)
                                         << kLineBits) +
                              _rng.below(8) * 8,
                          0, 10, 1));
            for (unsigned a = 0; a < _params.aluPerLoad; ++a) {
                const auto acc = static_cast<RegId>(4 + a % 3);
                push(makeAlu(pc + 4, acc, acc, 10));
            }
            // Inner-loop branch: same backward branch per visit.
            push(makeBranch(pc + 8, loop_start, true, false));
        }
    }

    push(makeAlu(pc + 12, 1, 1));
    push(makeBranch(pc + 16, loop_start - 8, _visit % 2 == 0, false));

    ++_visit;
    return true;
}

// --- RandomKernel ----------------------------------------------------

RandomKernel::RandomKernel(MemoryImage &memory, const Params &params)
    : Kernel("random", memory), _params(params), _rng(params.seed),
      _base(arenaBase(params.seed, 1)),
      _pcBase(0x460000 + (params.seed % 97) * 0x1000)
{}

bool
RandomKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;

    for (unsigned l = 0; l < _params.loadsPerIter; ++l) {
        const Addr addr =
            _base + lineAddr(_rng.below(_params.footprintBytes));
        push(makeLoad(pc, addr, 0, static_cast<RegId>(10 + l), 1));
        pc += 4;
    }
    for (unsigned a = 0; a < _params.aluPerIter; ++a) {
        const auto acc = static_cast<RegId>(4 + a % 3);
        push(makeAlu(pc, acc, acc, 10));
        pc += 4;
    }
    push(makeAlu(pc, 1, 1));
    pc += 4;
    push(makeBranch(pc, loop_start, true, _rng.chance(0.002)));
    return true;
}

// --- BucketKernel ------------------------------------------------------

BucketKernel::BucketKernel(MemoryImage &memory, const Params &params)
    : Kernel("bucket", memory), _params(params), _rng(params.seed),
      _inputBase(arenaBase(params.seed, 2)),
      _bucketBase(arenaBase(params.seed, 3)),
      _pcBase(0x470000 + (params.seed % 97) * 0x1000)
{
    // The input array holds the bucket index each element maps to.
    Rng build_rng(params.seed * 31 + 5);
    const std::uint64_t elems = _params.inputBytes / 8;
    for (std::uint64_t i = 0; i < elems; ++i)
        memory.write64(_inputBase + i * 8,
                       build_rng.below(_params.buckets));
}

bool
BucketKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;
    const std::uint64_t elems = _params.inputBytes / 8;

    const Addr slot = _inputBase + (_pos % elems) * 8;
    const std::uint64_t bucket = memory().read64(slot);

    // Strided key load, then a random-indexed count update.
    push(makeLoad(pc, slot, bucket, 10, 1));
    pc += 4;
    push(makeAlu(pc, 11, 10)); // scale index
    pc += 4;
    const Addr bucket_addr = _bucketBase + bucket * 8;
    push(makeLoad(pc, bucket_addr, 0, 12, 11));
    pc += 4;
    push(makeAlu(pc, 12, 12));
    pc += 4;
    push(makeStore(pc, bucket_addr, 0, 12, 11));
    pc += 4;
    for (unsigned a = 0; a < _params.aluPerIter; ++a) {
        const auto acc = static_cast<RegId>(4 + a % 3);
        push(makeAlu(pc, acc, acc, 12));
        pc += 4;
    }
    push(makeBranch(pc, loop_start, true, false));

    ++_pos;
    return true;
}

// --- CsrGraphKernel ----------------------------------------------------

CsrGraphKernel::CsrGraphKernel(MemoryImage &memory, const Params &params)
    : Kernel("csr", memory), _params(params), _rng(params.seed),
      _rowBase(arenaBase(params.seed, 4)),
      _colBase(arenaBase(params.seed, 5)),
      _xBase(arenaBase(params.seed, 6)),
      _pcBase(0x480000 + (params.seed % 97) * 0x1000)
{
    // Build the CSR structure: random degrees, random neighbours.
    Rng build_rng(params.seed * 6151 + 3);
    _rowPtr.resize(_params.vertices + 1, 0);
    std::uint32_t edges = 0;
    for (std::uint64_t v = 0; v < _params.vertices; ++v) {
        _rowPtr[v] = edges;
        const unsigned degree = static_cast<unsigned>(
            build_rng.below(2 * _params.avgDegree + 1));
        edges += std::min(degree, _params.maxDegree);
    }
    _rowPtr[_params.vertices] = edges;
    for (std::uint32_t e = 0; e < edges; ++e) {
        memory.write64(_colBase + static_cast<Addr>(e) * 8,
                       build_rng.below(_params.vertices));
    }
    for (std::uint64_t v = 0; v <= _params.vertices; ++v)
        memory.write64(_rowBase + v * 8, _rowPtr[v]);
}

bool
CsrGraphKernel::generate()
{
    const Pc outer = _pcBase;
    const Pc inner = _pcBase + 0x40;
    Pc pc = outer;

    const std::uint64_t v = _vertex % _params.vertices;
    const std::uint32_t begin = _rowPtr[v];
    const std::uint32_t end = _rowPtr[v + 1];

    // Row-pointer loads (streams).
    push(makeLoad(pc, _rowBase + v * 8, begin, 10, 1));
    pc += 4;
    push(makeLoad(pc, _rowBase + (v + 1) * 8, end, 11, 1));
    pc += 4;

    for (std::uint32_t e = begin; e < end; ++e) {
        Pc ipc = inner;
        const Addr col_addr = _colBase + static_cast<Addr>(e) * 8;
        const std::uint64_t col = memory().read64(col_addr);
        // Column stream.
        push(makeLoad(ipc, col_addr, col, 12, 10));
        ipc += 4;
        // Indirect gather x[col[e]] (irregular).
        push(makeAlu(ipc, 13, 12));
        ipc += 4;
        push(makeLoad(ipc, _xBase + col * 8, 0, 14, 13));
        ipc += 4;
        for (unsigned a = 0; a < _params.aluPerEdge; ++a) {
            const auto acc = static_cast<RegId>(4 + a % 3);
            push(makeAlu(ipc, acc, acc, 14));
            ipc += 4;
        }
        // Inner loop branch (taken while edges remain).
        push(makeBranch(ipc, inner, e + 1 < end, false));
    }

    push(makeAlu(pc, 1, 1));
    pc += 4;
    push(makeBranch(pc, outer, true, false));

    ++_vertex;
    return true;
}

} // namespace dol
