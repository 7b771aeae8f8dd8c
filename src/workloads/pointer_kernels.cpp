#include "workloads/pointer_kernels.hpp"

#include <numeric>

namespace dol
{

namespace
{

constexpr Addr kArenaStride = 1ull << 32;

Addr
arenaBase(std::uint64_t seed, unsigned which)
{
    return ((seed % 64) + 65) * kArenaStride +
           static_cast<Addr>(which) * (1ull << 28);
}

/** Seeded Fisher-Yates permutation of 0..n-1. */
std::vector<std::uint64_t>
permutation(std::uint64_t n, Rng &rng)
{
    std::vector<std::uint64_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    for (std::uint64_t i = n; i > 1; --i)
        std::swap(perm[i - 1], perm[rng.below(i)]);
    return perm;
}

} // namespace

// --- PointerArrayKernel ---------------------------------------------

PointerArrayKernel::PointerArrayKernel(MemoryImage &memory,
                                       const Params &params)
    : Kernel("ptrarray", memory), _params(params), _rng(params.seed),
      _arrayBase(arenaBase(params.seed, 0)),
      _heapBase(arenaBase(params.seed, 1)),
      _pcBase(0x430000 + (params.seed % 97) * 0x1000)
{
    // Populate the pointer array: arr[i] -> a scattered heap object.
    Rng build_rng(params.seed * 7919 + 13);
    auto perm = permutation(_params.entries, build_rng);
    for (std::uint64_t i = 0; i < _params.entries; ++i) {
        const Addr object =
            _heapBase + perm[i] * _params.objectBytes;
        memory.write64(_arrayBase + i * 8, object);
    }
}

bool
PointerArrayKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;

    const Addr slot = _arrayBase + (_pos % _params.entries) * 8;
    const std::uint64_t object = memory().read64(slot);

    // Producer: the strided pointer load (r10 <- arr[i]).
    push(makeLoad(pc, slot, object, 10, 1));
    pc += 4;
    // Address computation: r11 = r10 + fieldOffset (taints r11).
    push(makeAlu(pc, 11, 10));
    pc += 4;
    // Dependent: obj->field.
    push(makeLoad(pc, object + _params.fieldOffset, 0, 12, 11));
    pc += 4;
    for (unsigned f = 0; f < _params.extraFields; ++f) {
        push(makeLoad(pc, object + _params.fieldOffset + 8 * (f + 1),
                      0, static_cast<RegId>(13 + f), 11));
        pc += 4;
    }

    for (unsigned a = 0; a < _params.aluPerIter; ++a) {
        const auto acc = static_cast<RegId>(4 + a % 3);
        push(makeAlu(pc, acc, acc, 12));
        pc += 4;
    }

    push(makeAlu(pc, 1, 1));
    pc += 4;
    push(makeBranch(pc, loop_start, true, _rng.chance(0.0005)));

    ++_pos;
    return true;
}

// --- ListChaseKernel -------------------------------------------------

ListChaseKernel::ListChaseKernel(MemoryImage &memory,
                                 const Params &params)
    : Kernel("listchase", memory), _params(params),
      _poolBase(arenaBase(params.seed, 2)),
      _pcBase(0x440000 + (params.seed % 97) * 0x1000)
{
    // Build a circular singly linked list over a seeded permutation of
    // the node pool, so consecutive nodes are not spatially related.
    Rng build_rng(params.seed * 104729 + 7);
    auto perm = permutation(_params.nodes, build_rng);
    for (std::uint64_t i = 0; i < _params.nodes; ++i) {
        const Addr node = _poolBase + perm[i] * _params.nodeBytes;
        const Addr next =
            _poolBase + perm[(i + 1) % _params.nodes] * _params.nodeBytes;
        memory.write64(node + _params.nextOffset, next);
    }
    _head = _poolBase + perm[0] * _params.nodeBytes;
    _current = _head;
}

bool
ListChaseKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;

    const Addr link_addr = _current + _params.nextOffset;
    const std::uint64_t next = memory().read64(link_addr);

    // p = p->next: the chain load. Its address depends on its own
    // previous value through r10.
    push(makeLoad(pc, link_addr, next, 10, 10));
    pc += 4;

    for (unsigned f = 0; f < _params.payloadLoads; ++f) {
        // Payload loads in the same node (dependent on r10).
        push(makeLoad(pc, _current + 8 * (f + 1), 0,
                      static_cast<RegId>(12 + f), 10));
        pc += 4;
    }

    for (unsigned a = 0; a < _params.aluPerIter; ++a) {
        const auto acc = static_cast<RegId>(4 + a % 3);
        push(makeAlu(pc, acc, acc, 12));
        pc += 4;
    }

    push(makeBranch(pc, loop_start, true, false));

    _current = next;
    return true;
}

} // namespace dol
