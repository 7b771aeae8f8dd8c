#include "workloads/temporal_kernels.hpp"

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

// --- TemporalStreamKernel --------------------------------------------

TemporalStreamKernel::TemporalStreamKernel(MemoryImage &memory,
                                           const Params &params)
    : Kernel("tempstream", memory), _params(params), _rng(params.seed),
      _dataBase(arenaBase(params.seed, 7)),
      _pcBase(0x4a0000 + (params.seed % 97) * 0x1000)
{
    Rng build_rng(params.seed * 6151 + 3);
    for (unsigned s = 0; s < _params.streams; ++s) {
        _orders.push_back(permutation(_params.elements, build_rng));
        // Payload values: unrelated to any address, so value-chasing
        // prefetchers find nothing to follow.
        for (std::uint64_t i = 0; i < _params.elements; ++i)
            memory.write64(elementAddr(s, i), i * 2654435761ull + s);
    }
}

Addr
TemporalStreamKernel::elementAddr(unsigned stream,
                                  std::uint64_t index) const
{
    return _dataBase + stream * (1ull << 26) +
           _orders[stream][index % _params.elements] *
               _params.elementBytes;
}

bool
TemporalStreamKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;

    // One element from every stream per iteration: the streams stay
    // interleaved in program order, each behind its own load PC.
    for (unsigned s = 0; s < _params.streams; ++s) {
        const Addr element = elementAddr(s, _pos);
        const std::uint64_t value = memory().read64(element);

        // The temporally correlated load: scattered address, stable PC.
        push(makeLoad(pc, element, value, 10, 2));
        pc += 4;
        // A second field on the same element (spatially trivial).
        push(makeLoad(pc, element + 8, 0, 12, 10));
        pc += 4;

        for (unsigned a = 0; a < _params.aluPerIter; ++a) {
            const auto acc = static_cast<RegId>(4 + a % 3);
            push(makeAlu(pc, acc, acc, 12));
            pc += 4;
        }
    }

    push(makeAlu(pc, 2, 2));
    pc += 4;
    push(makeBranch(pc, loop_start, true, _rng.chance(0.0005)));

    ++_pos;
    return true;
}

// --- ShuffledListKernel ----------------------------------------------

ShuffledListKernel::ShuffledListKernel(MemoryImage &memory,
                                       const Params &params)
    : Kernel("shuflist", memory), _params(params),
      _shuffleRng(params.seed * 31 + 5),
      _poolBase(arenaBase(params.seed, 8)),
      _pcBase(0x4b0000 + (params.seed % 97) * 0x1000)
{
    Rng build_rng(params.seed * 104729 + 11);
    for (unsigned c = 0; c < _params.chains; ++c) {
        _orders.push_back(permutation(_params.nodes, build_rng));
        relink(c);
        _heads.push_back(_poolBase + c * (1ull << 26) +
                         _orders[c][0] * _params.nodeBytes);
        _currents.push_back(_heads.back());
    }
}

void
ShuffledListKernel::relink(unsigned chain)
{
    // Rewrite the chain's full cycle: node(order[i]) -> node(order[i+1]).
    const Addr base = _poolBase + chain * (1ull << 26);
    const auto &order = _orders[chain];
    for (std::uint64_t i = 0; i < _params.nodes; ++i) {
        const Addr node = base + order[i] * _params.nodeBytes;
        const Addr next =
            base + order[(i + 1) % _params.nodes] * _params.nodeBytes;
        memory().write64(node, next);
    }
}

void
ShuffledListKernel::shuffle()
{
    // Swap a few positions (never the head) in every chain, keeping
    // each a single cycle through all of its nodes.
    for (unsigned c = 0; c < _params.chains; ++c) {
        for (unsigned s = 0; s < _params.swapsPerShuffle; ++s) {
            const std::uint64_t a =
                _shuffleRng.range(1, _params.nodes - 1);
            const std::uint64_t b =
                _shuffleRng.range(1, _params.nodes - 1);
            std::swap(_orders[c][a], _orders[c][b]);
        }
        relink(c);
    }
}

bool
ShuffledListKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;

    // Advance every chain by one hop per iteration (lockstep). Each
    // chain owns a register, so its loads stay self-referencing.
    for (unsigned c = 0; c < _params.chains; ++c) {
        const auto link_reg = static_cast<RegId>(10 + c);
        const Addr current = _currents[c];
        const std::uint64_t next = memory().read64(current);

        // p = p->next: address == previous returned value (link at
        // offset 0), the self-referencing chain signature.
        push(makeLoad(pc, current, next, link_reg, link_reg));
        pc += 4;

        for (unsigned f = 0; f < _params.payloadLoads; ++f) {
            push(makeLoad(pc, current + 8 * (f + 1), 0,
                          static_cast<RegId>(20 + 4 * c + f),
                          link_reg));
            pc += 4;
        }

        for (unsigned a = 0; a < _params.aluPerIter; ++a) {
            const auto acc = static_cast<RegId>(4 + a % 3);
            push(makeAlu(pc, acc, acc, link_reg));
            pc += 4;
        }

        _currents[c] = next;
    }

    push(makeBranch(pc, loop_start, true, false));

    ++_steps;
    if (_steps % _params.nodes == 0) {
        // Back at every head: a traversal completed.
        ++_traversals;
        if (_traversals % _params.traversalsPerShuffle == 0)
            shuffle();
    }
    return true;
}

// --- HistoryKernel ---------------------------------------------------

HistoryKernel::HistoryKernel(MemoryImage &memory, const Params &params)
    : Kernel("histwalk", memory), _params(params),
      _tableBase(arenaBase(params.seed, 9)),
      _dataBase(arenaBase(params.seed, 10)),
      _index(params.seed % params.elements),
      _prevIndex((params.seed / 3) % params.elements),
      _pcBase(0x4c0000 + (params.seed % 97) * 0x1000)
{
    Rng build_rng(params.seed * 2087 + 19);
    const auto perm = permutation(_params.elements, build_rng);
    for (std::uint64_t i = 0; i < _params.elements; ++i)
        memory.write64(_tableBase + i * 8, perm[i]);
}

bool
HistoryKernel::generate()
{
    const Pc loop_start = _pcBase;
    Pc pc = loop_start;

    const std::uint64_t slot =
        (31 * _index + 17 * _prevIndex + 7) % _params.elements;
    const std::uint64_t next = memory().read64(_tableBase + slot * 8);

    // The index lookup: irregular table slot, stable PC.
    push(makeLoad(pc, _tableBase + slot * 8, next, 10, 4));
    pc += 4;
    // The data access driven by the current index.
    push(makeLoad(pc, _dataBase + _index * _params.elementBytes, 0, 12,
                  10));
    pc += 4;

    for (unsigned a = 0; a < _params.aluPerIter; ++a) {
        const auto acc = static_cast<RegId>(4 + a % 3);
        push(makeAlu(pc, acc, acc, 12));
        pc += 4;
    }

    push(makeAlu(pc, 4, 4, 10));
    pc += 4;
    push(makeBranch(pc, loop_start, true, false));

    _prevIndex = _index;
    _index = next;
    return true;
}

} // namespace dol
