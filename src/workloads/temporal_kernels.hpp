/**
 * @file
 * Temporal-correlation kernels: access sequences whose only
 * exploitable structure is *recurrence* — the same irregular order
 * seen before — rather than strides, regions, or pointer values.
 * They are the workloads a Markov/temporal prefetcher (Triangel) wins
 * on and every address-pattern prefetcher loses on:
 *
 *  - TemporalStreamKernel: a fixed seeded-random line sequence
 *    traversed repeatedly (repeated traversal orders);
 *  - ShuffledListKernel: a linked list re-traversed many times, with
 *    a small fraction of links reshuffled between traversals (stable
 *    temporal pairs plus controlled churn, and a value chain for the
 *    pointer-chase engine);
 *  - HistoryKernel: a second-order recurrence over an index table, so
 *    the next address depends on the *history* of visited indices.
 */

#ifndef DOL_WORKLOADS_TEMPORAL_KERNELS_HPP
#define DOL_WORKLOADS_TEMPORAL_KERNELS_HPP

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "workloads/kernel.hpp"

namespace dol
{

/**
 * for (;;) for (i...) use(data[seq[i]]);  — the sequence is a seeded
 * random scatter, so only the repetition of the order itself is
 * predictable. Several independent streams (distinct PCs, distinct
 * arenas, distinct orders) run interleaved, so the coordinator's
 * round-robin binding spreads them across the extra components.
 */
class TemporalStreamKernel : public Kernel
{
  public:
    struct Params
    {
        unsigned streams = 3;
        std::uint64_t elements = 1u << 11; ///< per stream
        std::uint64_t elementBytes = 256;
        unsigned aluPerIter = 4;
        std::uint64_t seed = 1;
    };

    TemporalStreamKernel(MemoryImage &memory, const Params &params);

    /** Address of @p stream's sequence position @p index (test hook). */
    Addr elementAddr(unsigned stream, std::uint64_t index) const;

  protected:
    bool generate() override;

  private:
    Params _params;
    Rng _rng;
    Addr _dataBase;
    std::vector<std::vector<std::uint64_t>> _orders; ///< per stream
    std::uint64_t _pos = 0;
    Pc _pcBase;
};

/**
 * while (p) p = p->next;  — re-traversed many times; every few
 * traversals a handful of links are swapped, so temporal metadata is
 * mostly reusable but must tolerate churn. Link loads form a value
 * chain (addr == previous value), feeding the pointer-chase engine.
 * Several independent chains (distinct PCs, pools, permutations)
 * advance in lockstep so the coordinator spreads them across extras.
 */
class ShuffledListKernel : public Kernel
{
  public:
    struct Params
    {
        unsigned chains = 3;
        std::uint64_t nodes = 1u << 11; ///< per chain
        std::uint64_t nodeBytes = 128;
        /** Full traversals between reshuffles. */
        unsigned traversalsPerShuffle = 4;
        /** Order positions swapped per reshuffle (per chain). */
        unsigned swapsPerShuffle = 64;
        unsigned aluPerIter = 4;
        unsigned payloadLoads = 1;
        std::uint64_t seed = 1;
    };

    ShuffledListKernel(MemoryImage &memory, const Params &params);

    Addr headNode(unsigned chain = 0) const { return _heads[chain]; }
    std::uint64_t traversalCount() const { return _traversals; }

  protected:
    bool generate() override;

  private:
    void relink(unsigned chain);
    void shuffle();

    Params _params;
    Rng _shuffleRng;
    Addr _poolBase;
    std::vector<Addr> _heads;
    std::vector<Addr> _currents;
    std::vector<std::vector<std::uint64_t>> _orders;
    std::uint64_t _steps = 0;
    std::uint64_t _traversals = 0;
    Pc _pcBase;
};

/**
 * idx = table[(31*idx + 17*prev + 7) % N]  — the visited-address
 * sequence is a pure function of the last two indices, settling into
 * a long cycle whose pairs recur exactly; nothing about the addresses
 * themselves predicts the successor.
 */
class HistoryKernel : public Kernel
{
  public:
    struct Params
    {
        std::uint64_t elements = 1u << 11;
        std::uint64_t elementBytes = 256;
        unsigned aluPerIter = 6;
        std::uint64_t seed = 1;
    };

    HistoryKernel(MemoryImage &memory, const Params &params);

  protected:
    bool generate() override;

  private:
    Params _params;
    Addr _tableBase;
    Addr _dataBase;
    std::uint64_t _index;
    std::uint64_t _prevIndex;
    Pc _pcBase;
};

} // namespace dol

#endif // DOL_WORKLOADS_TEMPORAL_KERNELS_HPP
