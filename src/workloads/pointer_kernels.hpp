/**
 * @file
 * Pointer-pattern kernels: the two access shapes P1 targets (paper
 * Figure 5) — arrays of pointers and linked-list chains — built as
 * real data structures in the memory image so loads return coherent
 * pointer values.
 */

#ifndef DOL_WORKLOADS_POINTER_KERNELS_HPP
#define DOL_WORKLOADS_POINTER_KERNELS_HPP

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "workloads/kernel.hpp"

namespace dol
{

/**
 * for (i...) { obj = arr[i]; use(obj->field); }  — the paper's
 * Figure 5-a. The pointer array is strided (T2 covers it); the object
 * bodies are scattered across the heap (only P1 covers them).
 */
class PointerArrayKernel : public Kernel
{
  public:
    struct Params
    {
        std::uint64_t entries = 1u << 16;
        std::uint64_t objectBytes = 256;
        std::uint64_t fieldOffset = 16;
        unsigned aluPerIter = 8;
        /** Extra dependent field loads per object. */
        unsigned extraFields = 1;
        std::uint64_t seed = 1;
    };

    PointerArrayKernel(MemoryImage &memory, const Params &params);

  protected:
    bool generate() override;

  private:
    Params _params;
    Rng _rng;
    Addr _arrayBase;
    Addr _heapBase;
    std::uint64_t _pos = 0;
    Pc _pcBase;
};

/**
 * while (p) p = p->next;  — the paper's Figure 5-b. Node placement
 * is a seeded permutation, so only value-chasing (not any address
 * pattern) predicts the traversal.
 */
class ListChaseKernel : public Kernel
{
  public:
    struct Params
    {
        std::uint64_t nodes = 1u << 15;
        std::uint64_t nodeBytes = 128;
        std::uint64_t nextOffset = 0; ///< link field offset in node
        unsigned aluPerIter = 6;
        /** Payload loads per node (dependent, same line). */
        unsigned payloadLoads = 1;
        std::uint64_t seed = 1;
    };

    ListChaseKernel(MemoryImage &memory, const Params &params);

    Addr headNode() const { return _head; }

  protected:
    bool generate() override;

  private:
    Params _params;
    Addr _poolBase;
    Addr _head;
    Addr _current;
    Pc _pcBase;
};

} // namespace dol

#endif // DOL_WORKLOADS_POINTER_KERNELS_HPP
