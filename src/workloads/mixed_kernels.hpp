/**
 * @file
 * Composition kernels: a compute-bound filler and a phase multiplexer
 * that interleaves sub-kernels to imitate applications whose behaviour
 * mixes several access patterns (mcf = pointers + streams, gcc =
 * irregular + dense regions, ...).
 */

#ifndef DOL_WORKLOADS_MIXED_KERNELS_HPP
#define DOL_WORKLOADS_MIXED_KERNELS_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "workloads/kernel.hpp"

namespace dol
{

/**
 * Cache-resident compute loop: a small working set with heavy ALU
 * activity (perlbench / gamess / sjeng stand-in; low MPKI).
 */
class AluKernel : public Kernel
{
  public:
    struct Params
    {
        std::uint64_t workingSetBytes = 32 * 1024;
        unsigned aluPerIter = 12;
        unsigned aluLatency = 2;
        std::uint64_t seed = 1;
    };

    AluKernel(MemoryImage &memory, const Params &params);

  protected:
    bool generate() override;

  private:
    Params _params;
    Rng _rng;
    Addr _base;
    Pc _pcBase;
};

/**
 * Runs its sub-kernels in round-robin phases of a fixed instruction
 * count each.
 *
 * Each generate() hands over, in one piece, what the current phase's
 * kernel has already generated, up to the phase boundary, through
 * one call to that kernel's nextBatch(), which keeps the ordering
 * contract (Kernel::nextBatch): the sub-kernel's image writes land at
 * the instruction a one-at-a-time multiplexer would put them.
 */
class PhasedKernel : public Kernel
{
  public:
    PhasedKernel(std::string name, MemoryImage &memory,
                 std::uint64_t instrs_per_phase = 20000)
        : Kernel(std::move(name), memory),
          _instrsPerPhase(instrs_per_phase)
    {}

    /**
     * @param instrs phase length; 0 uses the kernel-wide default.
     */
    void
    addPhase(std::unique_ptr<Kernel> kernel, std::uint64_t instrs = 0)
    {
        _phases.push_back(std::move(kernel));
        // A phase runs at least one instruction: a zero length would
        // ask nextBatch() for none, which reads as an exhausted kernel.
        _phaseLengths.push_back(
            std::max<std::uint64_t>(1, instrs ? instrs : _instrsPerPhase));
    }

  protected:
    bool generate() override;

  private:
    /** Most instructions one generate() hands over. */
    static constexpr std::size_t kHandOver = 256;

    std::uint64_t _instrsPerPhase;
    std::vector<std::unique_ptr<Kernel>> _phases;
    std::vector<std::uint64_t> _phaseLengths;
    std::size_t _current = 0;
    std::uint64_t _phaseCount = 0;
    std::vector<Instr> _handOver = std::vector<Instr>(kHandOver);
};

} // namespace dol

#endif // DOL_WORKLOADS_MIXED_KERNELS_HPP
