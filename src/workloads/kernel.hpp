/**
 * @file
 * Workload kernels: deterministic trace generators that stand in for
 * the paper's SPEC 2006 / CRONO / STARBENCH / NPB workloads
 * (DESIGN.md section 2 documents the substitution).
 *
 * A kernel builds its data structures in a MemoryImage at construction
 * and then emits a dynamic instruction stream: loads/stores with
 * stable PCs and meaningful register dependences, loop back-branches,
 * and calls/returns — everything T2's loop hardware, P1's taint unit,
 * and C1's region monitor observe in real hardware. Streams are pure
 * functions of the workload spec: two kernels built from one spec on
 * fresh MemoryImages emit identical streams. The baseline pass that
 * feeds the offline stratifier and every measured run of a workload
 * each build their own kernel and rely on that.
 *
 * ReplayKernel is the one kernel for recorded streams. DOLINS01 files
 * (trace_file.hpp), ChampSim traces (trace_ingest.hpp) and fuzz
 * records (check/fuzz_workload.hpp) are decoders that produce its
 * std::vector<Instr>; it rebuilds the heap from the stream itself.
 */

#ifndef DOL_WORKLOADS_KERNEL_HPP
#define DOL_WORKLOADS_KERNEL_HPP

#include <memory>
#include <string>
#include <vector>

#include "common/ring_buffer.hpp"
#include "cpu/instr.hpp"
#include "mem/memory_image.hpp"

namespace dol
{

class Kernel
{
  public:
    explicit Kernel(std::string name, MemoryImage &memory)
        : _name(std::move(name)), _memory(&memory)
    {}

    virtual ~Kernel() = default;

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /**
     * Produce the next retired instruction.
     * @return false when the kernel has (rarely) nothing more to run.
     */
    bool
    next(Instr &out)
    {
        while (_queue.empty()) {
            if (!generate())
                return false;
        }
        out = _queue.front();
        _queue.pop_front();
        return true;
    }

    /**
     * Drain up to @p max already-generated instructions into @p out
     * (the simulator's batched decode).
     *
     * Ordering contract: generate() runs only when the queue is
     * empty — exactly when a next() loop would have run it.
     * This matters because kernels mutate the MemoryImage *during*
     * generation (shuflist relinks nodes as it walks), and P1/PChase
     * read image values at fill time: generating ahead of execution
     * would change the values in flight and break trace goldens.
     * A composite kernel (PhasedKernel) keeps the contract by
     * forwarding its current phase's batch: its generate() calls
     * the sub-kernel's nextBatch() once, so the sub-kernel generates
     * only when both queues are empty.
     *
     * @return instructions written; 0 means the kernel is exhausted.
     */
    std::size_t
    nextBatch(Instr *out, std::size_t max)
    {
        while (_queue.empty()) {
            if (!generate())
                return 0;
        }
        return _queue.popBulk(out, max);
    }

    const std::string &name() const { return _name; }
    MemoryImage &memory() { return *_memory; }
    const MemoryImage &memory() const { return *_memory; }

  protected:
    /** Emit one unit of work (an iteration) into the queue. */
    virtual bool generate() = 0;

    void push(const Instr &instr) { _queue.push_back(instr); }

  private:
    std::string _name;
    MemoryImage *_memory;
    RingBuffer<Instr> _queue;
};

/**
 * A Kernel that replays a decoded instruction stream.
 *
 * The constructor rebuilds the heap: each address the stream touches
 * gets its first-touch value, the value of its first load or store in
 * stream order, so P1's and PChase's fill-time reads see what the
 * recorded loads returned before any later store.
 */
class ReplayKernel : public Kernel
{
  public:
    /**
     * @param loop replay from the start when the stream runs out
     *             (keeps instruction budgets independent of trace
     *             length); without it the kernel exhausts after one
     *             pass
     */
    ReplayKernel(MemoryImage &memory, std::string name,
                 std::vector<Instr> instrs, bool loop = true);

    std::size_t instrCount() const { return _instrs.size(); }

  protected:
    bool generate() override;

  private:
    std::vector<Instr> _instrs;
    std::size_t _position = 0;
    bool _loop;
};

} // namespace dol

#endif // DOL_WORKLOADS_KERNEL_HPP
