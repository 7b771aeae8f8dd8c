/**
 * @file
 * Growable power-of-two ring buffer (FIFO).
 *
 * Replaces `std::deque` on the simulator's fill and instruction
 * queues: both are drained in order and stay small, which a deque
 * punishes with 512-byte chunk allocations and per-push map
 * bookkeeping. The ring grows geometrically on the rare overflow and
 * never allocates otherwise. The DRAM controller's channel queues,
 * also drained in order, index it and erase from its middle when
 * they drop a queued prefetch.
 */

#ifndef DOL_COMMON_RING_BUFFER_HPP
#define DOL_COMMON_RING_BUFFER_HPP

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <type_traits>
#include <vector>

namespace dol
{

template <typename T>
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t initial_capacity = 16)
        : _slots(std::bit_ceil(initial_capacity))
    {}

    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }

    T &front()
    {
        assert(_count > 0);
        return _slots[_head];
    }

    const T &front() const
    {
        assert(_count > 0);
        return _slots[_head];
    }

    void
    push_back(const T &value)
    {
        if (_count == _slots.size())
            grow();
        _slots[(_head + _count) & (_slots.size() - 1)] = value;
        ++_count;
    }

    void
    pop_front()
    {
        assert(_count > 0);
        _slots[_head] = T{};
        _head = (_head + 1) & (_slots.size() - 1);
        --_count;
    }

    /** Element @p index in FIFO order (0 = front). */
    T &operator[](std::size_t index)
    {
        assert(index < _count);
        return _slots[(_head + index) & (_slots.size() - 1)];
    }

    const T &operator[](std::size_t index) const
    {
        assert(index < _count);
        return _slots[(_head + index) & (_slots.size() - 1)];
    }

    /** Remove element @p index, keeping the others in order. */
    void
    erase(std::size_t index)
    {
        assert(index < _count);
        for (; index + 1 < _count; ++index)
            (*this)[index] = std::move((*this)[index + 1]);
        (*this)[index] = T{};
        --_count;
    }

    /**
     * Pop up to @p max elements into @p out in FIFO order.
     *
     * Bulk drain for the batched step pipeline: two copy_n
     * spans (head to end of the backing array, then the wrap) replace
     * per-element front()/pop_front() round trips.
     *
     * @return elements copied (min(max, size())).
     */
    std::size_t
    popBulk(T *out, std::size_t max)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "popBulk skips per-slot destruction");
        const std::size_t want = std::min(max, _count);
        const std::size_t mask = _slots.size() - 1;
        const std::size_t first =
            std::min(want, _slots.size() - _head);
        std::copy_n(_slots.data() + _head, first, out);
        std::copy_n(_slots.data(), want - first, out + first);
        _head = (_head + want) & mask;
        _count -= want;
        if (_count == 0)
            _head = 0;
        return want;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(_slots.size() * 2);
        for (std::size_t i = 0; i < _count; ++i)
            bigger[i] = std::move(_slots[(_head + i) &
                                         (_slots.size() - 1)]);
        _slots = std::move(bigger);
        _head = 0;
    }

    std::vector<T> _slots;
    std::size_t _head = 0;
    std::size_t _count = 0;
};

} // namespace dol

#endif // DOL_COMMON_RING_BUFFER_HPP
