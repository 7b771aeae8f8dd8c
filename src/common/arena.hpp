/**
 * @file
 * Slab arena for fixed-size transient blocks (PR 9).
 *
 * The per-access hot loop after PR 4/6 holds almost all of its state
 * in flat tables and rings, but two allocation patterns survived:
 * the MemoryImage demand-allocates one 4 KB heap array per touched
 * page (thousands of mallocs per cell construction, re-paid every
 * bench rep), and the simulator's transient queues (fill events,
 * kernel instruction windows) grow geometrically from small seeds.
 *
 * SlabArena replaces the per-page churn: it hands out fixed-size,
 * zero-initialised blocks carved from larger slabs (one malloc per
 * `blocksPerSlab` allocations) and releases everything wholesale on
 * destruction. It is deliberately bump-only — the image
 * never frees individual pages, and a free list would buy nothing
 * but bookkeeping on this workload.
 */

#ifndef DOL_COMMON_ARENA_HPP
#define DOL_COMMON_ARENA_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dol
{

class SlabArena
{
  public:
    /**
     * @param block_bytes    size of each allocated block
     * @param blocks_per_slab blocks carved from one backing slab
     */
    explicit SlabArena(std::size_t block_bytes,
                       std::size_t blocks_per_slab = 64)
        : _blockBytes(block_bytes ? block_bytes : 1),
          _blocksPerSlab(blocks_per_slab ? blocks_per_slab : 1)
    {}

    SlabArena(const SlabArena &) = delete;
    SlabArena &operator=(const SlabArena &) = delete;

    /** A zero-initialised block; valid until destruction. */
    std::uint8_t *
    allocate()
    {
        if (_usedInSlab == _blocksPerSlab || _slabs.empty()) {
            // Value-initialisation zeroes the whole slab up front:
            // one memset per slab instead of one per block.
            _slabs.push_back(std::make_unique<std::uint8_t[]>(
                _blockBytes * _blocksPerSlab));
            _usedInSlab = 0;
        }
        return _slabs.back().get() + (_usedInSlab++) * _blockBytes;
    }

  private:
    std::size_t _blockBytes;
    std::size_t _blocksPerSlab;
    std::size_t _usedInSlab = 0;
    std::vector<std::unique_ptr<std::uint8_t[]>> _slabs;
};

} // namespace dol

#endif // DOL_COMMON_ARENA_HPP
