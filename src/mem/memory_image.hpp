/**
 * @file
 * Sparse byte-addressable memory image.
 *
 * Workload generators write pointer values into it so that the data
 * structures they traverse are coherent; the P1 component reads it to
 * model the value a returning prefetch delivers to its chasing FSM
 * (paper section IV-B: "the value from the previous prefetch will be
 * stored [and] the next prefetch will be issued").
 *
 * Pages live in a flat open-addressed table keyed by page number and
 * point into a slab arena (64 pages per backing allocation, PR 9) —
 * building a pointer-chase image used to cost one malloc per touched
 * 4 KB page, re-paid on every bench repetition. The aligned fast path
 * resolves a 64-bit read or write with one table probe and one
 * memcpy, and a write to the page last written needs no probe at
 * all; only accesses straddling a page boundary fall back to the byte
 * loop.
 */

#ifndef DOL_MEM_MEMORY_IMAGE_HPP
#define DOL_MEM_MEMORY_IMAGE_HPP

#include <cstdint>
#include <cstring>

#include "common/arena.hpp"
#include "common/flat_table.hpp"
#include "common/types.hpp"

namespace dol
{

/** Read-only view of simulated memory contents. */
class ValueSource
{
  public:
    virtual ~ValueSource() = default;
    /** 64-bit little-endian read; unwritten memory reads as zero. */
    virtual std::uint64_t read64(Addr addr) const = 0;
};

class MemoryImage : public ValueSource
{
  public:
    std::uint64_t
    read64(Addr addr) const override
    {
        const std::size_t offset = addr & (kPageBytes - 1);
        if (offset <= kPageBytes - 8) {
            const Page *page = _pages.find(addr >> kPageBits);
            if (!page)
                return 0;
            std::uint64_t value;
            std::memcpy(&value, *page + offset, 8);
            return value;
        }
        std::uint64_t value = 0;
        auto *bytes = reinterpret_cast<std::uint8_t *>(&value);
        for (unsigned i = 0; i < 8; ++i)
            bytes[i] = readByte(addr + i);
        return value;
    }

    void
    write64(Addr addr, std::uint64_t value)
    {
        const std::size_t offset = addr & (kPageBytes - 1);
        if (offset <= kPageBytes - 8) {
            std::memcpy(pageFor(addr) + offset, &value, 8);
            return;
        }
        const auto *bytes = reinterpret_cast<const std::uint8_t *>(&value);
        for (unsigned i = 0; i < 8; ++i)
            writeByte(addr + i, bytes[i]);
    }

  private:
    static constexpr unsigned kPageBits = 12;
    static constexpr std::size_t kPageBytes = 1u << kPageBits;

    /** Raw pointer into _arena; owned by the arena, never freed
     *  individually (the image only grows until destruction). */
    using Page = std::uint8_t *;

    /** Writers fill in address order (the bucket and CSR kernels'
     *  constructors write a word at a time), so the last page resolved
     *  answers most calls without a table probe. The cached pointer is
     *  the arena's, not the table slot's, so rehashing never stales
     *  it. */
    Page
    pageFor(Addr addr)
    {
        const std::uint64_t number = addr >> kPageBits;
        if (number == _lastNumber)
            return _lastPage;
        auto [page, inserted] = _pages.tryEmplace(number);
        if (inserted)
            *page = _arena.allocate(); // zero-filled by the arena
        _lastNumber = number;
        _lastPage = *page;
        return _lastPage;
    }

    std::uint8_t
    readByte(Addr addr) const
    {
        const Page *page = _pages.find(addr >> kPageBits);
        if (!page)
            return 0;
        return (*page)[addr & (kPageBytes - 1)];
    }

    void
    writeByte(Addr addr, std::uint8_t byte)
    {
        pageFor(addr)[addr & (kPageBytes - 1)] = byte;
    }

    FlatHashMap<std::uint64_t, Page> _pages;
    /** Backing store: one malloc per 64 pages instead of per page.
     *  The arena can be neither copied nor moved, so neither can the
     *  image, and _lastPage always points into this image's pages. */
    SlabArena _arena{kPageBytes, 64};
    /** Page number and page of the last pageFor() (no page number
     *  is all ones: it is an address shifted right). */
    std::uint64_t _lastNumber = ~std::uint64_t{0};
    Page _lastPage = nullptr;
};

} // namespace dol

#endif // DOL_MEM_MEMORY_IMAGE_HPP
