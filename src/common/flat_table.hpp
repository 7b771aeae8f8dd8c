/**
 * @file
 * Flat, allocation-free hash tables for the per-access hot loop.
 *
 * Every structure the paper specifies is a small bounded table (the
 * SIT, the instruction-state bits, the Region/Instruction Monitors),
 * and the simulator state that mirrors them is keyed by small integer
 * keys (PC, mPC, line address, region number). `std::unordered_map`
 * buys none of that shape: every insert allocates a node, every probe
 * chases a pointer, and the default hash is identity. The tables here
 * store open-addressed slots in one contiguous power-of-two array
 * with linear probing and a strong 64-bit mixer, so the common
 * hit-probe touches one or two cache lines and inserts never allocate
 * per node.
 *
 * Two variants:
 *  - FlatHashMap / FlatHashSet: unbounded semantics (grow by
 *    rehashing at 7/8 load, erase by backward shift). Drop-in for the
 *    unordered containers they replace — same find/insert/erase
 *    semantics, so the migration is layout-only and golden traces
 *    stay byte-identical.
 *  - BoundedLruTable: fixed capacity, linear probe window,
 *    LRU-stamp eviction inside the window — the shape of a hardware
 *    set-indexed table (Triangel's pair history, PChase's chains).
 *
 * All variants are deterministic: layout depends only on the key
 * sequence, never on pointers or global state.
 */

#ifndef DOL_COMMON_FLAT_TABLE_HPP
#define DOL_COMMON_FLAT_TABLE_HPP

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/hash.hpp"

namespace dol
{

/** The integer-key mixer for every table: SplitMix64's finalizer. */
constexpr std::uint64_t
flatHashMix(std::uint64_t x)
{
    return mix64(x);
}

/**
 * Open-addressing hash map with linear probing and backward-shift
 * deletion. Key must be an integer-like trivially copyable type;
 * Value may be move-only. References returned by find()/operator[]
 * are invalidated by any insert or erase.
 */
template <typename Key, typename Value>
class FlatHashMap
{
    struct Slot
    {
        Key key{};
        /** An empty Value (FlatHashSet's) takes no room in the slot. */
        [[no_unique_address]] Value value{};
    };

    static constexpr std::uint8_t kEmpty = 0;
    static constexpr std::uint8_t kFull = 1;

  public:
    FlatHashMap() = default;

    FlatHashMap(const FlatHashMap &) = default;
    FlatHashMap &operator=(const FlatHashMap &) = default;
    FlatHashMap(FlatHashMap &&) noexcept = default;
    FlatHashMap &operator=(FlatHashMap &&) noexcept = default;

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }
    std::size_t capacity() const { return _slots.size(); }

    /** Grow so that @p count keys fit without rehashing. */
    void
    reserve(std::size_t count)
    {
        std::size_t want = 8;
        while (want - want / 8 < count)
            want *= 2;
        if (want > _slots.size())
            rehash(want);
    }

    void
    clear()
    {
        std::fill(_ctrl.begin(), _ctrl.end(), kEmpty);
        for (Slot &slot : _slots)
            slot = Slot{};
        _size = 0;
    }

    Value *
    find(const Key &key)
    {
        const std::size_t index = findIndex(key);
        return index == kNotFound ? nullptr : &_slots[index].value;
    }

    const Value *
    find(const Key &key) const
    {
        const std::size_t index = findIndex(key);
        return index == kNotFound ? nullptr : &_slots[index].value;
    }

    bool contains(const Key &key) const
    {
        return findIndex(key) != kNotFound;
    }

    /**
     * Find-or-insert with a default-constructed value.
     * @return (value pointer, inserted?)
     */
    std::pair<Value *, bool>
    tryEmplace(const Key &key)
    {
        growIfNeeded();
        std::size_t index = probeStart(key);
        while (_ctrl[index] == kFull) {
            if (_slots[index].key == key)
                return {&_slots[index].value, false};
            index = next(index);
        }
        _ctrl[index] = kFull;
        _slots[index].key = key;
        _slots[index].value = Value{};
        ++_size;
        return {&_slots[index].value, true};
    }

    Value &operator[](const Key &key) { return *tryEmplace(key).first; }

    /** Insert or overwrite. @return true when the key was new. */
    bool
    insert(const Key &key, Value value)
    {
        auto [slot, inserted] = tryEmplace(key);
        *slot = std::move(value);
        return inserted;
    }

    /** @return true when the key was present. */
    bool
    erase(const Key &key)
    {
        std::size_t hole = findIndex(key);
        if (hole == kNotFound)
            return false;
        // Backward-shift deletion: walk the probe chain after the
        // hole and pull back every slot whose home position cannot
        // reach it through the hole.
        _ctrl[hole] = kEmpty;
        _slots[hole] = Slot{};
        std::size_t index = next(hole);
        while (_ctrl[index] == kFull) {
            const std::size_t home = probeStart(_slots[index].key);
            const bool reachable =
                hole <= index ? (home <= hole || home > index)
                              : (home <= hole && home > index);
            if (reachable) {
                _slots[hole] = std::move(_slots[index]);
                _ctrl[hole] = kFull;
                _ctrl[index] = kEmpty;
                _slots[index] = Slot{};
                hole = index;
            }
            index = next(index);
        }
        --_size;
        return true;
    }

    /** Visit every (key, value); unspecified order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < _slots.size(); ++i) {
            if (_ctrl[i] == kFull)
                fn(_slots[i].key, _slots[i].value);
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < _slots.size(); ++i) {
            if (_ctrl[i] == kFull)
                fn(_slots[i].key, _slots[i].value);
        }
    }

  private:
    static constexpr std::size_t kNotFound = SIZE_MAX;

    std::size_t
    probeStart(const Key &key) const
    {
        return static_cast<std::size_t>(
            flatHashMix(static_cast<std::uint64_t>(key)) &
            (_slots.size() - 1));
    }

    std::size_t next(std::size_t index) const
    {
        return (index + 1) & (_slots.size() - 1);
    }

    std::size_t
    findIndex(const Key &key) const
    {
        if (_slots.empty())
            return kNotFound;
        std::size_t index = probeStart(key);
        while (_ctrl[index] == kFull) {
            if (_slots[index].key == key)
                return index;
            index = next(index);
        }
        return kNotFound;
    }

    void
    growIfNeeded()
    {
        // Grow at 7/8 load; linear probe chains stay short.
        if (_slots.empty())
            rehash(8);
        else if ((_size + 1) * 8 > _slots.size() * 7)
            rehash(_slots.size() * 2);
    }

    void
    rehash(std::size_t new_capacity)
    {
        assert(std::has_single_bit(new_capacity));
        std::vector<Slot> old_slots = std::move(_slots);
        std::vector<std::uint8_t> old_ctrl = std::move(_ctrl);
        _slots.clear();
        _slots.resize(new_capacity);
        _ctrl.assign(new_capacity, kEmpty);
        for (std::size_t i = 0; i < old_slots.size(); ++i) {
            if (old_ctrl[i] != kFull)
                continue;
            std::size_t index = probeStart(old_slots[i].key);
            while (_ctrl[index] == kFull)
                index = next(index);
            _ctrl[index] = kFull;
            _slots[index] = std::move(old_slots[i]);
        }
    }

    std::vector<Slot> _slots;
    std::vector<std::uint8_t> _ctrl;
    std::size_t _size = 0;
};

/** FlatHashMap with no payload: a set of integer-like keys. */
template <typename Key>
class FlatHashSet
{
    struct Nothing
    {};

  public:
    std::size_t size() const { return _map.size(); }
    bool empty() const { return _map.empty(); }
    void clear() { _map.clear(); }
    void reserve(std::size_t count) { _map.reserve(count); }

    bool contains(const Key &key) const { return _map.contains(key); }

    /** @return true when the key was new. */
    bool insert(const Key &key) { return _map.tryEmplace(key).second; }

    bool erase(const Key &key) { return _map.erase(key); }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        _map.forEach([&](const Key &key, const Nothing &) { fn(key); });
    }

  private:
    FlatHashMap<Key, Nothing> _map;
};

/**
 * Fixed-capacity table with hardware-table semantics: a power-of-two
 * slot array, a bounded linear probe window, and LRU-stamp eviction
 * within the window when every slot is taken. Lookups miss (and
 * inserts evict) exactly as a set-indexed hardware table would —
 * callers must tolerate entries disappearing.
 */
template <typename Key, typename Value, unsigned kProbeWindow = 8>
class BoundedLruTable
{
    struct Slot
    {
        Key key{};
        Value value{};
        std::uint64_t lruStamp = 0;
        bool valid = false;
    };

  public:
    explicit BoundedLruTable(std::size_t capacity = 64)
        : _slots(std::bit_ceil(capacity))
    {}

    std::size_t capacity() const { return _slots.size(); }

    std::size_t
    size() const
    {
        std::size_t count = 0;
        for (const Slot &slot : _slots)
            count += slot.valid ? 1 : 0;
        return count;
    }

    void
    clear()
    {
        for (Slot &slot : _slots)
            slot = Slot{};
        _stamp = 0;
    }

    /** Touches the entry's LRU stamp on hit. */
    Value *
    find(const Key &key)
    {
        std::size_t index = probeStart(key);
        for (unsigned i = 0; i < window(); ++i) {
            Slot &slot = _slots[index];
            if (slot.valid && slot.key == key) {
                slot.lruStamp = ++_stamp;
                return &slot.value;
            }
            index = next(index);
        }
        return nullptr;
    }

    const Value *
    find(const Key &key) const
    {
        std::size_t index = probeStart(key);
        for (unsigned i = 0; i < window(); ++i) {
            const Slot &slot = _slots[index];
            if (slot.valid && slot.key == key)
                return &slot.value;
            index = next(index);
        }
        return nullptr;
    }

    bool contains(const Key &key) const { return find(key) != nullptr; }

    /**
     * Find-or-allocate; allocation evicts the LRU slot of the probe
     * window when no slot is free. @return (value, evicted key or
     * nullopt-like flag via @p evicted_key when non-null)
     */
    Value &
    insert(const Key &key, bool *evicted = nullptr,
           Key *evicted_key = nullptr)
    {
        if (evicted)
            *evicted = false;
        std::size_t index = probeStart(key);
        Slot *victim = nullptr;
        for (unsigned i = 0; i < window(); ++i) {
            Slot &slot = _slots[index];
            if (slot.valid && slot.key == key) {
                slot.lruStamp = ++_stamp;
                return slot.value;
            }
            if (!slot.valid) {
                if (!victim || victim->valid)
                    victim = &slot;
            } else if (!victim ||
                       (victim->valid &&
                        slot.lruStamp < victim->lruStamp)) {
                victim = &slot;
            }
            index = next(index);
        }
        if (victim->valid) {
            if (evicted)
                *evicted = true;
            if (evicted_key)
                *evicted_key = victim->key;
        }
        *victim = Slot{};
        victim->valid = true;
        victim->key = key;
        victim->lruStamp = ++_stamp;
        return victim->value;
    }

    bool
    erase(const Key &key)
    {
        std::size_t index = probeStart(key);
        for (unsigned i = 0; i < window(); ++i) {
            Slot &slot = _slots[index];
            if (slot.valid && slot.key == key) {
                slot = Slot{};
                return true;
            }
            index = next(index);
        }
        return false;
    }

  private:
    unsigned
    window() const
    {
        return kProbeWindow < _slots.size()
                   ? kProbeWindow
                   : static_cast<unsigned>(_slots.size());
    }

    std::size_t
    probeStart(const Key &key) const
    {
        return static_cast<std::size_t>(
            flatHashMix(static_cast<std::uint64_t>(key)) &
            (_slots.size() - 1));
    }

    std::size_t next(std::size_t index) const
    {
        return (index + 1) & (_slots.size() - 1);
    }

    std::vector<Slot> _slots;
    std::uint64_t _stamp = 0;
};

} // namespace dol

#endif // DOL_COMMON_FLAT_TABLE_HPP
