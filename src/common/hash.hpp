/**
 * @file
 * The two hash families every seed, checksum and table in the
 * simulator derives from.
 *
 *  - FNV-1a 64 (fnv64): per-cell sweep seeds, the journal's grid hash
 *    and record checksums, and the DOLTRC01 trace digest. Chained
 *    calls hash the concatenation: fnv64(b, fnv64(a)) == fnv64(ab).
 *  - SplitMix64 (splitMix64, and its finalizer mix64): Rng seeding,
 *    fuzz case seeds, the ChampSim heap model, and flat-table keys.
 *
 * Each value they produce is pinned in tests/test_formats.cpp: a
 * change here changes every seed and file.
 */

#ifndef DOL_COMMON_HASH_HPP
#define DOL_COMMON_HASH_HPP

#include <cstddef>
#include <cstdint>

namespace dol
{

/** FNV-1a 64 offset basis: the hash of no bytes. */
constexpr std::uint64_t kFnv64Basis = 0xcbf29ce484222325ull;

/** FNV-1a 64 over @p size bytes at @p data, continuing from @p seed. */
inline std::uint64_t
fnv64(const void *data, std::size_t size, std::uint64_t seed = kFnv64Basis)
{
    std::uint64_t hash = seed;
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/** SplitMix64's state increment (2^64 divided by the golden ratio). */
constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/** SplitMix64's finalizer; every flat-table probe calls it. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** SplitMix64's output for state @p x: the next state's finalizer. */
constexpr std::uint64_t
splitMix64(std::uint64_t x)
{
    return mix64(x + kSplitMix64Gamma);
}

} // namespace dol

#endif // DOL_COMMON_HASH_HPP
