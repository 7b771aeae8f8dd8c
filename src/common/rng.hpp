/**
 * @file
 * Small deterministic PRNG used by the synthetic workload generators.
 *
 * Workload traces must be exactly reproducible from a seed: the offline
 * LHF/MHF/HHF stratifier re-generates the same trace the measured run
 * consumes (DESIGN.md section 5). xoshiro256** gives us speed and a
 * fixed cross-platform sequence, unlike std::mt19937 distributions.
 */

#ifndef DOL_COMMON_RNG_HPP
#define DOL_COMMON_RNG_HPP

#include <cstdint>

#include "common/hash.hpp"

namespace dol
{

/** xoshiro256** by Blackman & Vigna (public domain reference impl). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // SplitMix64 seeding, per the xoshiro authors' recommendation:
        // the state is SplitMix64's first four outputs from @p seed.
        for (auto &word : _state) {
            word = splitMix64(seed);
            seed += kSplitMix64Gamma;
        }
    }

    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
        const std::uint64_t t = _state[1] << 17;
        _state[2] ^= _state[0];
        _state[3] ^= _state[1];
        _state[1] ^= _state[2];
        _state[0] ^= _state[3];
        _state[2] ^= t;
        _state[3] = rotl(_state[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Multiply-shift reduction; bias is negligible for our bounds.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t _state[4];
};

} // namespace dol

#endif // DOL_COMMON_RNG_HPP
