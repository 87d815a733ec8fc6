/**
 * @file
 * Deterministic pseudo-random number generation for Monte-Carlo runs.
 *
 * xoshiro256** seeded through SplitMix64, per Blackman & Vigna. Every
 * stochastic component in the simulator draws from an explicitly seeded
 * Rng so that experiments are reproducible bit-for-bit from a seed.
 */

#ifndef QLA_COMMON_RNG_H
#define QLA_COMMON_RNG_H

#include <array>
#include <cstdint>

namespace qla {

/**
 * Small, fast, reproducible PRNG (xoshiro256**).
 *
 * Not cryptographic; statistical quality is more than sufficient for
 * depolarizing-noise Monte Carlo.
 */
class Rng
{
  public:
    /** Seed through SplitMix64 so any 64-bit seed gives a good state. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        for (auto &word : state_)
            word = splitMix64_(seed);
    }

    /** Next raw 64-bit draw. */
    std::uint64_t next64()
    {
        const std::uint64_t result = rotl_(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl_(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) using Lemire rejection. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Bernoulli trial: true with probability p. Draws nothing when
     *  p <= 0 or p >= 1. */
    bool bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Split off an independent child stream.
     *
     * Used to give each Monte-Carlo shot its own stream so shots can be
     * reordered or parallelized without changing results.
     */
    Rng split();

  private:
    /** SplitMix64 step; used only for seeding. */
    static std::uint64_t splitMix64_(std::uint64_t &x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = x;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    static std::uint64_t rotl_(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

/**
 * Deterministic family of independent streams addressed by index.
 *
 * stream(i) is a pure function of (master seed, i): unlike Rng::split(),
 * which advances the parent, a family hands the same stream to shot i no
 * matter how many other streams were drawn or in what order. This is what
 * makes the batched Monte-Carlo engines reproducible regardless of batch
 * width -- shot i's noise depends only on (seed, i), not on which 64-shot
 * word it happened to land in.
 */
class RngFamily
{
  public:
    explicit RngFamily(std::uint64_t master_seed) : master_(master_seed) {}

    /** The independent stream for index @p index. */
    Rng stream(std::uint64_t index) const;

  private:
    std::uint64_t master_;
};

} // namespace qla

#endif // QLA_COMMON_RNG_H
