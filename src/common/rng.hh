/**
 * @file
 * Pseudo-random number generation for Monte-Carlo sampling.
 *
 * The simulator needs a fast, splittable generator so that blocks of
 * shots can draw independent streams from a single user-provided seed. We use
 * xoshiro256** (Blackman & Vigna) seeded through SplitMix64, which is the
 * standard construction for initializing xoshiro state.
 */

#ifndef ASTREA_COMMON_RNG_HH
#define ASTREA_COMMON_RNG_HH

#include <cstdint>

namespace astrea
{

/**
 * xoshiro256** generator.
 *
 * Satisfies the C++ UniformRandomBitGenerator concept so it can be used
 * with <random> distributions, though the hot paths below avoid the
 * standard distributions for speed.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~0ull; }

    /** Next raw 64-bit value. */
    uint64_t operator()();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound). Requires bound > 0. */
    uint64_t uniformInt(uint64_t bound);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /**
     * Geometric gap for skip-sampling a Bernoulli(p) stream.
     *
     * Returns the number of failures before the next success, i.e. the
     * index offset of the next set position when scanning a long vector
     * of iid Bernoulli(p) bits. Used by the sparse error sampler to jump
     * directly between error locations in O(#errors) per shot.
     */
    uint64_t geometricSkip(double p);

    /**
     * Derive an independent child generator for stream i (the harness
     * gives each block of shots its own).
     *
     * Children are created by re-seeding through SplitMix64 with a
     * stream-index perturbation, which is sufficient decorrelation for
     * Monte-Carlo use.
     */
    Rng split(uint64_t stream) const;

  private:
    uint64_t s_[4];
};

} // namespace astrea

#endif // ASTREA_COMMON_RNG_HH
