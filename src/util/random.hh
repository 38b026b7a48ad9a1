/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic choice in the library flows through Rng so that
 * simulations and workload generators are exactly reproducible from a
 * seed. The generator is SplitMix64-seeded xoshiro256**, which is
 * fast, has a 2^256-1 period, and passes BigCrush.
 */

#ifndef TT_UTIL_RANDOM_HH
#define TT_UTIL_RANDOM_HH

#include <cstdint>

namespace tt {

/** Deterministic, seedable PRNG (xoshiro256**). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Uniform 64-bit value. */
    std::uint64_t next();

    /** Uniform value in [0, bound) using Lemire rejection. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform double in [lo, hi). */
    double nextDouble(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t nextInt(std::int64_t lo, std::int64_t hi);

    /** Approximately normal variate (sum-of-uniforms). */
    double nextGaussian(double mean, double stddev);

  private:
    std::uint64_t s_[4];
};

} // namespace tt

#endif // TT_UTIL_RANDOM_HH
