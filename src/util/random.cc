#include "util/random.hh"

#include "util/logging.hh"

namespace tt {

namespace {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // Seed the full 256-bit state from SplitMix64 per the xoshiro
    // authors' recommendation; guards against all-zero state.
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    tt_assert(bound > 0, "nextBounded requires a positive bound");
    // Lemire's multiply-shift with rejection for exact uniformity.
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < bound) {
        std::uint64_t floor = (-bound) % bound;
        while (l < floor) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return static_cast<std::uint64_t>(m >> 64);
}

double
Rng::nextDouble()
{
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::nextDouble(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

std::int64_t
Rng::nextInt(std::int64_t lo, std::int64_t hi)
{
    tt_assert(lo <= hi, "nextInt bounds inverted");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextGaussian(double mean, double stddev)
{
    // Irwin-Hall sum of 12 uniforms: mean 6, variance 1.
    double acc = 0.0;
    for (int i = 0; i < 12; ++i)
        acc += nextDouble();
    return mean + stddev * (acc - 6.0);
}

} // namespace tt
