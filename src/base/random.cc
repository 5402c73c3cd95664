#include "base/random.hh"

#include <cmath>

#include "base/logging.hh"

namespace mbias
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &state)
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
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitMix64(sm);
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
    mbias_assert(bound > 0, "nextBounded requires a positive bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::uint64_t
Rng::nextIndex(std::uint64_t bound)
{
    mbias_assert(bound > 0 && bound <= 0x100000000ULL,
                 "nextIndex requires 0 < bound <= 2^32");
    // hi32(next()) * bound / 2^32 — one draw, no rejection loop.
    return ((next() >> 32) * bound) >> 32;
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    mbias_assert(lo <= hi, "nextRange requires lo <= hi");
    std::uint64_t span = std::uint64_t(hi) - std::uint64_t(lo) + 1;
    if (span == 0) // full 64-bit range
        return std::int64_t(next());
    return lo + std::int64_t(nextBounded(span));
}

double
Rng::nextDouble()
{
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::nextGaussian()
{
    if (haveGauss_) {
        haveGauss_ = false;
        return gauss_;
    }
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    double u2 = nextDouble();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    gauss_ = r * std::sin(theta);
    haveGauss_ = true;
    return r * std::cos(theta);
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa5a5a5a5deadbeefULL);
}

Rng
Rng::splitAt(std::uint64_t key) const
{
    // Fold the full 256-bit state and the key through SplitMix64 so
    // distinct keys (and distinct parent states) give independent
    // children; the parent is left untouched.
    std::uint64_t sm = key ^ 0xa5a5a5a5deadbeefULL;
    for (auto s : s_) {
        sm ^= s + 0x9e3779b97f4a7c15ULL + (sm << 6) + (sm >> 2);
        sm = splitMix64(sm);
    }
    return Rng(sm);
}

} // namespace mbias
