#ifndef MBIAS_BASE_RANDOM_HH
#define MBIAS_BASE_RANDOM_HH

#include <cstdint>
#include <vector>

namespace mbias
{

/**
 * Deterministic pseudo-random number generator (xoshiro256**, seeded via
 * SplitMix64).  The library never uses std::random_device or global
 * state: every stochastic component takes an explicit Rng so that any
 * experiment is exactly reproducible from its seed.
 */
class Rng
{
  public:
    /** Constructs a generator from a 64-bit seed. */
    explicit Rng(std::uint64_t seed = 0);

    /** Returns the next raw 64-bit value. */
    std::uint64_t next();

    /** Returns a uniform integer in [0, bound) ; @p bound must be > 0. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /**
     * Returns a near-uniform integer in [0, bound) using exactly one
     * next() call (multiply-shift on the high 32 bits); requires
     * bound <= 2^32.  Unlike nextBounded's rejection loop, this draw
     * is a fixed-length computation, so the stats engine's bootstrap
     * draw d of resample r is a pure function of (seed, r, d): each
     * draw consumes exactly one generator step regardless of value.
     * The price is a deterministic selection bias of at most
     * bound/2^32 per draw (< 2^-22 for any campaign-sized bound) —
     * identical on every path, so it can never cause a divergence.
     */
    std::uint64_t nextIndex(std::uint64_t bound);

    /** Returns a uniform integer in [lo, hi] (inclusive). */
    std::int64_t nextRange(std::int64_t lo, std::int64_t hi);

    /** Returns a uniform double in [0, 1). */
    double nextDouble();

    /** Returns a standard-normal variate (Box-Muller). */
    double nextGaussian();

    /** Fisher-Yates shuffles @p v in place. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = nextBounded(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derives an independent child generator (for parallel streams). */
    Rng split();

    /**
     * Derives the child generator for stream @p key without advancing
     * this generator.  Unlike split(), which consumes state (so the
     * result depends on how many children were taken before), splitAt
     * is a pure function of (current state, key): callers that hand
     * out children by task index get the same child for the same index
     * no matter the order or thread the requests arrive on.
     */
    Rng splitAt(std::uint64_t key) const;

  private:
    std::uint64_t s_[4];
    bool haveGauss_ = false;
    double gauss_ = 0.0;
};

} // namespace mbias

#endif // MBIAS_BASE_RANDOM_HH
