#ifndef MBIAS_STATS_ENGINE_HH
#define MBIAS_STATS_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/metrics.hh"
#include "stats/ci.hh"

namespace mbias::stats
{

/**
 * Neumaier-compensated sum of @p n doubles in index order.  The
 * compensation makes the result far less sensitive to the magnitude
 * spread of the addends than a plain left fold; the fixed order makes
 * it a pure function of the input array.
 */
double compensatedSum(const double *data, std::size_t n);

inline double
compensatedSum(const std::vector<double> &v)
{
    return compensatedSum(v.data(), v.size());
}

/** compensatedSum / n; requires n > 0. */
double compensatedMean(const double *data, std::size_t n);

/** Options for a stats::Engine.  Plain aggregate; copy freely. */
struct EngineOptions
{
    /** Worker threads for chunked reductions; 0 or 1 means inline. */
    unsigned jobs = 1;

    /** Optional registry for stats.* counters and histograms. */
    obs::Registry *metrics = nullptr;
};

/**
 * Parallel percentile-bootstrap engine.
 *
 * The determinism contract for the bootstrap (see docs/statistics.md):
 *
 *  - resample r draws from the generator `streamRng(seed, r)` — the
 *    same per-stream derivation the campaign engine uses for tasks,
 *    so resamples are independent streams keyed by index;
 *  - each draw is one `Rng::nextIndex(n)` (exactly one generator step,
 *    no rejection loop), so draw d of resample r is a pure function
 *    of (seed, r, d);
 *  - each resample mean is a Neumaier-compensated sum over draws in
 *    order d = 0..n-1, divided by n.
 *
 * Every resample mean is therefore a pure function of (seed, r, data):
 * chunking, thread count and work stealing cannot change a single
 * bit, so `jobs = 1` (the pool runs inline) is the serial reference.
 * The percentile step selects order statistics of the means vector,
 * which are likewise schedule independent.
 */
class Engine
{
  public:
    explicit Engine(EngineOptions opts = EngineOptions{});

    /**
     * The R resample means of @p data under the contract above.
     * Requires 0 < data.size() <= 2^32 and resamples >= 1.
     */
    std::vector<double> bootstrapMeans(const std::vector<double> &data,
                                       std::uint64_t seed,
                                       int resamples) const;

    /**
     * Percentile-bootstrap confidence interval for the mean of
     * @p data: estimate is the compensated mean of the data, bounds
     * are type-7 quantiles of the resample means.  Bitwise identical
     * at any jobs setting.
     */
    ConfidenceInterval bootstrapInterval(const std::vector<double> &data,
                                         std::uint64_t seed,
                                         int resamples = 1000,
                                         double level = 0.95) const;

  private:
    EngineOptions opts_;
    obs::Counter *bootstrapCalls_ = nullptr;
    obs::Counter *bootstrapResamples_ = nullptr;
    obs::Histogram *bootstrapUs_ = nullptr;
};

} // namespace mbias::stats

#endif // MBIAS_STATS_ENGINE_HH
