#include "stats/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "base/logging.hh"
#include "base/seeding.hh"
#include "obs/trace.hh"
#include "parallel/pool.hh"

namespace mbias::stats
{

namespace
{

/** Resample chunk granularity: coarse enough that chunk dispatch is
 *  noise next to the O(chunk * n) work inside, fine enough that a
 *  10k-resample interval splits across a few workers.  Chunk
 *  boundaries cannot affect results: every resample mean is a pure
 *  function of (seed, stream index, data). */
constexpr int kChunkResamples = 1024;

/**
 * Type-7 linear-interpolated quantile via selection instead of a full
 * sort: nth_element places the lo-th and (lo+1)-th order statistics,
 * which is all the interpolation reads.  Order statistics are a pure
 * function of the multiset, so this returns bitwise the same value a
 * sorted scan would (the formula below is Sample::quantile's).
 */
double
quantileSelect(std::vector<double> &s, double q)
{
    if (s.size() == 1)
        return s.front();
    const double pos = q * double(s.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - double(lo);
    std::nth_element(s.begin(), s.begin() + std::ptrdiff_t(lo), s.end());
    const double vlo = s[lo];
    std::nth_element(s.begin() + std::ptrdiff_t(lo),
                     s.begin() + std::ptrdiff_t(hi), s.end());
    return vlo * (1.0 - frac) + s[hi] * frac;
}

/** Fills means[0 .. r1-r0) with the resample means for stream
 *  indices [r0, r1) under the engine contract. */
void
resampleMeans(const double *data, std::size_t n, std::uint64_t seed,
              int r0, int r1, double *means)
{
    for (int r = r0; r < r1; ++r) {
        Rng rng = streamRng(seed, std::uint64_t(r));
        double sum = 0.0, comp = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double x = data[rng.nextIndex(n)];
            const double t = sum + x;
            if (std::abs(sum) >= std::abs(x))
                comp += (sum - t) + x;
            else
                comp += (x - t) + sum;
            sum = t;
        }
        means[r - r0] = (sum + comp) / double(n);
    }
}

} // namespace

double
compensatedSum(const double *data, std::size_t n)
{
    double sum = 0.0, comp = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = data[i];
        const double t = sum + x;
        if (std::abs(sum) >= std::abs(x))
            comp += (sum - t) + x;
        else
            comp += (x - t) + sum;
        sum = t;
    }
    return sum + comp;
}

double
compensatedMean(const double *data, std::size_t n)
{
    mbias_assert(n > 0, "mean of empty array");
    return compensatedSum(data, n) / double(n);
}

Engine::Engine(EngineOptions opts) : opts_(opts)
{
    if (opts_.metrics) {
        bootstrapCalls_ = &opts_.metrics->counter("stats.bootstrap_calls");
        bootstrapResamples_ =
            &opts_.metrics->counter("stats.bootstrap_resamples");
        bootstrapUs_ = &opts_.metrics->histogram("stats.bootstrap_us");
    }
}

std::vector<double>
Engine::bootstrapMeans(const std::vector<double> &data, std::uint64_t seed,
                       int resamples) const
{
    mbias_assert(!data.empty(), "bootstrap of empty sample");
    mbias_assert(data.size() <= 0x100000000ULL,
                 "bootstrap sample too large for nextIndex draws");
    mbias_assert(resamples >= 1, "bootstrapMeans needs resamples >= 1");
    std::vector<double> means(static_cast<std::size_t>(resamples));

    const int chunks =
        (resamples + kChunkResamples - 1) / kChunkResamples;
    parallel::ThreadPool pool(opts_.jobs, nullptr);
    pool.parallelFor(std::size_t(chunks), [&](std::size_t c, unsigned) {
        const int r0 = int(c) * kChunkResamples;
        const int r1 = std::min(resamples, r0 + kChunkResamples);
        resampleMeans(data.data(), data.size(), seed, r0, r1,
                      means.data() + r0);
    });
    return means;
}

ConfidenceInterval
Engine::bootstrapInterval(const std::vector<double> &data,
                          std::uint64_t seed, int resamples,
                          double level) const
{
    mbias_assert(resamples >= 10, "too few bootstrap resamples");
    mbias_assert(level > 0.0 && level < 1.0,
                 "confidence level must be in (0, 1)");
    obs::ScopedSpan span("bootstrap", "stats");
    const auto start = std::chrono::steady_clock::now();

    std::vector<double> means = bootstrapMeans(data, seed, resamples);
    const double alpha = (1.0 - level) / 2.0;
    ConfidenceInterval ci;
    ci.estimate = compensatedMean(data.data(), data.size());
    ci.level = level;
    ci.lower = quantileSelect(means, alpha);
    ci.upper = quantileSelect(means, 1.0 - alpha);

    if (bootstrapCalls_) {
        bootstrapCalls_->add();
        bootstrapResamples_->add(std::uint64_t(resamples));
        bootstrapUs_->record(std::uint64_t(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count()));
    }
    return ci;
}

} // namespace mbias::stats
