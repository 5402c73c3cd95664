/**
 * @file
 * The stats engine's bitwise contract: the chunked, parallel bootstrap
 * must reproduce the documented per-stream contract, hand-rolled in
 * this file as the oracle, exactly — at any jobs setting and at every
 * chunk edge.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/random.hh"
#include "base/seeding.hh"
#include "stats/engine.hh"

namespace
{

using namespace mbias::stats;
using mbias::Rng;

std::vector<double>
speedupLike(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(1.0 + 0.05 * rng.nextGaussian());
    return v;
}

/**
 * The documented contract, hand-rolled with no engine code: resample
 * r draws from streamRng(seed, r), one nextIndex per draw, Neumaier
 * compensation in draw order, mean = (sum + comp) / n.
 */
std::vector<double>
contractMeans(const std::vector<double> &data, std::uint64_t seed, int R)
{
    std::vector<double> out(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) {
        Rng rng = mbias::streamRng(seed, std::uint64_t(r));
        double sum = 0.0, comp = 0.0;
        for (std::size_t i = 0; i < data.size(); ++i) {
            const double x = data[rng.nextIndex(data.size())];
            const double t = sum + x;
            if (std::abs(sum) >= std::abs(x))
                comp += (sum - t) + x;
            else
                comp += (x - t) + sum;
            sum = t;
        }
        out[std::size_t(r)] = (sum + comp) / double(data.size());
    }
    return out;
}

/** Type-7 quantile of a sorted vector (Sample::quantile's formula). */
double
sortedQuantile(const std::vector<double> &s, double q)
{
    const double pos = q * double(s.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - double(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
}

Engine
makeEngine(unsigned jobs)
{
    EngineOptions eo;
    eo.jobs = jobs;
    return Engine(eo);
}

TEST(Engine, MatchesContractOracle)
{
    // Resample counts straddle the 1024-resample chunk edges; jobs 1
    // runs the chunks inline, so it is the serial reference.
    const auto data = speedupLike(129, 11);
    for (int resamples : {1, 31, 1023, 1024, 1025, 3000}) {
        const auto oracle = contractMeans(data, 9, resamples);
        for (unsigned jobs : {1u, 2u, 8u}) {
            SCOPED_TRACE(testing::Message() << "resamples " << resamples
                                            << " jobs " << jobs);
            const Engine engine = makeEngine(jobs);
            EXPECT_EQ(engine.bootstrapMeans(data, 9, resamples), oracle);
            if (resamples < 10)
                continue; // bootstrapInterval needs >= 10 resamples
            const auto ci = engine.bootstrapInterval(data, 9, resamples);
            std::vector<double> sorted = oracle;
            std::sort(sorted.begin(), sorted.end());
            EXPECT_EQ(ci.lower, sortedQuantile(sorted, 0.025));
            EXPECT_EQ(ci.upper, sortedQuantile(sorted, 0.975));
            EXPECT_EQ(ci.estimate,
                      compensatedMean(data.data(), data.size()));
        }
    }
}

TEST(Engine, IntervalShapeAndEstimate)
{
    const auto data = speedupLike(100, 23);
    const auto ci = makeEngine(2).bootstrapInterval(data, 1, 1000, 0.9);
    EXPECT_LT(ci.lower, ci.upper);
    EXPECT_DOUBLE_EQ(ci.level, 0.9);
    EXPECT_EQ(ci.estimate, compensatedMean(data.data(), data.size()));
    EXPECT_GT(ci.lower, 0.5);
    EXPECT_LT(ci.upper, 1.5);
}

TEST(Bootstrap, ContainsMeanAndIsDeterministic)
{
    const std::vector<double> data{1.0, 2.0, 3.0, 4.0,
                                   5.0, 6.0, 7.0, 8.0};
    const auto a = makeEngine(1).bootstrapInterval(data, 3, 500);
    const auto b = makeEngine(1).bootstrapInterval(data, 3, 500);
    EXPECT_EQ(a.lower, b.lower);
    EXPECT_EQ(a.upper, b.upper);
    EXPECT_TRUE(a.contains(4.5));
    EXPECT_GT(a.upper, a.lower);
}

TEST(Bootstrap, DegenerateSampleCollapses)
{
    const std::vector<double> data{5.0, 5.0, 5.0, 5.0};
    const auto ci = makeEngine(1).bootstrapInterval(data, 1, 200);
    EXPECT_DOUBLE_EQ(ci.lower, 5.0);
    EXPECT_DOUBLE_EQ(ci.upper, 5.0);
}

TEST(CompensatedSum, CancellationExact)
{
    const std::vector<double> v{1e16, 1.0, -1e16};
    EXPECT_DOUBLE_EQ(compensatedSum(v), 1.0);
    // The naive left fold loses the 1.0 entirely.
    EXPECT_DOUBLE_EQ((1e16 + 1.0) + -1e16, 0.0);
}

TEST(CompensatedSum, IllConditionedMatchesLongDouble)
{
    // Each triple (big, small, -big) cancels its 1e15-scale terms
    // exactly, so the true sum is just the sum of the unit-scale
    // values — which a plain left fold butchers (every small addend
    // lands on a ~1e15 partial and loses its low bits) and a
    // compensated sum recovers to a few ulps.
    Rng rng(37);
    std::vector<double> v;
    long double exact = 0.0L;
    for (int i = 0; i < 1000; ++i) {
        const double big = 1e15 * (1.0 + rng.nextDouble());
        const double small = rng.nextDouble();
        v.push_back(big);
        v.push_back(small);
        v.push_back(-big);
        exact += static_cast<long double>(small);
    }
    double naive = 0.0;
    for (double x : v)
        naive += x;
    const double ref = static_cast<double>(exact);
    const double got = compensatedSum(v);
    EXPECT_NEAR(got, ref, 1e-9) << "compensated sum drifted";
    EXPECT_GT(std::abs(naive - ref), std::abs(got - ref))
        << "naive fold should be strictly worse on this input";
    EXPECT_DOUBLE_EQ(compensatedMean(v.data(), v.size()),
                     got / double(v.size()));
}

} // namespace
