/** @file Unit tests for the deterministic RNG. */
#include <gtest/gtest.h>

#include <set>

#include "base/random.hh"
#include "base/seeding.hh"

namespace
{

using mbias::Rng;

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(13), 13u);
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        auto v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextIndexFormulaAndRange)
{
    // nextIndex is the stats engine's draw primitive: exactly one
    // generator step, fixed-point scaling of the top 32 bits.  The
    // formula is part of the bitwise contract, so pin it.
    Rng a(41), b(41);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t idx = a.nextIndex(527);
        EXPECT_LT(idx, 527u);
        EXPECT_EQ(idx, ((b.next() >> 32) * 527) >> 32);
    }
}

TEST(Rng, NextIndexDegenerateAndFullRange)
{
    Rng rng(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.nextIndex(1), 0u);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextIndex(4));
    EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng rng(13);
    double acc = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        acc += rng.nextDouble();
    EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(17);
    double sum = 0, sq = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double g = rng.nextGaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(19);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, ShuffleDeterministic)
{
    std::vector<int> a{1, 2, 3, 4, 5}, b{1, 2, 3, 4, 5};
    Rng r1(23), r2(23);
    r1.shuffle(a);
    r2.shuffle(b);
    EXPECT_EQ(a, b);
}

TEST(Rng, SplitIndependent)
{
    Rng parent(29);
    Rng child = parent.split();
    // The child stream should not replay the parent's values.
    Rng parent2(29);
    parent2.next(); // same state advance as split() performed
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += child.next() == parent2.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, SplitAtIsPureAndKeyed)
{
    Rng parent(31);
    Rng a1 = parent.splitAt(7);
    Rng a2 = parent.splitAt(7); // parent state unchanged by splitAt
    Rng b = parent.splitAt(8);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        const auto va = a1.next();
        EXPECT_EQ(va, a2.next());
        same += va == b.next();
    }
    EXPECT_LT(same, 2);
    // splitAt did not advance the parent.
    Rng parent2(31);
    EXPECT_EQ(parent.next(), parent2.next());
}

TEST(Seeding, MixSeedIndependentStreams)
{
    using mbias::mixSeed;
    EXPECT_EQ(mixSeed(42, 7), mixSeed(42, 7));
    EXPECT_NE(mixSeed(42, 7), mixSeed(42, 8));
    EXPECT_NE(mixSeed(42, 7), mixSeed(43, 7));
    // The stream index must not be cancellable against the root.
    EXPECT_NE(mixSeed(42, 7), mixSeed(42 ^ 7, 0));
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(mixSeed(42, i));
    EXPECT_EQ(seen.size(), 1000u);
}

TEST(Seeding, StreamRngMatchesMixSeed)
{
    Rng direct(mbias::mixSeed(9, 4));
    Rng stream = mbias::streamRng(9, 4);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(direct.next(), stream.next());
}

} // namespace
