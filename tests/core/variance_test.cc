/** @file Tests for the variance (false-confidence) analyzer. */
#include <gtest/gtest.h>

#include "core/memo.hh"
#include "core/setup.hh"
#include "core/variance.hh"

namespace
{

using namespace mbias;
using namespace mbias::core;

TEST(VarianceAnalyzer, RepeatedMetricVariesUnderNoise)
{
    ExperimentSpec spec;
    ExperimentRunner runner(spec);
    auto sample = runner.repeatedMetric(spec.baseline, ExperimentSetup{},
                                        6, 42);
    EXPECT_EQ(sample.count(), 6u);
    EXPECT_GT(sample.range(), 0.0) << "noise must move the metric";
    EXPECT_LT(sample.cv(), 0.05) << "noise must stay small";
}

TEST(VarianceAnalyzer, RepeatedMetricDeterministicGivenSeeds)
{
    ExperimentSpec spec;
    ExperimentRunner runner(spec);
    auto a = runner.repeatedMetric(spec.baseline, ExperimentSetup{}, 4, 9);
    RunMemo::global().clear(); // b reruns on the reused machines
    auto b = runner.repeatedMetric(spec.baseline, ExperimentSetup{}, 4, 9);
    EXPECT_EQ(a.values(), b.values());
}

TEST(VarianceAnalyzer, PerlShowsFalseConfidenceAtBadHomeSetup)
{
    ExperimentSpec spec; // perl
    ExperimentSetup home;
    home.envBytes = 300; // a known O3-hurts pocket
    auto peers = SetupSpace().varyEnvSize().grid(16);
    auto r = VarianceAnalyzer(8).analyze(spec, home, peers);
    EXPECT_GT(r.varianceRatio, 3.0);
    EXPECT_TRUE(r.falseConfidence);
    EXPECT_FALSE(r.str().empty());
}

TEST(VarianceAnalyzer, RobustWorkloadShowsNoFalseConfidence)
{
    ExperimentSpec spec;
    spec.withWorkload("sphinx"); // large genuine effect, tiny bias
    ExperimentSetup home;
    home.envBytes = 300;
    auto peers = SetupSpace().varyEnvSize().grid(8);
    auto r = VarianceAnalyzer(8).analyze(spec, home, peers);
    // The cross-setup mean sits close to any single setup's estimate.
    EXPECT_NEAR(r.withinSetup.mean(), r.betweenSetups.mean(), 0.02);
}

TEST(VarianceAnalyzer, WithinCiTightensWithRepetitions)
{
    ExperimentSpec spec;
    ExperimentSetup home;
    auto peers = SetupSpace().varyEnvSize().grid(4);
    auto few = VarianceAnalyzer(4).analyze(spec, home, peers);
    auto many = VarianceAnalyzer(24).analyze(spec, home, peers);
    EXPECT_LT(many.withinCI.halfWidth(), few.withinCI.halfWidth());
}

} // namespace
