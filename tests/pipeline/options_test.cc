/**
 * @file
 * The shared pipeline flag parser: one grammar for the mbias CLI, the
 * figure wrapper binaries, and the microbenchmark shims.
 */
#include <gtest/gtest.h>

#include <vector>

#include "pipeline/options.hh"

namespace
{

using namespace mbias;

pipeline::ParsedArgs
parse(std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    std::vector<char *> argv;
    for (const char *a : args)
        argv.push_back(const_cast<char *>(a));
    return pipeline::parsePipelineArgs(int(argv.size()), argv.data());
}

TEST(PipelineOptions, Defaults)
{
    const auto p = parse({});
    EXPECT_EQ(p.options.jobs, 1u);
    EXPECT_FALSE(p.options.seed.has_value());
    EXPECT_FALSE(p.options.resamples.has_value());
    EXPECT_FALSE(p.options.confidence.has_value());
    EXPECT_TRUE(p.options.tracePath.empty());
    EXPECT_FALSE(p.options.quiet);
    EXPECT_FALSE(p.options.verbose);
    EXPECT_TRUE(p.options.artifactCache);
    EXPECT_TRUE(p.rest.empty());
}

TEST(PipelineOptions, EveryFlag)
{
    const auto p = parse({"--jobs", "8", "--seed", "7", "--resamples",
                          "250", "--confidence", "0.99", "--trace",
                          "t.json", "--quiet", "--no-artifact-cache"});
    EXPECT_EQ(p.options.jobs, 8u);
    EXPECT_EQ(p.options.seedOr(42), 7u);
    EXPECT_EQ(p.options.resamplesOr(0), 250);
    EXPECT_DOUBLE_EQ(p.options.confidenceOr(), 0.99);
    EXPECT_EQ(p.options.tracePath, "t.json");
    EXPECT_TRUE(p.options.quiet);
    EXPECT_FALSE(p.options.artifactCache);
    EXPECT_TRUE(p.rest.empty());
}

TEST(PipelineOptions, EntryPointDefaultsFillUnsetFlags)
{
    // The per-entry-point historical defaults: `mbias analyze` uses
    // resamplesOr(1000), figures resamplesOr(0); both read the same
    // parsed flags.
    const auto p = parse({"--jobs", "2"});
    EXPECT_EQ(p.options.resamplesOr(1000), 1000);
    EXPECT_EQ(p.options.resamplesOr(0), 0);
    EXPECT_EQ(p.options.seedOr(42), 42u);
    EXPECT_DOUBLE_EQ(p.options.confidenceOr(0.95), 0.95);
}

TEST(PipelineOptions, NonPipelineArgsPassThroughInOrder)
{
    const auto p = parse({"campaign", "--workload", "milc", "--jobs",
                          "4", "--setups", "64"});
    EXPECT_EQ(p.options.jobs, 4u);
    const std::vector<std::string> want = {"campaign", "--workload",
                                           "milc", "--setups", "64"};
    EXPECT_EQ(p.rest, want);
}

TEST(PipelineOptions, ValueFlagWithoutValueIsIgnored)
{
    // The historical bench scanners tolerated a dangling value flag;
    // the shared parser keeps that leniency.
    const auto trailing = parse({"--jobs"});
    EXPECT_EQ(trailing.options.jobs, 1u);

    const auto chained = parse({"--jobs", "--quiet"});
    EXPECT_EQ(chained.options.jobs, 1u);
    EXPECT_TRUE(chained.options.quiet);
}

TEST(PipelineOptions, IntegerFlagsAcceptTheirWholeRange)
{
    const auto p = parse({"--jobs", "4294967295", "--seed",
                          "18446744073709551615", "--resamples",
                          "2147483647"});
    EXPECT_EQ(p.options.jobs, 4294967295u);
    EXPECT_EQ(p.options.seedOr(0), 18446744073709551615u);
    EXPECT_EQ(p.options.resamplesOr(0), 2147483647);
    EXPECT_EQ(parse({"--resamples", "0"}).options.resamplesOr(7), 0);
    EXPECT_EQ(parse({"--resamples", "10"}).options.resamplesOr(0), 10);
}

TEST(PipelineOptionsDeathTest, RejectsMalformedAndOutOfRangeValues)
{
    // Integers take digits only, within the field's range: a sign or
    // a value too wide for the field must not parse to some other
    // number.  A NaN confidence must not slip past the range check.
    const std::vector<std::vector<const char *>> bad = {
        {"--jobs", "-1"},
        {"--jobs", "+4"},
        {"--jobs", "4294967297"},
        {"--jobs", "0"},
        {"--jobs", " 4"},
        {"--jobs", ""},
        {"--seed", "-1"},
        {"--seed", "18446744073709551616"},
        {"--resamples", "-3"},
        {"--resamples", "4294967306"},
        {"--resamples", "2147483648"},
        {"--resamples", "1"},
        {"--resamples", "9"},
        {"--confidence", "nan"},
        {"--confidence", "1"},
    };
    for (const auto &args : bad) {
        const std::string flag = args[0];
        EXPECT_EXIT(parse(args), testing::ExitedWithCode(1),
                    "fatal: .*" + flag)
            << flag << " '" << args[1] << "'";
    }
}

} // namespace
