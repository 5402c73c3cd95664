/**
 * @file
 * The campaign engine's central promise: a parallel campaign is
 * bitwise-identical to a serial one, for any thread count, schedule,
 * or completion order.  Also unit-tests the work-stealing pool the
 * promise rides on.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <vector>

#include "campaign/engine.hh"
#include "core/memo.hh"
#include "core/runner.hh"
#include "parallel/pool.hh"

namespace
{

using namespace mbias;
using campaign::CampaignEngine;
using campaign::CampaignOptions;
using campaign::CampaignSpec;
using parallel::ThreadPool;

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        constexpr std::size_t count = 1000;
        std::vector<std::atomic<unsigned>> ran(count);
        ThreadPool pool(jobs);
        pool.parallelFor(count, [&](std::size_t i, unsigned w) {
            ASSERT_LT(w, pool.jobs());
            ran[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < count; ++i)
            EXPECT_EQ(ran[i].load(), 1u) << "task " << i;
    }
}

TEST(ThreadPool, MoreJobsThanTasks)
{
    std::vector<std::atomic<unsigned>> ran(3);
    ThreadPool pool(16);
    pool.parallelFor(3, [&](std::size_t i, unsigned) { ran[i]++; });
    for (auto &r : ran)
        EXPECT_EQ(r.load(), 1u);
    ThreadPool zero(0); // treated as 1
    EXPECT_EQ(zero.jobs(), 1u);
    zero.parallelFor(0, [&](std::size_t, unsigned) { FAIL(); });
}

TEST(ThreadPool, WorkerCountClampsToHardware)
{
    // The pure clamp behind the pool's constructor, checked without
    // starting a thread: at least 1, at most a small multiple of the
    // hardware threads (an unknown count, 0, counts as 1), whatever
    // --jobs says.
    using parallel::kWorkersPerHardwareThread;
    using parallel::workerCount;
    EXPECT_EQ(workerCount(0, 4), 1u);
    EXPECT_EQ(workerCount(1, 4), 1u);
    EXPECT_EQ(workerCount(8, 4), 8u);
    EXPECT_EQ(workerCount(4 * kWorkersPerHardwareThread, 4),
              4 * kWorkersPerHardwareThread);
    EXPECT_EQ(workerCount(4 * kWorkersPerHardwareThread + 1, 4),
              4 * kWorkersPerHardwareThread);
    EXPECT_EQ(workerCount(~0u, 4), 4 * kWorkersPerHardwareThread);
    EXPECT_EQ(workerCount(~0u, 0), kWorkersPerHardwareThread);
    EXPECT_EQ(workerCount(3, 0), std::min(3u, kWorkersPerHardwareThread));
    EXPECT_EQ(workerCount(~0u, ~0u), ~0u);
}

TEST(ThreadPool, StealingDrainsImbalancedLoad)
{
    // Worker 0's share is made artificially slow; the others must
    // steal the rest of its deque for the sweep to finish promptly.
    constexpr std::size_t count = 64;
    std::atomic<std::size_t> done{0};
    ThreadPool pool(4);
    pool.parallelFor(count, [&](std::size_t i, unsigned) {
        if (i == 0) {
            volatile std::uint64_t sink = 0;
            for (int k = 0; k < 2'000'000; ++k)
                sink += k;
        }
        done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), count);
}

/** Speedup bit patterns of a campaign run with @p jobs workers, with
 *  the run memo cold so that every run is simulated. */
std::vector<std::uint64_t>
speedupBits(const CampaignSpec &spec, unsigned jobs)
{
    core::RunMemo::global().clear();
    CampaignOptions opts;
    opts.jobs = jobs;
    auto report = CampaignEngine(spec, opts).run();
    std::vector<std::uint64_t> bits;
    for (const auto &o : report.bias.outcomes)
        bits.push_back(std::bit_cast<std::uint64_t>(o.speedup));
    return bits;
}

// The acceptance bar for the subsystem: >= 200 setup x seed tasks,
// --jobs 8 bitwise-equal to --jobs 1.
TEST(CampaignDeterminism, ParallelEqualsSerialAt200Tasks)
{
    CampaignSpec spec; // perl, core2like, gcc O2 vs O3
    spec.withSpace(core::SetupSpace().varyEnvSize().varyLinkOrder(), 200)
        .withSeed(0xca11ab1eULL);
    const auto serial = speedupBits(spec, 1);
    const auto parallel = speedupBits(spec, 8);
    ASSERT_EQ(serial.size(), 200u);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i], parallel[i]) << "task " << i;
}

// Same promise for the ASLR repetition plan, whose per-run seeds all
// derive from task seeds (never from execution order).
TEST(CampaignDeterminism, AslrPlanIsScheduleIndependent)
{
    CampaignSpec spec;
    spec.withSpace(core::SetupSpace().varyEnvSize(), 12)
        .withPlan({campaign::RepetitionPlan::Kind::AslrRandomized, 5})
        .withSeed(7);
    EXPECT_EQ(speedupBits(spec, 1), speedupBits(spec, 8));
}

// Single and BaselineOnly tasks run as env-size family chunks (one
// lane batch per side for up to kLaneWidth tasks of one link order).
// Every outcome must be the one its task gives run alone, at any
// --jobs, and a repeated setup runs once, whether its first
// occurrence is in the same chunk or in another one.
TEST(CampaignDeterminism, EnvFamiliesMatchTaskByTaskRuns)
{
    std::vector<core::ExperimentSetup> setups;
    for (unsigned i = 0; i < 19; ++i) {
        core::ExperimentSetup s;
        s.envBytes = 211 * i;
        s.linkOrder = i % 3 ? toolchain::LinkOrder::shuffled(9)
                            : toolchain::LinkOrder::asGiven();
        setups.push_back(s);
    }
    // Link order shuffled(9) has tasks 1, 2, 4, ..., 16, 17: a chunk of
    // eight and a chunk of four.  Task 19 repeats task 16 (second
    // chunk), task 20 repeats task 1 (first chunk); neither may run.
    setups.push_back(setups[16]);
    setups.push_back(setups[1]);
    for (const auto kind : {campaign::RepetitionPlan::Kind::Single,
                            campaign::RepetitionPlan::Kind::BaselineOnly}) {
        CampaignSpec spec;
        spec.withExperiment(core::ExperimentSpec().withWorkload("hmmer"))
            .withSetups(setups)
            .withPlan({kind, 1});
        // The oracle: each setup alone, on a runner of its own, with
        // nothing remembered from earlier runs.
        core::RunMemo::global().clear();
        std::vector<core::RunOutcome> alone;
        for (const auto &s : setups) {
            core::ExperimentRunner runner(spec.experiment);
            core::RunOutcome o;
            o.baseline = runner.runSide(spec.experiment.baseline, s);
            if (kind == campaign::RepetitionPlan::Kind::Single)
                o.treatment =
                    runner.runSide(spec.experiment.treatment, s, true);
            alone.push_back(o);
            core::RunMemo::global().clear();
        }
        for (const unsigned jobs : {1u, 3u}) {
            SCOPED_TRACE("plan kind " + std::to_string(int(kind)) +
                         " at --jobs " + std::to_string(jobs));
            core::RunMemo::global().clear();
            CampaignOptions opts;
            opts.jobs = jobs;
            const auto report = CampaignEngine(spec, opts).run();
            ASSERT_EQ(report.bias.outcomes.size(), setups.size());
            EXPECT_EQ(report.stats.executed, setups.size() - 2);
            EXPECT_EQ(report.stats.cacheHits, 2u);
            for (std::size_t i = 0; i < setups.size(); ++i) {
                const auto &o = report.bias.outcomes[i];
                EXPECT_EQ(o.setup, setups[i]);
                EXPECT_EQ(o.baseline, alone[i].baseline)
                    << "task " << i << " at --jobs " << jobs;
                if (kind == campaign::RepetitionPlan::Kind::Single) {
                    EXPECT_EQ(o.treatment, alone[i].treatment)
                        << "task " << i << " at --jobs " << jobs;
                }
            }
        }
    }
    core::RunMemo::global().clear();
}

TEST(CampaignDeterminism, ExpansionIsAPureFunctionOfSpec)
{
    CampaignSpec spec;
    spec.withSpace(core::SetupSpace().varyEnvSize().varyLinkOrder(), 32)
        .withSeed(3);
    const auto a = spec.expand();
    const auto b = spec.expand();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].setup, b[i].setup);
        EXPECT_EQ(a[i].taskSeed, b[i].taskSeed);
        EXPECT_EQ(a[i].index, i);
    }
    // Distinct seeds sample distinct setup sequences.
    CampaignSpec other = spec;
    other.withSeed(4);
    const auto c = other.expand();
    unsigned same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        same += a[i].setup == c[i].setup;
    EXPECT_LT(same, 4u);
}

} // namespace
