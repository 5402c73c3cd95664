/**
 * @file
 * The process-wide run memo: its key covers every input the simulator
 * sees — every MachineConfig field, not the machine's name, since the
 * ablation variants keep their preset's name — and a hit is exactly
 * the RunResult a fresh Machine gives.
 */
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/memo.hh"
#include "core/runner.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;
using namespace mbias::core;

/** Runs @p setup of @p spec's baseline on a fresh Machine, past every
 *  cache and memo. */
sim::RunResult
freshRun(const ExperimentSpec &spec, const sim::MachineConfig &mc,
         const ExperimentSetup &setup)
{
    const auto &w = workloads::findWorkload(spec.workload);
    toolchain::Compiler cc(spec.baseline.vendor, spec.baseline.level);
    toolchain::LoaderConfig lc;
    lc.envBytes = setup.envBytes;
    const auto image = toolchain::Loader::load(
        toolchain::Linker().link(cc.compile(w.build(spec.workloadConfig)),
                                 setup.linkOrder),
        lc);
    sim::Machine machine(mc);
    return machine.run(image);
}

TEST(RunMemo, KeyCoversEveryMachineField)
{
    const toolchain::CompiledModules mods{{}, 1, 2, 0};
    const auto order = toolchain::LinkOrder::shuffled(3);
    const toolchain::LoaderConfig lc;
    const auto base = sim::MachineConfig::core2Like();
    const auto key = [&](const sim::MachineConfig &mc) {
        return runKey(mods, order, lc, mc, 1000, sim::NoiseModel::none());
    };
    const std::vector<std::function<void(sim::MachineConfig &)>> tweaks = {
        [](auto &m) { m.fetchBlockBytes = 32; },
        [](auto &m) { m.fetchWidth = 3; },
        [](auto &m) { m.branchMispredictPenalty += 1; },
        [](auto &m) { m.btbMissPenalty += 1; },
        [](auto &m) { m.btbSets = 256; },
        [](auto &m) { m.btbWays = 2; },
        [](auto &m) { m.predictor = sim::PredictorKind::Bimodal; },
        [](auto &m) { m.predictorTableBits += 1; },
        [](auto &m) { m.predictorHistoryBits += 1; },
        [](auto &m) { m.icache.sets *= 2; },
        [](auto &m) { m.dcache.ways += 1; },
        [](auto &m) { m.dcache.hitLatency += 1; },
        [](auto &m) { m.l2.missPenalty += 1; },
        [](auto &m) { m.l2.lineBytes = 128; },
        [](auto &m) { m.itlb.entries += 1; },
        [](auto &m) { m.dtlb.pageBytes = 8192; },
        [](auto &m) { m.dtlb.missPenalty += 1; },
        [](auto &m) { m.storeBufferEntries += 1; },
        [](auto &m) { m.aliasWindowBits += 1; },
        [](auto &m) { m.aliasPenalty += 1; },
        [](auto &m) { m.lineSplitPenalty += 1; },
        [](auto &m) { m.enableNextLinePrefetch = true; },
        [](auto &m) { m.core = sim::CoreKind::InOrder; },
        [](auto &m) { m.intMulLatency += 1; },
        [](auto &m) { m.intDivLatency += 1; },
        [](auto &m) { m.oooWindowCycles += 1; },
        [](auto &m) { m.fetchRealignPenalty += 1; },
        [](auto &m) { m.enableFetchBlockModel = false; },
        [](auto &m) { m.enableBtb = false; },
        [](auto &m) { m.enableStoreBufferAliasing = false; },
        [](auto &m) { m.enableLineSplitPenalty = false; },
        [](auto &m) { m.enableCaches = false; },
        [](auto &m) { m.enableTlbs = false; },
        [](auto &m) { m.enableBranchPrediction = false; },
        [](auto &m) { m.name = "core2like+"; },
    };
    for (std::size_t t = 0; t < tweaks.size(); ++t) {
        auto mc = base;
        tweaks[t](mc);
        EXPECT_FALSE(key(mc) == key(base)) << "tweak " << t;
    }
    EXPECT_TRUE(key(sim::MachineConfig::core2Like()) == key(base));

    // And every other input.
    const auto other = [&](auto edit) {
        toolchain::CompiledModules m = mods;
        auto o = order;
        toolchain::LoaderConfig l = lc;
        std::uint64_t budget = 1000;
        auto noise = sim::NoiseModel::none();
        edit(m, o, l, budget, noise);
        return runKey(m, o, l, base, budget, noise);
    };
    const RunKey same = other([](auto &...) {});
    EXPECT_TRUE(same == key(base));
    EXPECT_FALSE(other([](auto &m, auto &...) { m.fingerprintLo ^= 1; }) ==
                 same);
    EXPECT_FALSE(other([](auto &, auto &o, auto &...) {
                     o = toolchain::LinkOrder::shuffled(4);
                 }) == same);
    EXPECT_FALSE(other([](auto &, auto &, auto &l, auto &...) {
                     l.envBytes = 16;
                 }) == same);
    EXPECT_FALSE(other([](auto &, auto &, auto &l, auto &...) {
                     l.aslrSeed = 5;
                 }) == same);
    EXPECT_FALSE(other([](auto &, auto &, auto &l, auto &...) {
                     l.spAlign = 16;
                 }) == same);
    EXPECT_FALSE(other([](auto &, auto &, auto &, auto &b, auto &) {
                     b = 999;
                 }) == same);
    EXPECT_FALSE(other([](auto &, auto &, auto &, auto &, auto &n) {
                     n = sim::NoiseModel::withSeed(0);
                 }) == same);
}

TEST(RunMemo, SameNamedMachinesNeverShareAnEntry)
{
    // The ablation figure's shape: core2like with one mechanism off,
    // still named "core2like".  Each runner must get its own
    // machine's run, not the other's from the memo.
    RunMemo::global().clear();
    ExperimentSpec full;
    full.withWorkload("mcf");
    ExperimentSpec ablated = full;
    ablated.machine.enableCaches = false;
    ASSERT_EQ(ablated.machine.name, full.machine.name);

    ExperimentSetup setup;
    setup.envBytes = 96;
    const auto a = ExperimentRunner(full).runSide(full.baseline, setup);
    const auto b =
        ExperimentRunner(ablated).runSide(ablated.baseline, setup);
    EXPECT_EQ(RunMemo::global().size(), 2u);
    EXPECT_EQ(a, freshRun(full, full.machine, setup));
    EXPECT_EQ(b, freshRun(ablated, ablated.machine, setup));
    EXPECT_NE(a.cycles(), b.cycles());
}

TEST(RunMemo, HitIsTheFreshRun)
{
    RunMemo::global().clear();
    ExperimentSpec spec;
    spec.withWorkload("perl");
    std::vector<ExperimentSetup> family(5);
    for (std::size_t i = 0; i < family.size(); ++i) {
        family[i].envBytes = 200 * i;
        family[i].linkOrder = toolchain::LinkOrder::shuffled(6);
    }

    ExperimentRunner first(spec);
    const auto lanes = first.runSides(spec.baseline, family);
    EXPECT_EQ(RunMemo::global().size(), family.size());

    // A second runner (another figure of the same process) is served
    // from the memo: nothing new is remembered, and every result is
    // the one a fresh Machine gives.
    ExperimentRunner second(spec);
    for (std::size_t i = 0; i < family.size(); ++i) {
        const auto hit = second.runSide(spec.baseline, family[i]);
        EXPECT_EQ(hit, lanes[i]) << i;
        EXPECT_EQ(hit, freshRun(spec, spec.machine, family[i])) << i;
    }
    EXPECT_EQ(second.runSides(spec.baseline, family), lanes);
    EXPECT_EQ(RunMemo::global().size(), family.size());
    RunMemo::global().clear();
}

} // namespace
