/**
 * @file
 * The fast interpreter's contract, held the strong way: for every
 * workload of the suite, across setups (environment sizes, link
 * orders), machine presets, and every ablation switch, the plan-based
 * fast path must produce a RunResult — cycles AND every performance
 * counter — bitwise identical to the reference interpreter's.  Any
 * divergence is a bug in the fast path, never acceptable noise: the
 * whole point of the toolkit is that measurement infrastructure must
 * not perturb measured numbers.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/setup.hh"
#include "isa/builder.hh"
#include "sim/machine.hh"
#include "sim/plan.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;

toolchain::ProcessImage
imageFor(const std::string &workload, const toolchain::LinkOrder &order,
         std::uint64_t env_bytes)
{
    const auto &w = workloads::findWorkload(workload);
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    auto mods = cc.compile(w.build({}));
    toolchain::Linker linker;
    auto prog = linker.link(mods, order);
    toolchain::LoaderConfig lc;
    lc.envBytes = env_bytes;
    return toolchain::Loader::load(std::move(prog), lc);
}

sim::RunResult
runWith(const sim::MachineConfig &mc, const toolchain::ProcessImage &image,
        bool fast, std::uint64_t max_insts = 500'000'000)
{
    sim::Machine machine(mc);
    machine.setUseFastPath(fast);
    return machine.run(image, max_insts);
}

/** A hot straight-line kernel: long unrolled ALU runs between
 *  branches, so budgets can cut a run deep inside a basic block. */
toolchain::ProcessImage
straightLineImage()
{
    using namespace isa;
    ProgramBuilder b("sb_kernel");
    b.func("main");
    b.li(reg::t0, 500);
    b.li(reg::s0, 0x1234);
    b.label("loop");
    for (int g = 0; g < 24; ++g) {
        b.addi(reg::s0, reg::s0, g + 1);
        b.xori(reg::s1, reg::s1, 0x5a5a);
        b.add(reg::s2, reg::s2, reg::s0);
        b.addi(reg::s3, reg::s3, 7);
    }
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, "loop");
    b.add(reg::s1, reg::s1, reg::s2);
    b.add(reg::s1, reg::s1, reg::s3);
    b.add(reg::s1, reg::s1, reg::s0);
    b.mv(reg::a0, reg::s1);
    b.halt();
    b.endFunc();
    auto prog = toolchain::Linker().link({b.build()});
    toolchain::LoaderConfig lc;
    lc.envBytes = 1024;
    return toolchain::Loader::load(std::move(prog), lc);
}

void
expectIdentical(const sim::MachineConfig &mc,
                const toolchain::ProcessImage &image,
                const std::string &what,
                std::uint64_t max_insts = 500'000'000)
{
    const auto ref = runWith(mc, image, false, max_insts);
    const auto fast = runWith(mc, image, true, max_insts);
    EXPECT_EQ(fast, ref) << what << ": fast path diverged (cycles "
                         << fast.cycles() << " vs " << ref.cycles()
                         << ")";
}

TEST(FastPathDifferential, WholeSuiteAcrossSetups)
{
    // Every workload, each in its own setup (env size and link order
    // rotate with the suite index, so the set of exercised layouts is
    // diverse without running the full cross product every build).
    const auto &suite = workloads::suite();
    ASSERT_GE(suite.size(), 12u);
    const auto mc = sim::MachineConfig::core2Like();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::string name = suite[i]->name();
        const std::uint64_t env = (317 * i * i) % 4096;
        const auto order =
            i % 3 == 0 ? toolchain::LinkOrder::asGiven()
                       : toolchain::LinkOrder::shuffled(0x9e37 + i);
        expectIdentical(mc, imageFor(name, order, env),
                        name + " env=" + std::to_string(env));
    }
}

TEST(FastPathDifferential, AllMachinePresets)
{
    const auto image =
        imageFor("perl", toolchain::LinkOrder::shuffled(7), 1234);
    for (const auto &mc : sim::MachineConfig::allPresets())
        expectIdentical(mc, image, "perl on " + mc.name);
}

TEST(FastPathDifferential, EveryAblationSwitch)
{
    // Flip each ablation flag off (and the prefetcher on) one at a
    // time: each switch steers a different branch of the fast loop.
    const auto image =
        imageFor("sjeng", toolchain::LinkOrder::shuffled(3), 2048);
    using Mutator = void (*)(sim::MachineConfig &);
    const std::pair<const char *, Mutator> variants[] = {
        {"noFetchBlocks",
         [](sim::MachineConfig &m) { m.enableFetchBlockModel = false; }},
        {"noBtb", [](sim::MachineConfig &m) { m.enableBtb = false; }},
        {"noStoreBuffer",
         [](sim::MachineConfig &m) {
             m.enableStoreBufferAliasing = false;
         }},
        {"noLineSplit",
         [](sim::MachineConfig &m) { m.enableLineSplitPenalty = false; }},
        {"noCaches",
         [](sim::MachineConfig &m) { m.enableCaches = false; }},
        {"noTlbs", [](sim::MachineConfig &m) { m.enableTlbs = false; }},
        {"noBranchPrediction",
         [](sim::MachineConfig &m) {
             m.enableBranchPrediction = false;
         }},
        {"withPrefetch",
         [](sim::MachineConfig &m) {
             m.enableNextLinePrefetch = true;
         }},
        {"bimodal",
         [](sim::MachineConfig &m) {
             m.predictor = sim::PredictorKind::Bimodal;
         }},
        // An OoO window that hides nothing: every producer-consumer
        // latency is exposed as a stall.
        {"oooWindow0",
         [](sim::MachineConfig &m) { m.oooWindowCycles = 0; }},
    };
    for (const auto &[label, mutate] : variants) {
        auto mc = sim::MachineConfig::core2Like();
        mutate(mc);
        expectIdentical(mc, image, std::string("sjeng ") + label);
    }
}

TEST(FastPathDifferential, InstructionBudgetTruncation)
{
    // A run cut off by max_insts (halted = false) must truncate at
    // the same instruction with the same partial counters.
    const auto image =
        imageFor("bzip", toolchain::LinkOrder::asGiven(), 512);
    const auto mc = sim::MachineConfig::core2Like();
    for (std::uint64_t budget : {1ull, 100ull, 7777ull, 50'000ull}) {
        const auto ref = runWith(mc, image, false, budget);
        const auto fast = runWith(mc, image, true, budget);
        EXPECT_EQ(fast, ref)
            << "bzip truncated at " << budget << " insts";
    }
    EXPECT_FALSE(runWith(mc, image, true, 100).halted);

    // Budgets that land inside long straight-line runs, away from any
    // branch or memory op.
    const auto straight = straightLineImage();
    for (std::uint64_t budget :
         {1ull, 7ull, 97ull, 1000ull, 12'345ull}) {
        const auto ref = runWith(mc, straight, false, budget);
        const auto fast = runWith(mc, straight, true, budget);
        EXPECT_EQ(fast, ref)
            << "straight-line kernel truncated at " << budget << " insts";
    }
    EXPECT_FALSE(runWith(mc, straight, true, 100).halted);
}

TEST(FastPathDifferential, PlanStructureInvariants)
{
    // The return-address table is the inverse of the placed pcs.
    const auto image =
        imageFor("hmmer", toolchain::LinkOrder::shuffled(11), 0);
    const auto plan = sim::ExecutionPlan::build(image.program);
    const auto &ops = plan->ops;
    ASSERT_FALSE(ops.empty());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const auto off = std::size_t(ops[i].pc - plan->codeBase);
        EXPECT_EQ(plan->idxByOffset.at(off), std::uint32_t(i));
    }
}

} // namespace
