/**
 * @file
 * The machine-backend layer's contract: every backend in the
 * MachineRegistry must run every simulator tier (reference, fast,
 * lockstep lanes) with bitwise identical results.  On top of the
 * per-backend three-tier differential this file pins the registry's
 * shape (paper presets first, in paper order), the DVFS noise
 * factor's reference-vs-plan transcription on both core models, and
 * the in-order policy's observable properties (exposed stalls,
 * fetch-realignment charges).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/machine.hh"
#include "sim/registry.hh"
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
    auto prog = std::make_shared<const toolchain::LinkedProgram>(
        linker.link(mods, order));
    toolchain::LoaderConfig lc;
    lc.envBytes = env_bytes;
    return toolchain::Loader::load(std::move(prog), lc);
}

/**
 * One backend through all three tiers on one image: reference (fast
 * path forced off), fast, and a lane batch of noisy repetitions plus
 * an ASLR draw.  Every result must equal the reference bits.
 */
void
expectThreeTierIdentical(const sim::MachineBackend &backend,
                         const toolchain::ProcessImage &image,
                         const std::string &what)
{
    const std::uint64_t budget = 500'000'000;

    sim::Machine reference(backend.config);
    reference.setUseFastPath(false);
    const auto ref = reference.run(image, budget);
    ASSERT_TRUE(ref.halted) << what;

    sim::Machine fast(backend.config);
    EXPECT_EQ(fast.run(image, budget), ref)
        << what << ": fast tier diverged from reference";

    // Two noise seeds and a quiet ASLR draw of the same program, as
    // lanes of one batch; each must match the reference run of its
    // own image and seed.
    toolchain::LoaderConfig lc = image.loaderConfig;
    lc.aslrSeed = 0xa51 + ref.result % 5;
    const auto draw = toolchain::Loader::load(image.program, lc);
    const auto noise0 = sim::NoiseModel::withSeed(0xc04f + ref.result % 7);
    auto noise1 = noise0;
    noise1.seed += 1;
    const std::vector<sim::Machine::Lane> lanes = {
        {&image, noise0}, {&image, noise1}, {&draw, sim::NoiseModel::none()}};
    const auto got = fast.runLanes(lanes, budget);
    for (std::size_t i = 0; i < lanes.size(); ++i)
        EXPECT_EQ(got[i], reference.run(*lanes[i].image, budget,
                                        lanes[i].noise))
            << what << ": lane " << i << " diverged";
}

TEST(BackendConformance, RegistryShape)
{
    const auto &reg = sim::MachineRegistry::global();
    // Paper presets lead, in paper order, and allPresets() forwards to
    // exactly them — the invariant every pinned golden rests on.
    const auto presets = sim::MachineConfig::allPresets();
    ASSERT_EQ(presets.size(), 3u);
    EXPECT_EQ(presets[0].name, "p4like");
    EXPECT_EQ(presets[1].name, "core2like");
    EXPECT_EQ(presets[2].name, "o3like");
    ASSERT_GE(reg.backends().size(), 4u);
    for (std::size_t i = 0; i < presets.size(); ++i) {
        EXPECT_EQ(reg.backends()[i].config.name, presets[i].name);
        EXPECT_TRUE(reg.backends()[i].paperPreset);
        EXPECT_EQ(reg.backends()[i].coreModel, "out-of-order");
    }
    const auto *inorder = reg.byName("inorderlike");
    ASSERT_NE(inorder, nullptr);
    EXPECT_FALSE(inorder->paperPreset);
    EXPECT_EQ(inorder->coreModel, "in-order");
    EXPECT_EQ(reg.byName("nosuch"), nullptr);
    EXPECT_NE(reg.namesJoined().find("inorderlike"), std::string::npos);
}

TEST(BackendConformance, ThreeTierDifferentialEveryBackend)
{
    // Every registered backend over a few setups of two workloads with
    // different character (pointer-chasing vs branchy integer), each
    // in its own layout family.
    const auto &reg = sim::MachineRegistry::global();
    std::size_t b = 0;
    for (const auto &backend : reg.backends()) {
        const std::uint64_t env = (911 * b * b) % 4096;
        const auto order = b % 2 ? toolchain::LinkOrder::shuffled(0xbac + b)
                                 : toolchain::LinkOrder::asGiven();
        expectThreeTierIdentical(backend, imageFor("mcf", order, env),
                                 backend.config.name + "/mcf env=" +
                                     std::to_string(env));
        expectThreeTierIdentical(
            backend, imageFor("sjeng", order, 4096 - env),
            backend.config.name + "/sjeng env=" +
                std::to_string(4096 - env));
        ++b;
    }
}

TEST(BackendConformance, DvfsNoiseAcrossTiers)
{
    // The DVFS factor's reference-loop and plan-loop transcriptions
    // must agree bitwise on both core models: a single run and a lane
    // batch under combined interrupt+DVFS noise, each against the
    // reference run of the same model.
    const auto image =
        imageFor("hmmer", toolchain::LinkOrder::shuffled(5), 300);
    const std::uint64_t budget = 500'000'000;
    for (const char *name : {"core2like", "inorderlike"}) {
        const auto *backend =
            sim::MachineRegistry::global().byName(name);
        ASSERT_NE(backend, nullptr);
        auto noise0 = sim::NoiseModel::withDvfs(0x1d7f);
        // Tighten the governor so several steps land inside this
        // workload's ~10^5-cycle run (the default interval is sized
        // for longer runs and can miss it entirely).
        noise0.dvfsMeanIntervalCycles = 20000;
        noise0.dvfsMeanResidencyCycles = 5000;
        sim::Machine plain(backend->config);
        plain.setUseFastPath(false);
        const auto ref = plain.run(image, budget, noise0);
        // The factor must actually perturb timing relative to
        // interrupt-only noise of the same seed.
        auto interrupts_only = noise0;
        interrupts_only.dvfsEnabled = false;
        EXPECT_NE(ref.cycles(),
                  plain.run(image, budget, interrupts_only).cycles())
            << name << ": DVFS steps changed nothing";
        std::vector<sim::Machine::Lane> lanes = {{&image, noise0}};
        for (std::uint64_t s = 1; s <= 2; ++s) {
            auto noise = noise0;
            noise.seed += s;
            noise.dvfsSlowdownPercent = 40;
            lanes.push_back({&image, noise});
        }
        sim::Machine machine(backend->config);
        EXPECT_EQ(machine.run(image, budget, noise0), ref)
            << name << ": DVFS single run diverged";
        const auto got = machine.runLanes(lanes, budget);
        for (std::size_t i = 0; i < lanes.size(); ++i)
            EXPECT_EQ(got[i], plain.run(image, budget, lanes[i].noise))
                << name << ": DVFS lane " << i << " diverged";
    }
}

TEST(BackendConformance, InOrderPolicyProperties)
{
    // Same geometry, swapped core policy: the in-order model may hide
    // nothing, so with a nonzero OoO window the same image can only
    // get slower.  Enabling the fetch-realignment charge slows it
    // further (taken transfers into mid-block targets now refetch).
    const auto image =
        imageFor("bzip", toolchain::LinkOrder::asGiven(), 512);
    auto ooo = sim::MachineConfig::core2Like();
    auto in_order = ooo;
    in_order.name = "core2_inorder_twin";
    in_order.core = sim::CoreKind::InOrder;
    in_order.fetchRealignPenalty = 0;

    sim::Machine a(ooo), b(in_order);
    const auto ra = a.run(image);
    const auto rb = b.run(image);
    EXPECT_EQ(ra.result, rb.result) << "core policy must not change "
                                       "functional behavior";
    EXPECT_EQ(ra.instructions(), rb.instructions());
    EXPECT_GT(rb.cycles(), ra.cycles());
    EXPECT_GT(rb.counters.get(sim::Counter::StallCycles),
              ra.counters.get(sim::Counter::StallCycles));

    auto realign = in_order;
    realign.fetchRealignPenalty = 2;
    sim::Machine c(realign);
    EXPECT_GT(c.run(image).cycles(), rb.cycles())
        << "fetch-realignment charge had no effect";
}

} // namespace
