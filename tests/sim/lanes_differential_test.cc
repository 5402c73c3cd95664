/**
 * @file
 * The lockstep-lanes contract, held the fast path's strong way: every
 * lane of a Machine::runLanes batch must produce a RunResult — cycles
 * AND every performance counter — bitwise identical to the reference
 * interpreter's run of that lane's own image and noise model.  Lanes
 * share one functional pass and the front end, so the cases below
 * vary exactly what they must not share: ASLR and env-size stack
 * deltas, interrupt and DVFS noise (alone, mixed with quiet lanes),
 * every backend and ablation switch, batch edges (1, 7, 8, 9 and 33
 * lanes around kLaneWidth = 8) and truncating budgets.  A ctest leg
 * reruns the file under MBIAS_SIM_REFERENCE=1, where runLanes must
 * degrade to per-lane reference runs with the same bits.  The last
 * tests pin the benchmark's compatibility wrappers (sim/replay.hh).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/builder.hh"
#include "sim/machine.hh"
#include "sim/registry.hh"
#include "sim/replay.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;
using Lane = sim::Machine::Lane;

std::shared_ptr<const toolchain::LinkedProgram>
programFor(const std::string &workload, const toolchain::LinkOrder &order)
{
    const auto &w = workloads::findWorkload(workload);
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    auto mods = cc.compile(w.build({}));
    return std::make_shared<const toolchain::LinkedProgram>(
        toolchain::Linker().link(mods, order));
}

/**
 * @p n loads of one program, as a repetition family sees them: draw i
 * under ASLR seed aslr_base + i (0 keeps the base layout) and env size
 * env_base + env_step * i.
 */
std::vector<toolchain::ProcessImage>
draws(const std::shared_ptr<const toolchain::LinkedProgram> &prog,
      unsigned n, std::uint64_t aslr_base, std::uint64_t env_base = 512,
      std::uint64_t env_step = 0)
{
    std::vector<toolchain::ProcessImage> out;
    for (unsigned i = 0; i < n; ++i) {
        toolchain::LoaderConfig lc;
        lc.envBytes = env_base + env_step * i;
        lc.aslrSeed = aslr_base ? aslr_base + i : 0;
        out.push_back(toolchain::Loader::load(prog, lc));
    }
    return out;
}

/** One lane per image; lane i gets noise_for(i). */
template <class NoiseFor>
std::vector<Lane>
lanesOf(const std::vector<toolchain::ProcessImage> &images,
        NoiseFor &&noise_for)
{
    std::vector<Lane> lanes;
    for (unsigned i = 0; i < images.size(); ++i)
        lanes.push_back({&images[i], noise_for(i)});
    return lanes;
}

std::vector<Lane>
quietLanes(const std::vector<toolchain::ProcessImage> &images)
{
    return lanesOf(images, [](unsigned) { return sim::NoiseModel::none(); });
}

/** The ground truth for one lane: the reference interpreter. */
sim::RunResult
referenceRun(const sim::MachineConfig &mc, const toolchain::ProcessImage &image,
             std::uint64_t budget, const sim::NoiseModel &noise)
{
    sim::Machine machine(mc);
    machine.setUseFastPath(false);
    return machine.run(image, budget, noise);
}

void
expectLanesIdentical(const sim::MachineConfig &mc,
                     const std::vector<Lane> &lanes, const std::string &what,
                     std::uint64_t budget = sim::Machine::kDefaultRunBudget)
{
    sim::Machine machine(mc);
    const auto got = machine.runLanes(lanes, budget);
    ASSERT_EQ(got.size(), lanes.size()) << what;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const auto ref =
            referenceRun(mc, *lanes[i].image, budget, lanes[i].noise);
        EXPECT_EQ(got[i], ref)
            << what << ": lane " << i << " of " << lanes.size()
            << " diverged (cycles " << got[i].cycles() << " vs "
            << ref.cycles() << ")";
    }
}

/** A hot kernel with loads/stores/calls on the stack, so every lane's
 *  rebased stack addresses reach its caches, TLB and store buffer. */
std::shared_ptr<const toolchain::LinkedProgram>
kernelProgram()
{
    using namespace isa;
    ProgramBuilder b("lanes_kernel");
    b.func("main");
    b.li(reg::t0, 300);
    b.li(reg::s0, 0);
    b.label("loop");
    b.call("body");
    b.addi(reg::t0, reg::t0, -1);
    b.bne(reg::t0, reg::zero, "loop");
    b.mv(reg::a0, reg::s0);
    b.halt();
    b.endFunc();
    b.func("body");
    b.addi(reg::sp, reg::sp, -32);
    b.st8(reg::s1, reg::sp, 0);
    b.st8(reg::s2, reg::sp, 8);
    b.addi(reg::s1, reg::s0, 17);
    b.xori(reg::s2, reg::s1, 0x2a2a);
    b.add(reg::s0, reg::s0, reg::s2);
    b.ld8(reg::s2, reg::sp, 8);
    b.ld8(reg::s1, reg::sp, 0);
    b.addi(reg::sp, reg::sp, 32);
    b.ret();
    b.endFunc();
    return std::make_shared<const toolchain::LinkedProgram>(
        toolchain::Linker().link({b.build()}));
}

/** Returns a stack address in a0: each lane's result must be its own
 *  stack pointer, i.e. lane 0's rebased. */
std::shared_ptr<const toolchain::LinkedProgram>
stackResultProgram()
{
    using namespace isa;
    ProgramBuilder b("lanes_sp_result");
    b.func("main");
    b.addi(reg::sp, reg::sp, -16);
    b.st8(reg::sp, reg::sp, 0);
    b.ld8(reg::a0, reg::sp, 0);
    b.halt();
    b.endFunc();
    return std::make_shared<const toolchain::LinkedProgram>(
        toolchain::Linker().link({b.build()}));
}

TEST(LanesDifferential, WholeSuiteEveryBackend)
{
    // Every workload of the suite on every registered backend, each in
    // its own link order: one quiet ASLR family (shared L1I) and one
    // noisy family (per-lane L1I) per pair.
    const auto &suite = workloads::suite();
    ASSERT_GE(suite.size(), 12u);
    const auto &backends = sim::MachineRegistry::global().backends();
    ASSERT_GE(backends.size(), 4u);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::string name = suite[i]->name();
        const auto order = i % 4 == 2
                               ? toolchain::LinkOrder::asGiven()
                               : toolchain::LinkOrder::shuffled(0x1a7e + i);
        const auto prog = programFor(name, order);
        const auto images = draws(prog, 3, 0x51 + 5 * i, (397 * i) % 4096);
        for (const auto &backend : backends) {
            const std::string what = name + " on " + backend.config.name;
            expectLanesIdentical(backend.config, quietLanes(images),
                                 what + " (quiet)");
            expectLanesIdentical(
                backend.config,
                lanesOf(images,
                        [&](unsigned l) {
                            return l == 1 ? sim::NoiseModel::none()
                                          : sim::NoiseModel::withSeed(
                                                0x9e1ce + 7 * i + l);
                        }),
                what + " (noisy)");
        }
    }
}

TEST(LanesDifferential, EveryAblationSwitch)
{
    // Each ablation flag off (and the prefetcher on) one at a time:
    // each switch steers a different branch of the lane loops.
    const auto prog = programFor("sjeng", toolchain::LinkOrder::shuffled(3));
    const auto images = draws(prog, 3, 0xab1, 2048, 40);
    using Mutator = void (*)(sim::MachineConfig &);
    const std::pair<const char *, Mutator> variants[] = {
        {"noFetchBlocks",
         [](sim::MachineConfig &m) { m.enableFetchBlockModel = false; }},
        {"noBtb", [](sim::MachineConfig &m) { m.enableBtb = false; }},
        {"noStoreBuffer",
         [](sim::MachineConfig &m) { m.enableStoreBufferAliasing = false; }},
        {"noLineSplit",
         [](sim::MachineConfig &m) { m.enableLineSplitPenalty = false; }},
        {"noCaches", [](sim::MachineConfig &m) { m.enableCaches = false; }},
        {"noTlbs", [](sim::MachineConfig &m) { m.enableTlbs = false; }},
        {"noBranchPrediction",
         [](sim::MachineConfig &m) { m.enableBranchPrediction = false; }},
        {"withPrefetch",
         [](sim::MachineConfig &m) { m.enableNextLinePrefetch = true; }},
        {"bimodal",
         [](sim::MachineConfig &m) {
             m.predictor = sim::PredictorKind::Bimodal;
         }},
        {"oooWindow0", [](sim::MachineConfig &m) { m.oooWindowCycles = 0; }},
        // Wider alias window than the store buffer's inverted index
        // covers, and more entries than its bitmap: the scan paths.
        {"wideAliasWindow",
         [](sim::MachineConfig &m) { m.aliasWindowBits = 20; }},
        {"bigStoreBuffer",
         [](sim::MachineConfig &m) { m.storeBufferEntries = 40; }},
    };
    for (const auto &[label, mutate] : variants) {
        auto mc = sim::MachineConfig::core2Like();
        mutate(mc);
        expectLanesIdentical(
            mc,
            lanesOf(images,
                    [](unsigned l) {
                        return l == 2 ? sim::NoiseModel::withSeed(77)
                                      : sim::NoiseModel::none();
                    }),
            std::string("sjeng ") + label);
    }
}

TEST(LanesDifferential, InterruptAndDvfsNoise)
{
    // The repeatedMetric shape: one image, one lane per noise seed —
    // interrupts alone, interrupts + DVFS with a governor tight enough
    // to step inside the run, DVFS alone, and a quiet lane — on both
    // core models.
    const auto prog = programFor("hmmer", toolchain::LinkOrder::shuffled(5));
    const auto image = draws(prog, 1, 0, 300);
    const std::vector<toolchain::ProcessImage> same(5, image[0]);
    for (const char *name : {"core2like", "inorderlike"}) {
        const auto *backend = sim::MachineRegistry::global().byName(name);
        ASSERT_NE(backend, nullptr);
        const auto lanes = lanesOf(same, [](unsigned l) {
            auto n = sim::NoiseModel::withDvfs(0x1d7f + l);
            n.dvfsMeanIntervalCycles = 20000;
            n.dvfsMeanResidencyCycles = 5000;
            if (l == 0)
                n.dvfsEnabled = false; // interrupts only
            if (l == 3)
                n.enabled = false; // DVFS only
            if (l == 4)
                n = sim::NoiseModel::none();
            return n;
        });
        expectLanesIdentical(backend->config, lanes,
                             std::string("hmmer noise on ") + name);
        // The factors must actually perturb timing between lanes.
        sim::Machine machine(backend->config);
        const auto got = machine.runLanes(lanes);
        EXPECT_NE(got[0].cycles(), got[1].cycles()) << name;
        EXPECT_NE(got[3].cycles(), got[4].cycles()) << name;
        EXPECT_GT(got[0].counters.get(sim::Counter::OsInterrupts), 0u);
        EXPECT_EQ(got[3].counters.get(sim::Counter::OsInterrupts), 0u);
    }
}

TEST(LanesDifferential, EnvAndAslrDeltas)
{
    // Stack deltas from the environment size and from ASLR, together
    // and apart, on a stack-heavy kernel and a real workload.
    const auto mc = sim::MachineConfig::core2Like();
    const auto kernel = kernelProgram();
    const auto env_only = draws(kernel, 6, 0, 0, 212);
    const auto aslr_only = draws(kernel, 6, 1);
    const auto both = draws(kernel, 6, 9, 100, 37);
    for (const auto *family : {&env_only, &aslr_only, &both}) {
        bool sp_moved = false;
        for (const auto &img : *family)
            sp_moved |= img.initialSp != (*family)[0].initialSp;
        EXPECT_TRUE(sp_moved) << "the family must move the stack";
        expectLanesIdentical(mc, quietLanes(*family), "kernel family");
    }
    const auto hmmer = draws(
        programFor("hmmer", toolchain::LinkOrder::asGiven()), 5, 3, 64, 101);
    expectLanesIdentical(mc, quietLanes(hmmer), "hmmer env+aslr family");

    // a0 holding a stack address is rebased per lane like any other.
    const auto sp_images = draws(stackResultProgram(), 4, 21, 0, 52);
    sim::Machine machine(mc);
    const auto got = machine.runLanes(quietLanes(sp_images));
    for (std::size_t i = 0; i < sp_images.size(); ++i)
        EXPECT_EQ(got[i].result, sp_images[i].initialSp - 16) << i;
    expectLanesIdentical(mc, quietLanes(sp_images), "stack result");
}

TEST(LanesDifferential, BatchEdges)
{
    // Lane counts around kLaneWidth: one batch, a partial batch, a full
    // one, a full one plus a single lane, and four full ones plus one.
    static_assert(sim::Machine::kLaneWidth == 8);
    const auto mc = sim::MachineConfig::core2Like();
    const auto kernel = kernelProgram();
    for (const unsigned n : {1u, 7u, 8u, 9u, 33u}) {
        const auto images = draws(kernel, n, 100 * n, 256, 12);
        expectLanesIdentical(mc, quietLanes(images),
                             std::to_string(n) + " quiet lanes");
        expectLanesIdentical(
            mc,
            lanesOf(images,
                    [](unsigned l) {
                        return l % 3 == 0 ? sim::NoiseModel::withSeed(l)
                                          : sim::NoiseModel::none();
                    }),
            std::to_string(n) + " mixed lanes");
    }
    const auto mcf = draws(programFor("mcf", toolchain::LinkOrder::asGiven()),
                           9, 0x3cf, 700);
    expectLanesIdentical(mc, quietLanes(mcf), "mcf, 9 lanes");
    sim::Machine machine(mc);
    EXPECT_TRUE(machine.runLanes({}).empty());
}

TEST(LanesDifferential, InstructionBudgetTruncation)
{
    // Budgets landing mid-loop, mid-call, mid-block: every lane stops
    // at the same instruction its own run truncates at.
    const auto mc = sim::MachineConfig::core2Like();
    const auto images = draws(kernelProgram(), 3, 40, 512, 24);
    for (const std::uint64_t budget : {1ull, 9ull, 113ull, 1000ull, 2'500ull}) {
        const auto lanes = lanesOf(images, [](unsigned l) {
            return l == 1 ? sim::NoiseModel::withSeed(0x7a0b)
                          : sim::NoiseModel::none();
        });
        expectLanesIdentical(mc, lanes,
                             "truncated at " + std::to_string(budget),
                             budget);
        sim::Machine machine(mc);
        for (const auto &rr : machine.runLanes(lanes, budget)) {
            EXPECT_FALSE(rr.halted);
            EXPECT_EQ(rr.instructions(), budget);
        }
    }
}

TEST(LanesDifferential, NoisySingleRunMatchesReference)
{
    // run() with noise is a batch of one lane now, not a reference run.
    const auto images =
        draws(programFor("bzip", toolchain::LinkOrder::shuffled(29)), 1, 0,
              1728);
    for (const auto &mc : sim::MachineConfig::allPresets()) {
        for (const std::uint64_t seed : {3ull, 12ull}) {
            const auto noise = sim::NoiseModel::withSeed(seed);
            sim::Machine machine(mc);
            EXPECT_EQ(machine.run(images[0],
                                  sim::Machine::kDefaultRunBudget, noise),
                      referenceRun(mc, images[0],
                                   sim::Machine::kDefaultRunBudget, noise))
                << "bzip on " << mc.name << " seed " << seed;
        }
    }
}

TEST(LanesDifferential, HatchesAndTierReporting)
{
    // fastTierUsable composes the build switch, MBIAS_SIM_REFERENCE
    // and the per-machine toggle; with it off, runLanes is per-lane
    // reference runs and counts no lane batch.  The active-tier
    // description advertises the same verdict.
    sim::Machine machine(sim::MachineConfig::core2Like());
    const bool active = MBIAS_SIM_FASTPATH_ENABLED &&
                        !sim::referenceForcedByEnv();
    EXPECT_EQ(machine.fastTierUsable(), active);
    machine.setUseFastPath(false);
    EXPECT_FALSE(machine.fastTierUsable());
    const auto images = draws(kernelProgram(), 3, 5);
    const auto before = sim::ReplayCache::global().stats();
    const auto got = machine.runLanes(quietLanes(images));
    const auto after = sim::ReplayCache::global().stats();
    EXPECT_EQ(after.records, before.records);
    EXPECT_EQ(after.replays, before.replays);
    for (std::size_t i = 0; i < images.size(); ++i)
        EXPECT_EQ(got[i], referenceRun(machine.config(), images[i],
                                       sim::Machine::kDefaultRunBudget,
                                       sim::NoiseModel::none()));

    const std::string desc = sim::activeSimTierDescription();
#if MBIAS_SIM_FASTPATH_ENABLED
    if (sim::referenceForcedByEnv())
        EXPECT_EQ(desc, "reference (MBIAS_SIM_REFERENCE set)");
    else
        EXPECT_EQ(desc, "fast + lanes");
#else
    EXPECT_EQ(desc, "reference (-DMBIAS_SIM_FASTPATH=OFF)");
#endif
}

TEST(LanesDifferential, BenchmarkCompatibilityWrappers)
{
    // runRecord is run() plus an identity trace, runReplay checks the
    // trace and runs, and the cache finds a family by identity — the
    // calls the benchmark harness makes per ASLR draw.
    const auto mc = sim::MachineConfig::core2Like();
    const auto images = draws(kernelProgram(), 2, 8);
    const std::uint64_t budget = sim::Machine::kDefaultRunBudget;
    sim::Machine machine(mc);
    EXPECT_EQ(sim::replayTierUsable(machine), machine.fastTierUsable());
    std::shared_ptr<const sim::FunctionalTrace> trace;
    const auto rec = machine.runRecord(images[0], budget,
                                       sim::NoiseModel::none(), &trace);
    ASSERT_NE(trace, nullptr);
    EXPECT_TRUE(trace->matches(images[1], budget));
    EXPECT_FALSE(trace->matches(images[1], budget - 1));
    EXPECT_EQ(rec, referenceRun(mc, images[0], budget,
                                sim::NoiseModel::none()));
    const auto noise = sim::NoiseModel::withSeed(4);
    EXPECT_EQ(machine.runReplay(images[1], budget, noise, *trace),
              referenceRun(mc, images[1], budget, noise));

    auto &cache = sim::ReplayCache::global();
    cache.clear();
    bool unrecordable = true;
    EXPECT_EQ(cache.find(images[0], budget, &unrecordable), nullptr);
    EXPECT_FALSE(unrecordable);
    cache.insert(images[0], budget, trace);
    EXPECT_EQ(cache.find(images[1], budget, &unrecordable), trace);
    EXPECT_GT(cache.stats().bytes, 0u);

    // A lane batch tallies one shared pass and its other lanes.
    const auto before = cache.stats();
    machine.runLanes(quietLanes(images));
    const auto after = cache.stats();
    if (machine.fastTierUsable()) {
        EXPECT_EQ(after.records, before.records + 1);
        EXPECT_EQ(after.replays, before.replays + 1);
    }
    cache.clear();
}

} // namespace
