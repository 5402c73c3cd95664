/**
 * @file
 * The workload fuzzer's two contracts.  Determinism: the same seed
 * produces a byte-identical corpus, no matter the generation order.
 * Validity: every generated program assembles (via the canonical
 * round trip), runs to completion, produces the workload-invariant
 * checksum at every opt level, and — over a 64-program corpus across
 * rotating link orders and environment sizes — the plan-based fast
 * interpreter stays bitwise identical to the reference interpreter,
 * extending the suite differential tests to machine-generated code.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lang/assembler.hh"
#include "lang/disassembler.hh"
#include "lang/fuzzer.hh"
#include "sim/machine.hh"
#include "toolchain/artifacts.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"

namespace
{

using namespace mbias;

TEST(Fuzzer, SameSeedByteIdenticalCorpus)
{
    lang::FuzzConfig cfg;
    cfg.seed = 42;
    cfg.count = 16;
    const std::string a = lang::corpusText(lang::fuzzCorpus(cfg));
    const std::string b = lang::corpusText(lang::fuzzCorpus(cfg));
    EXPECT_EQ(a, b);

    lang::FuzzConfig other = cfg;
    other.seed = 43;
    EXPECT_NE(a, lang::corpusText(lang::fuzzCorpus(other)));
}

TEST(Fuzzer, ProgramsAreOrderIndependent)
{
    // fuzzProgram is a pure function of (seed, index): drawing program
    // 7 first (or alone) yields the same bytes as drawing 0..15.
    lang::FuzzConfig cfg;
    cfg.seed = 7;
    cfg.count = 16;
    const auto corpus = lang::fuzzCorpus(cfg);
    const auto alone = lang::fuzzProgram(cfg, 7);
    EXPECT_EQ(lang::disassemble(alone.modules),
              lang::disassemble(corpus[7].modules));
    EXPECT_EQ(alone.name, corpus[7].name);
}

TEST(Fuzzer, KnobsStayInDocumentedRanges)
{
    lang::FuzzConfig cfg;
    cfg.seed = 99;
    cfg.count = 64;
    for (unsigned i = 0; i < cfg.count; ++i) {
        const auto k = lang::fuzzProgram(cfg, i).knobs;
        EXPECT_GE(k.kernels, 1u);
        EXPECT_LE(k.kernels, 3u);
        EXPECT_GE(k.bodyOps, 2u);
        EXPECT_LE(k.bodyOps, 10u);
        EXPECT_GE(k.innerTrips, 32u);
        EXPECT_LE(k.innerTrips, 512u);
        EXPECT_GE(k.outerTrips, 2u);
        EXPECT_LE(k.outerTrips, 200u);
        EXPECT_GE(k.wsWords, 64u);
        EXPECT_LE(k.wsWords, 8192u);
        EXPECT_EQ(k.wsWords & (k.wsWords - 1), 0u) << "power of two";
        EXPECT_LE(k.entropyBits, 6u);
        EXPECT_LE(k.padNops, 3u);
        EXPECT_LE(k.stackSlots, 2u);
    }
}

TEST(Fuzzer, CorpusDifferential64)
{
    // The fast path's bitwise contract, over machine-generated code:
    // 64 programs, link order and environment size rotating with the
    // index, reference vs fast interpreter, full RunResult equality —
    // and the same for lanes: the image, a noisy repetition of it and
    // an ASLR draw, run as one lockstep batch.
    lang::FuzzConfig cfg;
    cfg.seed = 2026;
    cfg.count = 64;
    const auto mc = sim::MachineConfig::core2Like();
    for (unsigned i = 0; i < cfg.count; ++i) {
        auto prog = lang::fuzzProgram(cfg, i);
        const std::string name = prog.name;
        auto w = lang::makeFuzzWorkload(std::move(prog));
        const std::uint64_t expect = w->referenceResult({});

        toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                               toolchain::OptLevel::O2);
        auto mods = cc.compile(w->build({}));
        toolchain::Linker linker;
        const auto order = i % 2 == 0
                               ? toolchain::LinkOrder::asGiven()
                               : toolchain::LinkOrder::shuffled(i);
        auto linked = linker.link(mods, order);
        toolchain::LoaderConfig lc;
        lc.envBytes = (113 * i * i) % 4096;
        const auto image = toolchain::Loader::load(std::move(linked), lc);

        sim::Machine ref_machine(mc);
        ref_machine.setUseFastPath(false);
        const auto ref = ref_machine.run(image);
        sim::Machine fast_machine(mc);
        fast_machine.setUseFastPath(true);
        const auto fast = fast_machine.run(image);

        ASSERT_TRUE(ref.halted) << name;
        EXPECT_EQ(ref.result, expect)
            << name << ": O2 result diverged from the reference checksum";
        EXPECT_EQ(fast, ref)
            << name << ": fast path diverged (cycles " << fast.cycles()
            << " vs " << ref.cycles() << ")";

        toolchain::LoaderConfig draw_lc = lc;
        draw_lc.aslrSeed = 1 + i;
        const auto draw = toolchain::Loader::load(image.program, draw_lc);
        const std::vector<sim::Machine::Lane> lanes = {
            {&image, sim::NoiseModel::none()},
            {&image, sim::NoiseModel::withSeed(i)},
            {&draw, sim::NoiseModel::none()}};
        const auto got = fast_machine.runLanes(lanes);
        for (std::size_t l = 0; l < lanes.size(); ++l)
            EXPECT_EQ(got[l], ref_machine.run(*lanes[l].image,
                                              sim::Machine::kDefaultRunBudget,
                                              lanes[l].noise))
                << name << ": lane " << l << " diverged";
    }
}

TEST(Fuzzer, ThousandProgramCorpusZeroFailures)
{
    // The acceptance bar: >= 1000 generated programs, zero assembler
    // failures (every program round-trips through the canonical
    // listing bit for bit) and zero simulator failures (every program
    // halts with the expected checksum).
    lang::FuzzConfig cfg;
    cfg.seed = 1;
    cfg.count = 1000;
    const auto mc = sim::MachineConfig::core2Like();
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    toolchain::Linker linker;
    for (unsigned i = 0; i < cfg.count; ++i) {
        auto prog = lang::fuzzProgram(cfg, i);
        const std::string name = prog.name;

        const auto res = lang::assemble(lang::disassemble(prog.modules));
        ASSERT_TRUE(res.ok())
            << name << ":\n" << res.errorText(name + ".asm");
        ASSERT_EQ(toolchain::fingerprintModules(res.modules),
                  toolchain::fingerprintModules(prog.modules))
            << name;

        auto w = lang::makeFuzzWorkload(std::move(prog));
        auto linked = linker.link(cc.compile(w->build({})));
        const auto image =
            toolchain::Loader::load(std::move(linked), {});
        sim::Machine machine(mc);
        const auto rr = machine.run(image);
        ASSERT_TRUE(rr.halted) << name;
        ASSERT_EQ(rr.result, w->referenceResult({})) << name;
    }
}

} // namespace
