/**
 * @file
 * The bundled .asm assets under workloads/asm/: every builtin kernel
 * has one, the manifest loads, the assembled modules fingerprint
 * identically to the C++-built originals, the manifest's pinned
 * expect checksum matches the reference result, and the full
 * pipeline (compile, link, load, simulate) produces a bitwise
 * identical RunResult from either source — and, per asset, the
 * reference and fast interpreters agree bit for bit.
 */
#include <gtest/gtest.h>

#include <string>

#include "lang/asm_workload.hh"
#include "sim/machine.hh"
#include "toolchain/artifacts.hh"
#include "toolchain/compiler.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mbias;

sim::RunResult
runPipeline(const workloads::Workload &w)
{
    toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                           toolchain::OptLevel::O2);
    auto mods = cc.compile(w.build({}));
    toolchain::Linker linker;
    auto linked = linker.link(mods);
    const auto image = toolchain::Loader::load(std::move(linked), {});
    sim::Machine machine(sim::MachineConfig::core2Like());
    return machine.run(image);
}

TEST(AsmAssets, EveryBuiltinKernelPinnedBitwise)
{
    const std::string dir =
        std::string(MBIAS_SOURCE_DIR) + "/workloads/asm/";
    for (const auto *w : workloads::suite()) {
        const auto loaded = lang::loadAsmWorkload(dir + w->name() +
                                                  ".toml");
        ASSERT_TRUE(loaded.ok()) << loaded.error;
        EXPECT_EQ(loaded.workload->name(), w->name() + "_asm");

        // Same pre-toolchain modules, bit for bit.
        EXPECT_EQ(toolchain::fingerprintModules(
                      loaded.workload->build({})),
                  toolchain::fingerprintModules(w->build({})))
            << w->name();

        // The manifest's pinned checksum is the reference result.
        EXPECT_EQ(loaded.workload->referenceResult({}),
                  w->referenceResult({}))
            << w->name();

        // And the whole pipeline agrees, counter for counter.
        const auto from_asm = runPipeline(*loaded.workload);
        const auto from_cpp = runPipeline(*w);
        ASSERT_TRUE(from_cpp.halted) << w->name();
        EXPECT_EQ(from_asm, from_cpp)
            << w->name() << ": asset RunResult diverged";
        EXPECT_EQ(from_cpp.result, w->referenceResult({})) << w->name();
    }
}

TEST(AsmAssets, TierDifferentialAcrossAssets)
{
    // The asm-sourced programs through both interpreter tiers, env
    // size and link order rotating with the asset index: the fast
    // path's bitwise contract must hold for text-authored programs
    // exactly as it does for the C++-built suite.
    const std::string dir =
        std::string(MBIAS_SOURCE_DIR) + "/workloads/asm/";
    const auto mc = sim::MachineConfig::core2Like();
    const auto suite = workloads::suite();
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto loaded =
            lang::loadAsmWorkload(dir + suite[i]->name() + ".toml");
        ASSERT_TRUE(loaded.ok()) << loaded.error;

        toolchain::Compiler cc(toolchain::CompilerVendor::GccLike,
                               toolchain::OptLevel::O2);
        auto mods = cc.compile(loaded.workload->build({}));
        toolchain::Linker linker;
        const auto order =
            i % 2 == 0 ? toolchain::LinkOrder::asGiven()
                       : toolchain::LinkOrder::shuffled(0x41c3 + i);
        auto linked = linker.link(mods, order);
        toolchain::LoaderConfig lc;
        lc.envBytes = (199 * i * i) % 4096;
        const auto image = toolchain::Loader::load(std::move(linked), lc);

        sim::Machine ref_m(mc);
        ref_m.setUseFastPath(false);
        const auto ref = ref_m.run(image);
        sim::Machine fast_m(mc);
        const auto fast = fast_m.run(image);

        ASSERT_TRUE(ref.halted) << loaded.workload->name();
        EXPECT_EQ(fast, ref)
            << loaded.workload->name() << ": fast path diverged";
    }
}

} // namespace
