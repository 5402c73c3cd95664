#ifndef MBIAS_SIM_CONFIG_HH
#define MBIAS_SIM_CONFIG_HH

#include <string>
#include <vector>

#include "base/types.hh"
#include "uarch/cache.hh"
#include "uarch/tlb.hh"

namespace mbias::sim
{

/** Direction-predictor family. */
enum class PredictorKind
{
    Bimodal,
    Gshare,
};

/**
 * Core-model family: which issue/stall policy the timing spine runs
 * under.  The memory hierarchy, predictors, and shadow structures are
 * shared; the core model decides what a producer latency costs a
 * dependent consumer and what a taken control transfer costs the
 * front end (sim/machine.cc picks the policy per backend at compile
 * time so the direct-threaded tiers keep their throughput).
 */
enum class CoreKind
{
    OutOfOrder, ///< window hides up to oooWindowCycles of latency
    InOrder,    ///< strict issue order, every stall cycle exposed
};

/**
 * Full parameterization of one simulated machine.
 *
 * Three presets model the paper's three platforms: core2Like() and
 * p4Like() stand in for the Core 2 and Pentium 4 hardware, o3Like()
 * for the m5 simulator's O3CPU — the point of the third being that
 * *simulators* exhibit measurement bias too.
 *
 * The enable* flags exist for the mechanism-ablation study
 * (bench/ablation_mechanisms): each flag removes one address-dependent
 * mechanism so its contribution to the total bias can be quantified.
 */
struct MachineConfig
{
    std::string name = "generic";

    // Front end.
    unsigned fetchBlockBytes = 16; ///< aligned fetch window
    unsigned fetchWidth = 4;       ///< max instructions decoded/cycle
    Cycles branchMispredictPenalty = 15;
    Cycles btbMissPenalty = 3;     ///< taken transfer without a target
    unsigned btbSets = 128;
    unsigned btbWays = 4;
    PredictorKind predictor = PredictorKind::Gshare;
    unsigned predictorTableBits = 12;
    unsigned predictorHistoryBits = 8;

    // Memory hierarchy.
    uarch::CacheConfig icache{64, 8, 64, 0, 12};
    uarch::CacheConfig dcache{64, 8, 64, 3, 12};
    uarch::CacheConfig l2{4096, 16, 64, 0, 200};
    uarch::TlbConfig itlb{128, 4096, 20};
    uarch::TlbConfig dtlb{256, 4096, 30};

    // Memory pipeline hazards.
    unsigned storeBufferEntries = 20;
    unsigned aliasWindowBits = 12; ///< 4 KiB aliasing
    Cycles aliasPenalty = 10;
    Cycles lineSplitPenalty = 12;

    /**
     * Next-line data prefetcher: a demand miss on line L also fills
     * L+1 (into L1 and L2) in the background.  Off in the presets;
     * examples/evaluate_prefetcher.cpp studies it as the "proposed
     * hardware optimization" whose evaluation the bias toolkit hardens.
     */
    bool enableNextLinePrefetch = false;

    // Execution.
    CoreKind core = CoreKind::OutOfOrder;
    Cycles intMulLatency = 3;
    Cycles intDivLatency = 22;
    /**
     * Cycles of producer latency the out-of-order window can hide from
     * a dependent consumer (coarse OoO model).  Ignored by in-order
     * cores, which expose every stall cycle.
     */
    Cycles oooWindowCycles = 24;
    /**
     * In-order front ends refetch when a taken transfer lands inside a
     * fetch block rather than at its start; this is the extra cycle(s)
     * such a misaligned redirect costs.  Zero (and unused) on OoO
     * cores, whose decoupled fetch buffers hide the realignment.
     */
    Cycles fetchRealignPenalty = 0;

    // Ablation switches (all on for the real models).
    bool enableFetchBlockModel = true;
    bool enableBtb = true;
    bool enableStoreBufferAliasing = true;
    bool enableLineSplitPenalty = true;
    bool enableCaches = true;
    bool enableTlbs = true;
    bool enableBranchPrediction = true;

    /** A Core 2-flavoured machine. */
    static MachineConfig core2Like();

    /** A Pentium 4-flavoured machine (deep pipeline, 4K aliasing). */
    static MachineConfig p4Like();

    /** An m5-O3CPU-flavoured simulated machine. */
    static MachineConfig o3Like();

    /**
     * A dual-issue in-order ARM-flavoured core (CoreKind::InOrder):
     * no latency hiding, strict issue order, fetch-alignment
     * sensitive.  Registered as a non-paper backend; the paper's
     * conclusions are re-examined on it in bench/figures/fig12.
     */
    static MachineConfig inorderLike();

    /**
     * Content hash of every field, the name included.  Machines are
     * identified by it, not by name: the ablation variants keep their
     * preset's name.  Extend it with every field added above; the
     * size checks next to it in config.cc fail the build until then.
     */
    std::uint64_t fingerprint() const;

    /**
     * The three preset machines, in paper order.  This is the *paper*
     * subset — consumers that want every registered backend (including
     * non-paper cores like inorderLike()) go through
     * sim::MachineRegistry instead.
     */
    static const std::vector<MachineConfig> &allPresets();
};

} // namespace mbias::sim

#endif // MBIAS_SIM_CONFIG_HH
