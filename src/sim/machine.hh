#ifndef MBIAS_SIM_MACHINE_HH
#define MBIAS_SIM_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/config.hh"
#include "sim/counters.hh"
#include "sim/noise.hh"
#include "sim/profile.hh"
#include "sim/memory.hh"
#include "toolchain/loader.hh"
#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/storebuffer.hh"
#include "uarch/tlb.hh"

namespace mbias::sim
{

struct ExecutionPlan;   // sim/plan.hh
struct Attribution;     // sim/attribution.hh
struct FunctionalTrace; // sim/replay.hh

/**
 * Human-readable description of the sim tier run() would pick for a
 * plain deterministic run right now — build flags and environment
 * escape hatches folded in ("fast + lanes", or
 * "reference (MBIAS_SIM_REFERENCE set)", or
 * "reference (-DMBIAS_SIM_FASTPATH=OFF)").  Recorded by `mbias
 * list`/`mbias workloads` so provenance explains perf deltas between
 * hosts.
 */
std::string activeSimTierDescription();

/** True when MBIAS_SIM_REFERENCE forces the reference interpreter for
 *  this process (re-read per run). */
bool referenceForcedByEnv();

/** Outcome of one simulated program run. */
struct RunResult
{
    PerfCounters counters;
    bool halted = false;        ///< reached Halt (vs. hit maxInsts)
    std::uint64_t result = 0;   ///< value of a0 (x10) at Halt

    /** Bitwise equality over every counter — the fast path's contract. */
    bool operator==(const RunResult &) const = default;

    Cycles cycles() const { return counters.get(Counter::Cycles); }
    std::uint64_t instructions() const
    {
        return counters.get(Counter::Instructions);
    }
    double cpi() const { return counters.cpi(); }
};

/**
 * A simulated machine: functional µRISC execution plus a deterministic
 * timing model with address-sensitive components (fetch blocks, caches,
 * TLBs, branch predictor, BTB, store buffer).
 *
 * The timing model is a coarse cycle accounting over a shared
 * execution spine (decode, dataflow, memory hierarchy, shadow
 * structures) with a per-backend CoreModel policy on top
 * (config.core): the out-of-order policy charges producer-consumer
 * stalls beyond what the OoO window can hide, the in-order policy
 * exposes every stall cycle, blocks issue behind multi-cycle ALU ops,
 * and pays a refetch on taken transfers into the middle of a fetch
 * block.  Both charge fetch-group cycles (fetchWidth per aligned fetch
 * block) and event penalties (mispredicts, cache/TLB misses, line
 * splits, 4K-alias stalls).  Every one of those penalties depends on
 * *addresses*, so the measured cycle count responds to link order and
 * environment size exactly the way the paper's hardware does.
 *
 * Determinism: given the same ProcessImage and config, run() returns
 * bit-identical results.  All components start cold on each run().
 *
 * Two tiers implement run().  The *reference* interpreter walks the
 * linker's PlacedInst records directly; the *fast tier* walks a
 * cached ExecutionPlan (sim/plan.hh) — dense pre-decoded operands and
 * an O(1) return-address table —
 * performing the identical component accesses in the identical order,
 * so its RunResult is bitwise equal by construction.  The fast tier
 * takes every unprofiled, unattributed run; it can be disabled per
 * machine (setUseFastPath(false)), per process (MBIAS_SIM_REFERENCE=1
 * in the environment), or at build time (-DMBIAS_SIM_FASTPATH=OFF).
 *
 * Repetition families — the same program re-run under many ASLR or
 * env-size layouts, or many noise seeds — run as *lockstep lanes*
 * (runLanes()): one pass executes the program functionally and drives
 * the front end once, while each lane keeps its own clock, register
 * readiness, data-side caches/TLB/store buffer and noise streams, with
 * its stack addresses rebased by its sp delta.  Every lane's RunResult
 * is bitwise equal to run() of its own image and noise.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    /** Default instruction budget for run() — shared with every
     *  ExperimentRunner call site so budget changes can't skew one
     *  path silently. */
    static constexpr std::uint64_t kDefaultRunBudget = 500'000'000;

    /** Runs the image to Halt (or @p max_insts).  A NoiseModel adds
     *  seeded run-to-run variation (OS-interrupt jitter); the default
     *  disabled model keeps runs bit-deterministic.  An Attribution
     *  sink records per-set/per-entry event placement on the
     *  reference path (noise-free runs only; counters observe, never
     *  perturb — the RunResult is bitwise unchanged). */
    RunResult run(const toolchain::ProcessImage &image,
                  std::uint64_t max_insts = kDefaultRunBudget,
                  const NoiseModel &noise = NoiseModel::none(),
                  Profile *profile = nullptr,
                  Attribution *attribution = nullptr);

    /** Lanes per lockstep batch (runLanes()). */
    static constexpr unsigned kLaneWidth = 8;

    /** One lane of a lockstep batch: a load of the shared program
     *  (typically one ASLR or env-size draw) and its noise model. */
    struct Lane
    {
        const toolchain::ProcessImage *image = nullptr;
        NoiseModel noise = NoiseModel::none();
    };

    /**
     * Runs every lane to Halt (or @p max_insts), kLaneWidth lanes per
     * lockstep pass; result i is bitwise identical to
     * run(*lanes[i].image, max_insts, lanes[i].noise).  The lanes must
     * share the program, gp, heap base and entry (initialSp and noise
     * are free).  Stack addresses — those at or above half the first
     * lane's stack top — are rebased per lane by the initialSp delta,
     * and so is a final a0 inside the stack region.  That assumes the
     * program derives stack addresses from sp by plain offset
     * arithmetic and uses them only as addresses (true of
     * compiler-generated code; the lanes differential test holds the
     * line per workload).  Without the fast tier, each lane is a plain
     * run().
     */
    std::vector<RunResult> runLanes(const std::vector<Lane> &lanes,
                                    std::uint64_t max_insts =
                                        kDefaultRunBudget);

    /** True when run() and runLanes() may take the fast tier: built
     *  in, not vetoed by MBIAS_SIM_REFERENCE, and on for this
     *  machine. */
    bool fastTierUsable() const;

    /** Compatibility wrappers over the fast tier, kept for the
     *  benchmark harness (sim/replay.hh): runRecord() is run() plus an
     *  identity-only trace; runReplay() asserts the trace matches and
     *  runs. */
    RunResult runRecord(const toolchain::ProcessImage &image,
                        std::uint64_t max_insts, const NoiseModel &noise,
                        std::shared_ptr<const FunctionalTrace> *out);
    RunResult runReplay(const toolchain::ProcessImage &image,
                        std::uint64_t max_insts, const NoiseModel &noise,
                        const FunctionalTrace &trace);

    const MachineConfig &config() const { return config_; }

    /** Selects the plan-based fast interpreter (default on; results
     *  are bitwise identical either way). */
    void setUseFastPath(bool on) { useFastPath_ = on; }
    bool useFastPath() const { return useFastPath_; }

  private:
    struct Pipeline; // per-run timing state

    /** The plan-based interpreter behind run() and runLanes(); see
     *  the class comment.  kBatch = false is the single noise-free run
     *  (@p n == 1), kBatch = true a lockstep batch of @p n <=
     *  kLaneWidth lanes with noise allowed.  Core is the CoreModel
     *  policy (machine.cc: OooCore / InOrderCore) selected per backend
     *  at compile time: it decides stall exposure, multi-cycle issue
     *  blocking, and taken-redirect realignment at `if constexpr`
     *  points, so the execution spine is shared and each instantiation
     *  keeps its direct-threaded throughput.  Returns the lanes'
     *  timing-state footprint in bytes. */
    template <bool kBatch, class Core>
    std::uint64_t runPlanImpl(const Lane *lanes, unsigned n,
                              std::uint64_t max_insts,
                              const ExecutionPlan &plan, RunResult *out);

    /** runPlanImpl over one batch, dispatched on the core model;
     *  returns the batch's timing-state footprint in bytes. */
    std::uint64_t runBatch(const Lane *lanes, unsigned n,
                           std::uint64_t max_insts, const ExecutionPlan &plan,
                           RunResult *out);

    /** Charges fetch/decode costs for the instruction at @p pc. */
    void fetchAccounting(Pipeline &pipe, Addr pc, unsigned size,
                         PerfCounters &ctrs);

    /** Data-side access: returns added load latency (0 for stores). */
    Cycles memoryAccess(Pipeline &pipe, Addr addr, unsigned size,
                        bool is_store, PerfCounters &ctrs);

    MachineConfig config_;

    uarch::Cache icache_;
    uarch::Cache dcache_;
    uarch::Cache l2_;
    uarch::Tlb itlb_;
    uarch::Tlb dtlb_;
    std::unique_ptr<uarch::BranchPredictor> predictor_;
    uarch::Btb btb_;
    uarch::StoreBuffer storeBuffer_;

    /** Live only inside run() when the caller passed an Attribution
     *  sink; lets fetchAccounting()/memoryAccess() record placement. */
    Attribution *attr_ = nullptr;

    bool useFastPath_ = true;
};

} // namespace mbias::sim

#endif // MBIAS_SIM_MACHINE_HH
