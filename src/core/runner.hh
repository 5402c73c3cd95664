#ifndef MBIAS_CORE_RUNNER_HH
#define MBIAS_CORE_RUNNER_HH

#include <map>
#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "core/setup.hh"
#include "obs/metrics.hh"
#include "sim/machine.hh"
#include "stats/sample.hh"
#include "toolchain/artifacts.hh"

namespace mbias::core
{

/** The measurements of one setup: baseline, treatment, and the ratio. */
struct RunOutcome
{
    ExperimentSetup setup;
    sim::RunResult baseline;
    sim::RunResult treatment;

    /**
     * Speedup of the treatment over the baseline on the spec's metric
     * (ratio of baseline to treatment, so > 1 means treatment wins).
     */
    double speedup = 0.0;

    /**
     * Per-repetition metric values of each side, in rep order.  Only
     * the sample-collecting campaign repetition plans (NoiseRepeated,
     * NoisePaired) fill these; paired single runs leave them empty.
     */
    std::vector<double> repBaseline;
    std::vector<double> repTreatment;
};

/**
 * Extracts @p metric from a run result — the spec-independent core of
 * ExperimentRunner::metricOf, usable by render/aggregate code that has
 * outcomes but no runner (e.g. pipeline figures reading campaign
 * results).
 */
double metricValue(Metric metric, const sim::RunResult &rr);

/**
 * Executes an ExperimentSpec under chosen setups: materializes each
 * setup (compile, link in the setup's order, load with the setup's
 * environment block) through the shared toolchain ArtifactCache, then
 * runs baseline and treatment on the simulator.
 *
 * By default runners pull artifacts from ArtifactCache::global(), so
 * every worker of a parallel campaign shares one compile per
 * (workload, toolchain) and one link per (modules, order) no matter
 * how tasks are scheduled — the toolchain is deterministic and cached
 * artifacts are immutable, so results are identical to recomputing.
 * setArtifactCache(nullptr) opts out: the runner then keeps only a
 * private per-toolchain compile memo and re-links/re-loads per task
 * (the pre-cache behavior, kept as the benchmark baseline).
 *
 * Runs are simulated at most once per process: every deterministic
 * run first asks the process-wide RunMemo (core/memo.hh), and the
 * misses run on the runner's own Machine for that side, which it
 * keeps and reuses across runs.  The machines (and, without the
 * artifact cache, the private compile memo) are unsynchronized, so
 * keep a runner on one thread — which the campaign engine does anyway
 * (runner per worker).
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentSpec spec);

    const ExperimentSpec &spec() const { return spec_; }

    /** Runs baseline and treatment in one setup. */
    RunOutcome run(const ExperimentSetup &setup);

    /** Runs all setups. */
    std::vector<RunOutcome> runAll(const std::vector<ExperimentSetup> &s);

    /** Runs only one side (used by causal analysis).
     *  @p treatment_side selects the treatment machine for hardware
     *  studies. */
    sim::RunResult runSide(const toolchain::ToolchainSpec &tc,
                           const ExperimentSetup &setup,
                           bool treatment_side = false);

    /**
     * runSide() over an env-size family: @p setups share one link
     * order and differ only in envBytes, so they load the same
     * program with different stack placements and run as lockstep
     * lanes.  Result i is bitwise runSide(tc, setups[i],
     * treatment_side).
     */
    std::vector<sim::RunResult>
    runSides(const toolchain::ToolchainSpec &tc,
             const std::vector<ExperimentSetup> &setups,
             bool treatment_side = false);

    /**
     * runSide() with per-function profiling and optional per-set
     * attribution (both force the reference interpreter).  The
     * returned RunResult is bitwise identical to runSide()'s — the
     * sinks observe, never perturb.
     */
    sim::RunResult runProfiled(const toolchain::ToolchainSpec &tc,
                               const ExperimentSetup &setup,
                               sim::Profile *profile,
                               sim::Attribution *attribution = nullptr,
                               bool treatment_side = false);

    /**
     * Repeats one side @p reps times in one setup under seeded
     * run-to-run noise (seeds base, base+1, ...), returning the
     * metric sample — the conventional "repeat the run k times"
     * methodology the paper contrasts with setup randomization.
     * Each repetition runs under @p noise_template with only the seed
     * overwritten; the default template (OS-interrupt noise, default
     * magnitudes) is what this method always built, and figures sweep
     * other factors (e.g. DVFS frequency steps) by passing their own.
     */
    stats::Sample repeatedMetric(
        const toolchain::ToolchainSpec &tc, const ExperimentSetup &setup,
        unsigned reps, std::uint64_t noise_seed_base,
        const sim::NoiseModel &noise_template = sim::NoiseModel::withSeed(0));

    /**
     * The Stabilizer-style remedy: runs one side @p reps times in one
     * setup with a *different stack ASLR layout per run* (seeds base,
     * base+1, ...).  Layout bias becomes visible variance; the mean of
     * the sample estimates the layout-marginalized metric.
     */
    stats::Sample aslrRandomizedMetric(const toolchain::ToolchainSpec &tc,
                                       const ExperimentSetup &setup,
                                       unsigned reps,
                                       std::uint64_t aslr_seed_base);

    /** Extracts the spec's metric from a run result. */
    double metricOf(const sim::RunResult &rr) const;

    /**
     * Loader override hook: when set, forces the initial stack pointer
     * alignment (the paper-style "align the stack" causal
     * intervention).  0 = no override.
     */
    void setSpAlignOverride(std::uint64_t align) { spAlign_ = align; }

    /**
     * Selects the artifact cache the runner materializes setups
     * through.  Defaults to ArtifactCache::global(); nullptr disables
     * cross-stage sharing (see the class comment).  @p cache must
     * outlive the runner.
     */
    void setArtifactCache(toolchain::ArtifactCache *cache)
    {
        artifacts_ = cache;
    }

    /**
     * Attaches a metrics registry: the runner then counts
     * `runner.compiles`, `runner.lanes` (runs simulated as lanes of a
     * batch) and `runner.memo_hits` (runs served by the RunMemo), and
     * records `runner.run_us` per single run or lane batch.
     * @p metrics must outlive the runner; nullptr detaches.
     * (Span tracing is independent of this — spans go to the global
     * Tracer whenever a session is active.)
     */
    void setMetrics(obs::Registry *metrics);

  private:
    /** Compiled modules of one side: shared cache or private memo. */
    toolchain::ModulesPtr
    compiledModules(const toolchain::ToolchainSpec &tc);

    /** The program of (@p mods, @p order): cached link or fresh link. */
    toolchain::ProgramPtr linkedProgram(const toolchain::ModulesPtr &mods,
                                        const toolchain::LinkOrder &order);

    /** The setup's LoaderConfig (envBytes + sp-align override). */
    toolchain::LoaderConfig
    loaderConfigFor(const ExperimentSetup &setup) const;

    /** The machine config of one side (the treatment machine only in
     *  hardware studies). */
    const sim::MachineConfig &machineConfig(bool treatment_side) const;

    /** The runner's Machine for that config, built once and reused by
     *  every later run (its timing state is reset, not rebuilt). */
    sim::Machine &machine(bool treatment_side);

    /** One run of a family: its load and its noise model. */
    struct Draw
    {
        toolchain::LoaderConfig loader;
        sim::NoiseModel noise = sim::NoiseModel::none();
    };

    /**
     * Runs @p draws of the program (@p tc, @p order) on one side's
     * machine: the single definition every run flavor above goes
     * through.  Draws the process-wide RunMemo knows cost a lookup;
     * the rest are materialized (compile on miss, link once, one load
     * per draw — ASLR draws bypass the artifact cache, since their
     * one-shot layouts would only displace reusable entries) and run
     * as lockstep lanes, kLaneWidth per `run` span.  Result i is
     * bitwise the RunResult of draw i run on its own.
     */
    std::vector<sim::RunResult> runFamily(const toolchain::ToolchainSpec &tc,
                                          const toolchain::LinkOrder &order,
                                          bool treatment_side,
                                          const std::vector<Draw> &draws);

    /** The metric sample of a family's results, in draw order. */
    stats::Sample metricSample(const std::vector<sim::RunResult> &results)
        const;

    ExperimentSpec spec_;
    std::uint64_t spAlign_ = 0;
    obs::Counter *compileCounter_ = nullptr;
    obs::Histogram *runHistogram_ = nullptr;
    obs::Counter *laneCounter_ = nullptr;
    obs::Counter *memoHitCounter_ = nullptr;
    toolchain::ArtifactCache *artifacts_;

    /** Baseline-side machine, and the treatment machine of hardware
     *  studies; built on first use. */
    std::unique_ptr<sim::Machine> machines_[2];

    /** Per-toolchain compile memo for the cache-off mode only. */
    std::map<std::pair<int, int>, toolchain::ModulesPtr> localModules_;
};

} // namespace mbias::core

#endif // MBIAS_CORE_RUNNER_HH
