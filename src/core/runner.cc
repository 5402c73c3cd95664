#include "core/runner.hh"

#include <algorithm>
#include <chrono>
#include <tuple>
#include <utility>

#include "base/logging.hh"
#include "core/memo.hh"
#include "obs/trace.hh"
#include "toolchain/linker.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace mbias::core
{

namespace
{

std::uint64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

ExperimentRunner::ExperimentRunner(ExperimentSpec spec)
    : spec_(std::move(spec)), artifacts_(&toolchain::ArtifactCache::global())
{
}

void
ExperimentRunner::setMetrics(obs::Registry *metrics)
{
    compileCounter_ =
        metrics ? &metrics->counter("runner.compiles") : nullptr;
    runHistogram_ =
        metrics ? &metrics->histogram("runner.run_us") : nullptr;
    laneCounter_ = metrics ? &metrics->counter("runner.lanes") : nullptr;
    memoHitCounter_ =
        metrics ? &metrics->counter("runner.memo_hits") : nullptr;
}

toolchain::ModulesPtr
ExperimentRunner::compiledModules(const toolchain::ToolchainSpec &tc)
{
    auto produce = [&]() -> std::vector<isa::Module> {
        obs::ScopedSpan span("compile", "runner");
        if (compileCounter_)
            compileCounter_->add();
        const auto &w = workloads::findWorkload(spec_.workload);
        toolchain::Compiler cc(tc.vendor, tc.level);
        return cc.compile(w.build(spec_.workloadConfig));
    };
    if (artifacts_) {
        // The key carries every compile input; compilation is
        // deterministic, so the inputs identify the output.
        const std::string key =
            spec_.workload + '|' +
            std::to_string(spec_.workloadConfig.scale) + '|' +
            std::to_string(spec_.workloadConfig.seed) + '|' +
            std::to_string(int(tc.vendor)) + '|' +
            std::to_string(int(tc.level));
        return artifacts_->compiled(key, produce);
    }
    const auto key = std::make_pair(int(tc.vendor), int(tc.level));
    auto it = localModules_.find(key);
    if (it != localModules_.end())
        return it->second;
    auto mods = std::make_shared<toolchain::CompiledModules>();
    mods->modules = produce();
    std::tie(mods->fingerprintHi, mods->fingerprintLo) =
        toolchain::fingerprintModules(mods->modules);
    return localModules_.emplace(key, std::move(mods)).first->second;
}

toolchain::ProgramPtr
ExperimentRunner::linkedProgram(const toolchain::ModulesPtr &mods,
                                const toolchain::LinkOrder &order)
{
    if (artifacts_)
        return artifacts_->linked(mods, order);
    toolchain::Linker linker;
    return std::make_shared<const toolchain::LinkedProgram>(
        linker.link(mods->modules, order));
}

toolchain::LoaderConfig
ExperimentRunner::loaderConfigFor(const ExperimentSetup &setup) const
{
    toolchain::LoaderConfig lc;
    lc.envBytes = setup.envBytes;
    if (spAlign_)
        lc.spAlign = spAlign_;
    return lc;
}

const sim::MachineConfig &
ExperimentRunner::machineConfig(bool treatment_side) const
{
    return treatment_side && spec_.treatmentMachine ? *spec_.treatmentMachine
                                                    : spec_.machine;
}

sim::Machine &
ExperimentRunner::machine(bool treatment_side)
{
    auto &m = machines_[treatment_side && spec_.treatmentMachine ? 1 : 0];
    if (!m)
        m = std::make_unique<sim::Machine>(machineConfig(treatment_side));
    return *m;
}

std::vector<sim::RunResult>
ExperimentRunner::runFamily(const toolchain::ToolchainSpec &tc,
                            const toolchain::LinkOrder &order,
                            bool treatment_side,
                            const std::vector<Draw> &draws)
{
    constexpr std::uint64_t budget = sim::Machine::kDefaultRunBudget;
    const sim::MachineConfig &mc = machineConfig(treatment_side);
    const toolchain::ModulesPtr mods = compiledModules(tc);
    RunMemo &memo = RunMemo::global();
    std::vector<sim::RunResult> out(draws.size());
    std::vector<RunKey> keys(draws.size());
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < draws.size(); ++i) {
        keys[i] =
            runKey(*mods, order, draws[i].loader, mc, budget, draws[i].noise);
        if (memo.lookup(keys[i], out[i])) {
            if (memoHitCounter_)
                memoHitCounter_->add();
        } else {
            todo.push_back(i);
        }
    }
    if (todo.empty())
        return out;

    std::vector<toolchain::ProcessImage> images(todo.size());
    {
        obs::ScopedSpan span("setup-materialize", "runner");
        const toolchain::ProgramPtr prog = linkedProgram(mods, order);
        for (std::size_t k = 0; k < todo.size(); ++k) {
            const toolchain::LoaderConfig &lc = draws[todo[k]].loader;
            images[k] = artifacts_ && lc.aslrSeed == 0
                            ? artifacts_->image(prog, lc)
                            : toolchain::Loader::load(prog, lc);
        }
    }

    // Every lane's result is bitwise the one its own run() would give
    // (tests/sim/lanes_differential_test.cc); a lone draw is a plain
    // run.
    sim::Machine &m = machine(treatment_side);
    std::vector<sim::Machine::Lane> lanes;
    std::vector<sim::RunResult> results;
    for (std::size_t first = 0; first < todo.size();
         first += sim::Machine::kLaneWidth) {
        const std::size_t n =
            std::min<std::size_t>(sim::Machine::kLaneWidth,
                                  todo.size() - first);
        obs::ScopedSpan runSpan("run", "runner");
        const auto t0 = std::chrono::steady_clock::now();
        if (n == 1) {
            results.assign(1, m.run(images[first], budget,
                                    draws[todo[first]].noise));
        } else {
            lanes.clear();
            for (std::size_t k = first; k < first + n; ++k)
                lanes.push_back({&images[k], draws[todo[k]].noise});
            results = m.runLanes(lanes, budget);
            if (laneCounter_)
                laneCounter_->add(n);
        }
        if (runHistogram_)
            runHistogram_->record(microsSince(t0));
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = todo[first + k];
            mbias_assert(results[k].halted, "workload did not halt: ",
                         spec_.workload);
            out[i] = results[k];
            memo.insert(keys[i], results[k]);
        }
    }
    return out;
}

stats::Sample
ExperimentRunner::metricSample(
    const std::vector<sim::RunResult> &results) const
{
    stats::Sample out;
    for (const auto &rr : results)
        out.add(metricOf(rr));
    return out;
}

sim::RunResult
ExperimentRunner::runSide(const toolchain::ToolchainSpec &tc,
                          const ExperimentSetup &setup,
                          bool treatment_side)
{
    return runFamily(tc, setup.linkOrder, treatment_side,
                     {Draw{loaderConfigFor(setup)}})[0];
}

std::vector<sim::RunResult>
ExperimentRunner::runSides(const toolchain::ToolchainSpec &tc,
                           const std::vector<ExperimentSetup> &setups,
                           bool treatment_side)
{
    if (setups.empty())
        return {};
    std::vector<Draw> draws;
    draws.reserve(setups.size());
    for (const auto &s : setups) {
        mbias_assert(s.linkOrder == setups[0].linkOrder,
                     "an env-size family shares one link order");
        draws.push_back({loaderConfigFor(s)});
    }
    return runFamily(tc, setups[0].linkOrder, treatment_side, draws);
}

sim::RunResult
ExperimentRunner::runProfiled(const toolchain::ToolchainSpec &tc,
                              const ExperimentSetup &setup,
                              sim::Profile *profile,
                              sim::Attribution *attribution,
                              bool treatment_side)
{
    toolchain::ProcessImage image;
    {
        obs::ScopedSpan span("setup-materialize", "runner");
        auto prog = linkedProgram(compiledModules(tc), setup.linkOrder);
        const toolchain::LoaderConfig lc = loaderConfigFor(setup);
        image = artifacts_ ? artifacts_->image(prog, lc)
                           : toolchain::Loader::load(std::move(prog), lc);
    }
    sim::Machine &m = machine(treatment_side);
    obs::ScopedSpan runSpan("run-profiled", "runner");
    const auto t0 = std::chrono::steady_clock::now();
    auto rr = m.run(image, sim::Machine::kDefaultRunBudget,
                    sim::NoiseModel::none(), profile, attribution);
    if (runHistogram_)
        runHistogram_->record(microsSince(t0));
    mbias_assert(rr.halted, "workload did not halt: ", spec_.workload);
    return rr;
}

stats::Sample
ExperimentRunner::repeatedMetric(const toolchain::ToolchainSpec &tc,
                                 const ExperimentSetup &setup,
                                 unsigned reps,
                                 std::uint64_t noise_seed_base,
                                 const sim::NoiseModel &noise_template)
{
    mbias_assert(reps >= 1, "need at least one repetition");
    // Rep r's model: the caller's template with seed base + r (the
    // default template reproduces the historical withSeed(base + r)).
    std::vector<Draw> draws(reps, Draw{loaderConfigFor(setup),
                                       noise_template});
    for (unsigned rep = 0; rep < reps; ++rep)
        draws[rep].noise.seed = noise_seed_base + rep;
    return metricSample(runFamily(tc, setup.linkOrder, false, draws));
}

stats::Sample
ExperimentRunner::aslrRandomizedMetric(const toolchain::ToolchainSpec &tc,
                                       const ExperimentSetup &setup,
                                       unsigned reps,
                                       std::uint64_t aslr_seed_base)
{
    mbias_assert(reps >= 1, "need at least one repetition");
    // Each rep loads under a fresh ASLR seed.  ASLR moves only the
    // stack, so every draw is a lane of the same program.
    std::vector<Draw> draws(reps, Draw{loaderConfigFor(setup)});
    for (unsigned rep = 0; rep < reps; ++rep)
        draws[rep].loader.aslrSeed = aslr_seed_base + rep;
    return metricSample(runFamily(tc, setup.linkOrder, false, draws));
}

double
metricValue(Metric metric, const sim::RunResult &rr)
{
    switch (metric) {
      case Metric::Cycles:
        return double(rr.cycles());
      case Metric::Cpi:
        return rr.cpi();
      case Metric::Instructions:
        return double(rr.instructions());
    }
    mbias_panic("bad metric");
}

double
ExperimentRunner::metricOf(const sim::RunResult &rr) const
{
    return metricValue(spec_.metric, rr);
}

RunOutcome
ExperimentRunner::run(const ExperimentSetup &setup)
{
    RunOutcome o;
    o.setup = setup;
    o.baseline = runSide(spec_.baseline, setup, false);
    o.treatment = runSide(spec_.treatment, setup, true);
    const double treat = metricOf(o.treatment);
    mbias_assert(treat > 0.0, "degenerate metric");
    o.speedup = metricOf(o.baseline) / treat;
    return o;
}

std::vector<RunOutcome>
ExperimentRunner::runAll(const std::vector<ExperimentSetup> &setups)
{
    std::vector<RunOutcome> out;
    out.reserve(setups.size());
    for (const auto &s : setups)
        out.push_back(run(s));
    return out;
}

} // namespace mbias::core
