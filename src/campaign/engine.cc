#include "campaign/engine.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "base/logging.hh"
#include "base/seeding.hh"
#include "campaign/store.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "parallel/pool.hh"
#include "sim/plan.hh"
#include "toolchain/artifacts.hh"

namespace mbias::campaign
{

namespace
{

/** A finished task: the outcome plus the per-side metric values the
 *  record persists (metric means in ASLR mode). */
struct TaskResult
{
    core::RunOutcome outcome;
    double baseMetric = 0.0;
    double treatMetric = 0.0;
};

/** True for the plans whose tasks run one deterministic run per side
 *  and so batch across tasks as env-size families. */
bool
batchesAcrossTasks(RepetitionPlan::Kind kind)
{
    return kind == RepetitionPlan::Kind::Single ||
           kind == RepetitionPlan::Kind::BaselineOnly;
}

/**
 * Executes a family chunk: Single or BaselineOnly tasks that share the
 * campaign's experiment and one link order, so each side is one
 * runner.runSides() lane family.  Result k is exactly what running
 * task k alone gives.
 */
std::vector<TaskResult>
executeFamily(core::ExperimentRunner &runner, RepetitionPlan::Kind kind,
              const std::vector<core::ExperimentSetup> &setups)
{
    const core::ExperimentSpec &spec = runner.spec();
    const auto base = runner.runSides(spec.baseline, setups, false);
    std::vector<sim::RunResult> treat;
    if (kind == RepetitionPlan::Kind::Single)
        treat = runner.runSides(spec.treatment, setups, true);
    std::vector<TaskResult> out(setups.size());
    for (std::size_t k = 0; k < setups.size(); ++k) {
        TaskResult &r = out[k];
        r.outcome.setup = setups[k];
        r.outcome.baseline = base[k];
        r.baseMetric = runner.metricOf(base[k]);
        if (kind == RepetitionPlan::Kind::Single) {
            // One paired baseline/treatment run per setup.
            r.outcome.treatment = treat[k];
            r.treatMetric = runner.metricOf(treat[k]);
            mbias_assert(r.treatMetric > 0.0, "degenerate metric");
            r.outcome.speedup = r.baseMetric / r.treatMetric;
        } else {
            // One observed side, full RunResult kept (the causal sweep
            // reads every counter, not just the metric).
            r.outcome.treatment.halted = true;
            r.treatMetric = r.baseMetric;
            r.outcome.speedup = 1.0;
        }
    }
    return out;
}

/** Executes one task of a plan that does not batch across tasks. */
TaskResult
executeTask(core::ExperimentRunner &runner, const CampaignTask &task)
{
    const core::ExperimentSpec &spec = runner.spec();
    TaskResult r;
    switch (task.plan.kind) {
      case RepetitionPlan::Kind::Single:
      case RepetitionPlan::Kind::BaselineOnly:
        break; // batched across tasks: executeFamily

      case RepetitionPlan::Kind::AslrRandomized: {
        // Each side draws its per-run layout seeds from a stream
        // derived from the task seed, so the task is a pure function
        // of (campaign seed, index) like every other.
        auto base = runner.aslrRandomizedMetric(spec.baseline, task.setup,
                                                task.plan.reps,
                                                mixSeed(task.taskSeed, 0));
        auto treat = runner.aslrRandomizedMetric(
            spec.treatment, task.setup, task.plan.reps,
            mixSeed(task.taskSeed, 1));
        r.outcome.setup = task.setup;
        r.outcome.baseline.halted = r.outcome.treatment.halted = true;
        r.baseMetric = base.mean();
        r.treatMetric = treat.mean();
        mbias_assert(r.treatMetric > 0.0, "degenerate metric");
        r.outcome.speedup = r.baseMetric / r.treatMetric;
        return r;
      }

      case RepetitionPlan::Kind::NoiseRepeated: {
        // The conventional repeat-k-times methodology on the baseline
        // side: noise seeds taskSeed, taskSeed+1, ... — the same
        // derivation the serial drivers used, now owned by the
        // campaign lowering.
        auto base = runner.repeatedMetric(spec.baseline, task.setup,
                                          task.plan.reps, task.taskSeed,
                                          task.plan.noiseTemplate);
        r.outcome.setup = task.setup;
        r.outcome.baseline.halted = r.outcome.treatment.halted = true;
        r.outcome.repBaseline = base.values();
        r.baseMetric = r.treatMetric = base.mean();
        r.outcome.speedup = 1.0;
        return r;
      }

      case RepetitionPlan::Kind::NoisePaired: {
        auto base = runner.repeatedMetric(spec.baseline, task.setup,
                                          task.plan.reps, task.taskSeed,
                                          task.plan.noiseTemplate);
        auto treat = runner.repeatedMetric(
            spec.treatment, task.setup, task.plan.reps,
            task.taskSeed + task.plan.treatSeedOffset,
            task.plan.noiseTemplate);
        r.outcome.setup = task.setup;
        r.outcome.baseline.halted = r.outcome.treatment.halted = true;
        r.outcome.repBaseline = base.values();
        r.outcome.repTreatment = treat.values();
        r.baseMetric = base.mean();
        r.treatMetric = treat.mean();
        mbias_assert(r.treatMetric > 0.0, "degenerate metric");
        r.outcome.speedup = r.baseMetric / r.treatMetric;
        return r;
      }
    }
    mbias_panic("no per-task executor for plan kind ", int(task.plan.kind));
}

/**
 * The live progress line: a helper thread redraws one stderr line a
 * few times a second — `NNN/NNN tasks (PP%) | cache HH% | ETA SSs` —
 * and blanks it on completion so the final report starts clean.
 * Display only; it never touches task state.
 */
class ProgressMeter
{
  public:
    ProgressMeter(bool enabled, std::uint64_t total,
                  const std::atomic<std::uint64_t> &done,
                  const std::atomic<std::uint64_t> &cache_hits)
        : total_(total)
    {
        if (!enabled || total == 0)
            return;
        start_ = std::chrono::steady_clock::now();
        thread_ = std::thread([this, &done, &cache_hits] {
            std::unique_lock<std::mutex> lock(mutex_);
            while (!stop_) {
                draw(done.load(), cache_hits.load());
                cv_.wait_for(lock, std::chrono::milliseconds(200));
            }
            // Blank the line out so the report overwrites it.
            std::fprintf(stderr, "\r%78s\r", "");
        });
    }

    ~ProgressMeter()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

  private:
    void
    draw(std::uint64_t done, std::uint64_t hits) const
    {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        char eta[32] = "--";
        if (done > 0 && done < total_)
            std::snprintf(eta, sizeof(eta), "%.0fs",
                          elapsed / double(done) *
                              double(total_ - done));
        std::fprintf(stderr,
                     "\rcampaign: %llu/%llu tasks (%3.0f%%) | cache "
                     "%3.0f%% | ETA %-8s",
                     (unsigned long long)done,
                     (unsigned long long)total_,
                     100.0 * double(done) / double(total_),
                     done ? 100.0 * double(hits) / double(done) : 0.0,
                     eta);
    }

    std::uint64_t total_;
    std::chrono::steady_clock::time_point start_;
    std::thread thread_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * Groups the tasks left to execute (@p pending, in index order) into
 * scheduling units, ordered by each unit's first task.  A Single or
 * BaselineOnly task joins the other such tasks of its link order —
 * within one campaign the workload, toolchains, machines and sp-align
 * are shared, so they form an env-size family — cut into chunks of
 * kLaneWidth; every other task is a unit of its own.  A pure function
 * of the task list, so no --jobs value changes it.
 */
std::vector<std::vector<std::size_t>>
schedulingUnits(const std::vector<CampaignTask> &tasks,
                const std::vector<std::size_t> &pending)
{
    std::vector<std::vector<std::size_t>> units;
    std::unordered_map<std::uint64_t, std::size_t> openChunk; // by order
    for (const std::size_t i : pending) {
        const CampaignTask &task = tasks[i];
        if (!batchesAcrossTasks(task.plan.kind)) {
            units.push_back({i});
            continue;
        }
        const std::uint64_t order = task.setup.linkOrder.fingerprint();
        const auto it = openChunk.find(order);
        if (it != openChunk.end()) {
            auto &chunk = units[it->second];
            if (chunk.size() < sim::Machine::kLaneWidth &&
                tasks[chunk[0]].setup.linkOrder == task.setup.linkOrder) {
                chunk.push_back(i);
                continue;
            }
        }
        openChunk[order] = units.size();
        units.push_back({i});
    }
    return units;
}

std::uint64_t
microsSince(std::chrono::steady_clock::time_point t0)
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
}

} // namespace

CampaignEngine::CampaignEngine(CampaignSpec spec, CampaignOptions opts)
    : spec_(std::move(spec)), opts_(std::move(opts))
{
    mbias_assert(opts_.jobs >= 1, "campaign needs at least one job");
    mbias_assert(!opts_.resume || !opts_.outPath.empty(),
                 "--resume needs a result store path");
    // The JSONL record is a fixed flat schema with no per-rep arrays,
    // and the content address does not cover the loader's sp-align
    // override; campaigns using either must run storeless until the
    // store format grows those fields.
    mbias_assert(opts_.outPath.empty() ||
                     (!spec_.plan.samplesReps() &&
                      spec_.plan.kind != RepetitionPlan::Kind::BaselineOnly &&
                      spec_.spAlign == 0),
                 "rep-sampling / baseline-only / sp-aligned campaigns "
                 "do not persist result stores");
}

CampaignReport
CampaignEngine::run()
{
    const auto start = std::chrono::steady_clock::now();

    // Each run gets its own metrics registry so the report's snapshot
    // is exactly this campaign — nothing leaks across runs.
    obs::Registry metrics;
    obs::Tracer &tracer = obs::Tracer::global();
    const bool tracing = !opts_.tracePath.empty();
    if (tracing)
        tracer.start();

    const obs::Provenance provenance =
        obs::Provenance::capture(opts_.jobs);

    const std::vector<CampaignTask> tasks = spec_.expand();
    std::vector<std::string> keys;
    keys.reserve(tasks.size());
    for (const auto &t : tasks)
        keys.push_back(taskKey(spec_.experiment, t));
    metrics.counter("engine.tasks").add(tasks.size());

    std::unique_ptr<ResultStore> store;
    if (!opts_.outPath.empty()) {
        store = std::make_unique<ResultStore>(opts_.outPath, &metrics);
        if (opts_.resume)
            store->load();
        else
            store->reset();
        // Fresh stores (and pre-provenance legacy ones) get this
        // run's host setup as their header; a resumed store keeps
        // the header of the run that created it.
        if (store->headerProvenanceJson().empty())
            store->writeHeader(provenance);
    }

    // All workers materialize setups through the shared artifact
    // cache (unless disabled); its hit/miss/byte counters land in
    // this run's registry for the duration of the run.
    toolchain::ArtifactCache &artifacts =
        toolchain::ArtifactCache::global();
    if (opts_.artifactCache)
        artifacts.attachMetrics(&metrics);
    // The simulator's plan cache mirrors its counters the same way
    // (sim.plan.*) regardless of the artifact cache.
    sim::PlanCache::global().attachMetrics(&metrics);
    // The caches are process-global and the registry is per-run:
    // detach on every exit path, before the registry dies.
    struct DetachMetrics
    {
        toolchain::ArtifactCache *cache;
        ~DetachMetrics()
        {
            if (cache)
                cache->attachMetrics(nullptr);
            sim::PlanCache::global().attachMetrics(nullptr);
        }
    } detachMetrics{opts_.artifactCache ? &artifacts : nullptr};

    parallel::ThreadPool pool(opts_.jobs, &metrics);
    std::vector<core::RunOutcome> results(tasks.size());
    // One runner per worker: it owns the worker's simulated machines,
    // and without the shared artifact cache a private compile memo
    // too — both must stay on its own thread.
    std::vector<std::unique_ptr<core::ExperimentRunner>> runners(
        pool.jobs());
    std::atomic<std::uint64_t> done{0};

    // Hot-path metric handles, resolved once (registry lookups take a
    // lock; Counter::add / Histogram::record do not).
    obs::Counter &cExecuted = metrics.counter("engine.executed");
    obs::Histogram &hExecute = metrics.histogram("task.execute_us");
    obs::Histogram &hTask = metrics.histogram("task.total_us");

    // Tasks the store already holds are served before scheduling.  Of
    // the rest, only the first task of each content address runs; its
    // repeats (duplicate setups) take its outcome afterwards.  So the
    // family chunks below hold each address once, and what executes is
    // a pure function of the task list, whatever --jobs is.
    std::vector<std::size_t> pending;
    std::vector<std::pair<std::size_t, std::size_t>> repeats; // (i, first)
    std::unordered_map<std::string, std::size_t> firstOf;
    std::uint64_t resumed = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (const TaskRecord *rec = store ? store->find(keys[i]) : nullptr) {
            results[i] = rec->toOutcome();
            ++resumed;
            continue;
        }
        const auto [it, first] = firstOf.emplace(keys[i], i);
        if (first)
            pending.push_back(i);
        else
            repeats.emplace_back(i, it->second);
    }
    metrics.counter("engine.store_hits").add(resumed);
    metrics.counter("cache.misses").add(pending.size());
    metrics.counter("cache.hits").add(repeats.size());
    done.store(resumed + repeats.size());
    const auto units = schedulingUnits(tasks, pending);

    const std::atomic<std::uint64_t> cacheHits{repeats.size()};
    ProgressMeter meter(opts_.progress, tasks.size(), done, cacheHits);

    pool.parallelFor(units.size(), [&](std::size_t u, unsigned w) {
        const auto unitStart = std::chrono::steady_clock::now();
        const std::vector<std::size_t> &unit = units[u];
        obs::ScopedSpan taskSpan("task", "campaign",
                                 "{\"task\":" + std::to_string(unit[0]) +
                                     ",\"tasks\":" +
                                     std::to_string(unit.size()) + "}");
        if (!runners[w]) {
            obs::ScopedSpan span("runner-init", "campaign");
            runners[w] =
                std::make_unique<core::ExperimentRunner>(spec_.experiment);
            runners[w]->setMetrics(&metrics);
            runners[w]->setArtifactCache(opts_.artifactCache ? &artifacts
                                                             : nullptr);
            if (spec_.spAlign != 0)
                runners[w]->setSpAlignOverride(spec_.spAlign);
        }
        const auto execStart = std::chrono::steady_clock::now();
        std::vector<TaskResult> rs;
        const RepetitionPlan::Kind kind = tasks[unit[0]].plan.kind;
        if (batchesAcrossTasks(kind)) {
            std::vector<core::ExperimentSetup> setups;
            for (const std::size_t i : unit)
                setups.push_back(tasks[i].setup);
            rs = executeFamily(*runners[w], kind, setups);
        } else {
            rs.push_back(executeTask(*runners[w], tasks[unit[0]]));
        }
        hExecute.record(microsSince(execStart));
        for (std::size_t k = 0; k < unit.size(); ++k) {
            const std::size_t i = unit[k];
            const TaskResult &r = rs[k];
            cExecuted.add();
            results[i] = r.outcome;
            if (store) {
                obs::ScopedSpan span("store-append", "campaign");
                store->append(TaskRecord::make(keys[i], tasks[i], r.outcome,
                                               r.baseMetric, r.treatMetric));
            }
            done.fetch_add(1, std::memory_order_relaxed);
        }
        hTask.record(microsSince(unitStart));
    });
    for (const auto &[i, first] : repeats)
        results[i] = results[first];

    CampaignReport report;
    {
        obs::ScopedSpan span("aggregate", "campaign");
        if (results.size() >= 2) {
            core::BiasAnalyzer analyzer(0.01, opts_.confidence);
            if (opts_.resamples > 0)
                analyzer.withBootstrap(opts_.resamples, spec_.seed,
                                       opts_.jobs);
            report.bias =
                analyzer.aggregate(spec_.experiment, std::move(results));
        } else {
            // A bias report needs >= 2 setups for a spread/CI; a
            // one-task campaign (e.g. a single-cell sweep lowered by
            // the pipeline) just carries its outcome through.
            report.bias.specDescription = spec_.experiment.str();
            for (const auto &o : results)
                report.bias.speedups.add(o.speedup);
            report.bias.outcomes = std::move(results);
        }
    }
    report.stats.totalTasks = tasks.size();
    report.stats.executed = pending.size();
    report.stats.cacheHits = repeats.size();
    report.stats.resumedFromStore = resumed;
    report.stats.jobs = pool.jobs();
    report.stats.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    report.provenance = provenance;
    report.metrics = metrics.snapshot();
    // Fold in the process-wide lang metrics (asm.load, asm.assemble,
    // fuzz.generate): asm-manifest workloads assemble inside the
    // campaign's tasks but record into the global registry, and their
    // cost belongs in the report obs-summary prints.
    {
        const auto global = obs::Registry::global().snapshot();
        obs::MetricsSnapshot lang;
        const auto langKey = [](const std::string &k) {
            return k.rfind("asm.", 0) == 0 || k.rfind("fuzz.", 0) == 0;
        };
        for (const auto &[k, v] : global.counters)
            if (langKey(k))
                lang.counters[k] = v;
        for (const auto &[k, v] : global.histograms)
            if (langKey(k))
                lang.histograms[k] = v;
        report.metrics.merge(lang);
    }
    if (store)
        store->appendMetrics(report.metrics);
    if (tracing) {
        tracer.stop();
        if (!tracer.writeTo(opts_.tracePath))
            mbias_warn("cannot write trace to ", opts_.tracePath);
        else
            inform("trace written to " + opts_.tracePath +
                   " (open in Perfetto: https://ui.perfetto.dev)");
    }
    return report;
}

} // namespace mbias::campaign
