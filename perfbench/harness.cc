/**
 * @file
 * One measured child of the repo benchmark (perfbench/run.py).
 *
 * run.py starts this binary afresh for every sample, so host caches
 * start cold exactly as they do for a user's `mbias` invocation.  The
 * child does its set-up, notes the CLOCK_MONOTONIC time of its first
 * timed call, runs the workload's timed part, runs the workload's
 * in-process correctness checks (untimed), and writes one JSON result
 * file.  The parent turns results, rusage and golden comparisons into
 * the benchmark's metrics.
 *
 *   perfbench_harness --mode paper --out DIR --ids fig1,fig2
 *   perfbench_harness --mode aslr --out DIR --seed S
 *       --programs perl:16,hmmer:16,mcf:4 --reps 32 --resamples 10000
 *   common flags: [--traced] [--setup-only]; aslr only: [--decompose]
 *
 * paper renders each listed figure through pipeline::runFigure at
 * --jobs 1 and writes its transcript to DIR/<id>.txt; ids the tree
 * does not register are reported absent.  aslr runs, per program, a
 * fresh ASLR-randomized campaign into DIR/<program>.jsonl, resumes it,
 * and analyzes the store.
 *
 * --traced adds the span record the per-layer metrics come from: the
 * harness's own spans around every call it makes into a layer (kept
 * in memory, written to the result at exit) plus the program's spans
 * from a pipeline::ScopedTraceSession (DIR/program_trace.json).  The
 * code path is the untraced one, so traced over untraced wall time is
 * the cost of tracing.
 *
 * --decompose (implies --traced) makes an aslr child drive each fresh
 * task through the layers itself (ArtifactCache, Loader, Machine +
 * ReplayCache, ResultStore, stats::Engine) instead of through
 * CampaignEngine, so every layer gets its own span.  driveSide() is a
 * copy of ExperimentRunner::aslrRandomizedMetric (src/core/runner.cc):
 * a change to that function must be made here too.  run.py checks that
 * the decomposition reproduces the engine's store bitwise.
 */
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "figures.hh"

#include "base/seeding.hh"
#include "campaign/engine.hh"
#include "campaign/report.hh"
#include "campaign/spec.hh"
#include "campaign/store.hh"
#include "core/setup.hh"
#include "obs/provenance.hh"
#include "obs/trace.hh"
#include "pipeline/driver.hh"
#include "pipeline/figure.hh"
#include "pipeline/options.hh"
#include "sim/machine.hh"
#include "sim/plan.hh"
#include "sim/replay.hh"
#include "stats/engine.hh"
#include "stats/sample.hh"
#include "toolchain/artifacts.hh"
#include "toolchain/compiler.hh"
#include "toolchain/loader.hh"
#include "workloads/registry.hh"

namespace fs = std::filesystem;
using namespace mbias;

namespace
{

using Clock = std::chrono::steady_clock;

/** Seconds on the steady clock (CLOCK_MONOTONIC, the clock Python's
 *  time.monotonic() reads, so the parent can subtract its spawn
 *  time). */
double
monoSeconds(Clock::time_point t)
{
    return std::chrono::duration<double>(t.time_since_epoch()).count();
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "perfbench_harness: %s\n", msg.c_str());
    std::exit(2);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

struct Options
{
    std::string mode;
    std::string out;
    std::vector<std::string> ids;
    std::uint64_t seed = 1;
    std::vector<std::pair<std::string, unsigned>> programs;
    unsigned reps = 0;
    int resamples = 0;
    bool traced = false;
    bool decompose = false;
    bool setupOnly = false;
};

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--traced") {
            o.traced = true;
            continue;
        }
        if (flag == "--decompose") {
            o.traced = o.decompose = true;
            continue;
        }
        if (flag == "--setup-only") {
            o.setupOnly = true;
            continue;
        }
        if (i + 1 >= argc)
            die("flag " + flag + " needs a value");
        const std::string v = argv[++i];
        if (flag == "--mode")
            o.mode = v;
        else if (flag == "--out")
            o.out = v;
        else if (flag == "--ids")
            o.ids = splitList(v);
        else if (flag == "--seed")
            o.seed = std::stoull(v);
        else if (flag == "--reps")
            o.reps = unsigned(std::stoul(v));
        else if (flag == "--resamples")
            o.resamples = std::stoi(v);
        else if (flag == "--programs") {
            o.programs.clear();
            for (const std::string &p : splitList(v)) {
                const auto colon = p.find(':');
                if (colon == std::string::npos)
                    die("--programs takes name:setups items");
                o.programs.emplace_back(
                    p.substr(0, colon),
                    unsigned(std::stoul(p.substr(colon + 1))));
            }
        } else
            die("unknown flag " + flag);
    }
    if (o.mode != "paper" && o.mode != "aslr")
        die("--mode must be paper or aslr");
    if (o.out.empty())
        die("--out is required");
    if (o.decompose && o.mode != "aslr")
        die("--decompose is for --mode aslr");
    if (o.mode == "aslr" &&
        (o.programs.empty() || o.reps == 0 || o.resamples <= 0))
        die("aslr needs --programs, --reps and --resamples");
    return o;
}

/**
 * The harness's own spans, all on the main thread, kept in memory and
 * written with the result.  Timestamps are microseconds since the
 * origin, which is taken just before the program's trace session
 * starts so both records share a time base.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        std::string arg;
        double t0, t1;
    };

    void setOrigin(Clock::time_point t) { origin_ = t; }
    double originSeconds() const { return monoSeconds(origin_); }
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    void
    add(const char *name, std::string arg, double t0, double t1)
    {
        spans_.push_back({name, std::move(arg), t0, t1});
    }

    std::string
    json() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out += (i ? ",\n" : "\n");
            out += "{\"name\":" + jsonString(s.name) +
                   ",\"arg\":" + jsonString(s.arg) +
                   ",\"t0\":" + jsonNumber(s.t0) +
                   ",\"t1\":" + jsonNumber(s.t1) + "}";
        }
        return out + "]";
    }

  private:
    Clock::time_point origin_ = Clock::now();
    bool enabled_ = false;
    std::vector<Span> spans_;
};

SpanLog g_spans;

/** RAII harness span; free when the child is not traced. */
class HarnessSpan
{
  public:
    explicit HarnessSpan(const char *name, std::string arg = {})
        : name_(name), arg_(std::move(arg))
    {
        if (g_spans.enabled())
            t0_ = g_spans.nowUs();
    }

    ~HarnessSpan()
    {
        if (g_spans.enabled())
            g_spans.add(name_, std::move(arg_), t0_, g_spans.nowUs());
    }

    HarnessSpan(const HarnessSpan &) = delete;
    HarnessSpan &operator=(const HarnessSpan &) = delete;

  private:
    const char *name_;
    std::string arg_;
    double t0_ = 0;
};

/** Public cache statistics, snapshotted around timed calls. */
struct CacheCounts
{
    std::map<std::string, double> v;

    static CacheCounts
    now()
    {
        CacheCounts c;
        const auto a = toolchain::ArtifactCache::global().stats();
        c.v["artifact.compile_hits"] = double(a.compileHits);
        c.v["artifact.compile_misses"] = double(a.compileMisses);
        c.v["artifact.link_hits"] = double(a.linkHits);
        c.v["artifact.link_misses"] = double(a.linkMisses);
        c.v["artifact.image_hits"] = double(a.imageHits);
        c.v["artifact.image_misses"] = double(a.imageMisses);
        c.v["artifact.bytes"] = double(a.bytes);
        const auto p = sim::PlanCache::global().stats();
        c.v["plan.hits"] = double(p.hits);
        c.v["plan.misses"] = double(p.misses);
        const auto r = sim::ReplayCache::global().stats();
        c.v["replay.hits"] = double(r.hits);
        c.v["replay.misses"] = double(r.misses);
        c.v["replay.records"] = double(r.records);
        c.v["replay.replays"] = double(r.replays);
        c.v["replay.fallbacks"] = double(r.fallbacks);
        c.v["replay.bytes"] = double(r.bytes);
        return c;
    }

    /** Counter deltas since @p before; byte gauges keep their
     *  current value. */
    CacheCounts
    since(const CacheCounts &before) const
    {
        CacheCounts d;
        for (const auto &[k, val] : v) {
            const bool gauge = k.size() > 6 &&
                               k.compare(k.size() - 6, 6, ".bytes") == 0;
            d.v[k] = gauge ? val : val - before.v.at(k);
        }
        return d;
    }

    std::string
    json() const
    {
        std::string out = "{";
        bool first = true;
        for (const auto &[k, val] : v) {
            if (!first)
                out += ',';
            out += jsonString(k) + ":" + jsonNumber(val);
            first = false;
        }
        return out + "}";
    }
};

/** One in-process correctness gate: how many checked outputs it
 *  attempted and how many mismatched. */
struct Check
{
    explicit Check(std::string n) : name(std::move(n)) {}

    std::string name;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string detail;

    void
    expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (detail.size() < 400)
                detail += what + "; ";
        }
    }
};

/** Everything the child reports, serialized once at exit. */
struct Result
{
    double tFirst = 0, tEnd = 0;
    std::vector<std::string> fields; ///< extra "key":value members
    std::vector<Check> checks;

    void
    add(const std::string &key, const std::string &json_value)
    {
        fields.push_back(jsonString(key) + ":" + json_value);
    }

    void
    write(const std::string &path) const
    {
        std::ostringstream os;
        os << "{\"obs\":" << (MBIAS_OBS_ENABLED ? "true" : "false")
           << ",\"t_first\":" << jsonNumber(tFirst)
           << ",\"t_end\":" << jsonNumber(tEnd)
           << ",\"provenance\":"
           << obs::Provenance::capture(1).toJson();
        for (const std::string &f : fields)
            os << "," << f;
        os << ",\"checks\":[";
        for (std::size_t i = 0; i < checks.size(); ++i) {
            const Check &c = checks[i];
            os << (i ? "," : "") << "{\"name\":" << jsonString(c.name)
               << ",\"attempted\":" << c.attempted
               << ",\"failed\":" << c.failed
               << ",\"detail\":" << jsonString(c.detail) << "}";
        }
        os << "]}\n";
        const std::string tmp = path + ".tmp";
        {
            std::ofstream out(tmp, std::ios::trunc);
            out << os.str();
            if (!out)
                die("cannot write " + tmp);
        }
        fs::rename(tmp, path);
    }
};

/**
 * The traced child's span records: the harness's own (g_spans) and the
 * program's, from a pipeline::ScopedTraceSession started right after
 * the harness origin so both share a time base.  Inert when the child
 * is not traced.
 */
class TracedRun
{
  public:
    explicit TracedRun(const Options &opts)
        : path_(opts.out + "/program_trace.json")
    {
        if (!opts.traced)
            return;
        g_spans.setEnabled(true);
        g_spans.setOrigin(Clock::now());
        session_.emplace(path_);
    }

    /** Stops the program's session, which writes its trace file, and
     *  adds both records to @p result. */
    void
    finish(Result &result)
    {
        if (!session_)
            return;
        session_.reset();
        result.add("origin", jsonNumber(g_spans.originSeconds()));
        result.add("spans", g_spans.json());
        result.add("program_trace", MBIAS_OBS_ENABLED ? jsonString(path_)
                                                      : std::string("null"));
    }

  private:
    std::string path_;
    std::optional<pipeline::ScopedTraceSession> session_;
};

// ---------------------------------------------------------------------
// paper: the fixed figure list through pipeline::runFigure

/** Points stdout at @p path for the lifetime of the object. */
class StdoutTo
{
  public:
    explicit StdoutTo(const std::string &path)
    {
        std::fflush(stdout);
        std::cout.flush();
        saved_ = ::dup(STDOUT_FILENO);
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f || saved_ < 0)
            die("cannot redirect stdout to " + path);
        ::dup2(::fileno(f), STDOUT_FILENO);
        std::fclose(f);
    }

    ~StdoutTo()
    {
        std::fflush(stdout);
        std::cout.flush();
        ::dup2(saved_, STDOUT_FILENO);
        ::close(saved_);
    }

  private:
    int saved_ = -1;
};

int
runPaper(const Options &opts)
{
    // Set-up: the figure registry and the output directory.
    figures::registerAll();
    const auto &registry = pipeline::FigureRegistry::instance();
    std::vector<const pipeline::FigureSpec *> specs;
    for (const std::string &id : opts.ids)
        specs.push_back(registry.find(id));
    const pipeline::PipelineOptions popts;

    Result result;
    TracedRun traced(opts);
    result.tFirst = monoSeconds(Clock::now());
    if (opts.setupOnly) {
        result.write(opts.out + "/result.json");
        return 0;
    }

    std::string figs = "[";
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string &id = opts.ids[i];
        figs += (i ? ",\n" : "\n");
        if (!specs[i]) {
            figs += "{\"id\":" + jsonString(id) + ",\"present\":false}";
            continue;
        }
        const std::string transcript = opts.out + "/" + id + ".txt";
        const CacheCounts before = CacheCounts::now();
        const double f0 = monoSeconds(Clock::now());
        int rc;
        {
            StdoutTo redirect(transcript);
            HarnessSpan span("pipeline.figure", id);
            rc = pipeline::runFigure(*specs[i], popts);
        }
        const double f1 = monoSeconds(Clock::now());
        if (rc != 0)
            die("figure " + id + " failed with code " +
                std::to_string(rc));
        figs += "{\"id\":" + jsonString(id) +
                ",\"present\":true,\"wall_s\":" + jsonNumber(f1 - f0) +
                ",\"transcript\":" + jsonString(transcript) +
                ",\"caches\":" + CacheCounts::now().since(before).json() +
                "}";
    }
    result.tEnd = monoSeconds(Clock::now());
    traced.finish(result);
    result.add("figures", figs + "]");
    result.write(opts.out + "/result.json");
    return 0;
}

// ---------------------------------------------------------------------
// aslr: `mbias campaign --aslr-reps` with a store, resumed, analyzed

campaign::CampaignSpec
aslrCampaign(const std::string &program, unsigned setups, unsigned reps,
             std::uint64_t seed)
{
    core::ExperimentSpec experiment;
    experiment.withWorkload(program);
    campaign::CampaignSpec spec;
    spec.withExperiment(experiment)
        .withSpace(core::SetupSpace().varyEnvSize().varyLinkOrder(),
                   setups)
        .withSeed(seed)
        .withPlan({campaign::RepetitionPlan::Kind::AslrRandomized, reps});
    return spec;
}

bool
sameInterval(const stats::ConfidenceInterval &a,
             const stats::ConfidenceInterval &b)
{
    return bitsOf(a.estimate) == bitsOf(b.estimate) &&
           bitsOf(a.lower) == bitsOf(b.lower) &&
           bitsOf(a.upper) == bitsOf(b.upper);
}

/** What the layer-by-layer decomposition counts on top of spans. */
struct DriveCounts
{
    std::uint64_t loads = 0;
    std::uint64_t runs = 0;
    std::uint64_t insts = 0;
    std::uint64_t replayedInsts = 0;
};

/**
 * One side of one ASLR task, driven through the layers one call at a
 * time: the shared ArtifactCache compiles and links, every draw loads
 * a fresh image under its own ASLR seed, draw 0 records the
 * functional stream (or finds it in the ReplayCache) and the other
 * draws replay it, rebased to their stack.  Returns the metric sample
 * (cycles per draw), whose mean the engine stores for the task.
 */
stats::Sample
driveSide(const core::ExperimentSpec &spec,
          const toolchain::ToolchainSpec &tc,
          const core::ExperimentSetup &setup, unsigned reps,
          std::uint64_t aslr_seed_base, DriveCounts &counts)
{
    toolchain::ProgramPtr prog;
    {
        HarnessSpan span("toolchain.materialize");
        auto &artifacts = toolchain::ArtifactCache::global();
        const std::string key =
            "perfbench|" + spec.workload + '|' +
            std::to_string(spec.workloadConfig.scale) + '|' +
            std::to_string(spec.workloadConfig.seed) + '|' +
            std::to_string(int(tc.vendor)) + '|' +
            std::to_string(int(tc.level));
        const auto mods = artifacts.compiled(key, [&] {
            const auto &w = workloads::findWorkload(spec.workload);
            return toolchain::Compiler(tc.vendor, tc.level)
                .compile(w.build(spec.workloadConfig));
        });
        prog = artifacts.linked(mods, setup.linkOrder);
    }
    std::optional<sim::Machine> machine;
    {
        HarnessSpan span("sim.machine_init");
        machine.emplace(spec.machine);
    }
    constexpr std::uint64_t budget = sim::Machine::kDefaultRunBudget;
    const bool tierOn = reps > 1 && sim::replayTierUsable(*machine);
    auto &replays = sim::ReplayCache::global();
    std::shared_ptr<const sim::FunctionalTrace> trace;
    stats::Sample out;
    for (unsigned r = 0; r < reps; ++r) {
        toolchain::LoaderConfig lc;
        lc.envBytes = setup.envBytes;
        lc.aslrSeed = aslr_seed_base + r;
        toolchain::ProcessImage image;
        {
            HarnessSpan span("toolchain.load");
            image = toolchain::Loader::load(prog, lc);
        }
        ++counts.loads;
        sim::RunResult rr;
        const auto replay = [&] {
            HarnessSpan span("sim.replay");
            rr = machine->runReplay(image, budget, sim::NoiseModel::none(),
                                    *trace);
            counts.replayedInsts += rr.instructions();
        };
        const auto plainRun = [&] {
            HarnessSpan span("sim.run");
            rr = machine->run(image, budget);
        };
        if (trace) {
            replay();
        } else if (r == 0 && tierOn) {
            bool unrecordable = false;
            {
                HarnessSpan span("sim.replay_lookup");
                trace = replays.find(image, budget, &unrecordable);
            }
            if (trace) {
                replay();
            } else if (!unrecordable) {
                {
                    HarnessSpan span("sim.record");
                    rr = machine->runRecord(image, budget,
                                            sim::NoiseModel::none(), &trace);
                }
                HarnessSpan span("sim.replay_lookup");
                replays.insert(image, budget, trace);
                if (!trace)
                    replays.noteFallback();
            } else {
                replays.noteFallback();
                plainRun();
            }
        } else {
            plainRun();
        }
        if (!rr.halted)
            die("workload did not halt: " + spec.workload);
        ++counts.runs;
        counts.insts += rr.instructions();
        out.add(double(rr.cycles()));
    }
    return out;
}

/** The fresh campaign as the decomposition: every task through
 *  driveSide() on both sides, persisted through the ResultStore. */
void
driveCampaign(const campaign::CampaignSpec &spec, const std::string &path,
              DriveCounts &counts)
{
    campaign::ResultStore store(path);
    {
        HarnessSpan span("campaign.store_open");
        store.reset();
        store.writeHeader(obs::Provenance::capture(1));
    }
    const core::ExperimentSpec &exp = spec.experiment;
    for (const campaign::CampaignTask &task : spec.expand()) {
        HarnessSpan taskSpan("campaign.task",
                             exp.workload + "#" +
                                 std::to_string(task.index));
        const auto base =
            driveSide(exp, exp.baseline, task.setup, task.plan.reps,
                      mixSeed(task.taskSeed, 0), counts);
        const auto treat =
            driveSide(exp, exp.treatment, task.setup, task.plan.reps,
                      mixSeed(task.taskSeed, 1), counts);
        core::RunOutcome outcome;
        outcome.setup = task.setup;
        outcome.baseline.halted = outcome.treatment.halted = true;
        outcome.speedup = base.mean() / treat.mean();
        const auto rec = campaign::TaskRecord::make(
            campaign::taskKey(exp, task), task, outcome, base.mean(),
            treat.mean());
        HarnessSpan span("campaign.store_append");
        store.append(rec);
    }
}

int
runAslr(const Options &opts)
{
    // Set-up: validate the programs, build the campaign specs, and
    // prepare the store paths.
    std::vector<campaign::CampaignSpec> specs;
    std::vector<std::string> stores;
    for (const auto &[program, setups] : opts.programs) {
        workloads::findWorkload(program);
        specs.push_back(aslrCampaign(program, setups, opts.reps, opts.seed));
        stores.push_back(opts.out + "/" + program + ".jsonl");
        fs::remove(stores.back());
    }

    Result result;
    TracedRun traced(opts);
    const CacheCounts before = CacheCounts::now();
    result.tFirst = monoSeconds(Clock::now());
    if (opts.setupOnly) {
        result.write(opts.out + "/result.json");
        return 0;
    }

    campaign::AnalyzeOptions aopts;
    aopts.resamples = opts.resamples;
    aopts.seed = opts.seed;
    DriveCounts counts;
    std::uint64_t resumedTasks = 0;
    std::vector<campaign::CampaignReport> fresh, resumed;
    std::vector<campaign::StoreAnalysis> analyses;
    std::vector<stats::ConfidenceInterval> direct;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        campaign::CampaignOptions copts;
        copts.outPath = stores[i];
        if (opts.decompose)
            driveCampaign(specs[i], stores[i], counts);
        else
            fresh.push_back(campaign::CampaignEngine(specs[i], copts).run());
        copts.resume = true;
        {
            HarnessSpan span("campaign.store_load");
            resumed.push_back(
                campaign::CampaignEngine(specs[i], copts).run());
        }
        resumedTasks += resumed.back().stats.resumedFromStore;
        {
            HarnessSpan span("campaign.analyze");
            analyses.push_back(campaign::analyzeStore(stores[i], aopts));
        }
        if (opts.decompose) {
            const auto cols = campaign::readStoreColumns(stores[i]);
            HarnessSpan span("stats.bootstrap");
            direct.push_back(stats::Engine().bootstrapInterval(
                cols.speedup, aopts.seed, aopts.resamples,
                aopts.confidence));
        }
    }
    result.tEnd = monoSeconds(Clock::now());
    traced.finish(result);

    // The in-process gates (untimed).
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::string &program = specs[i].experiment.workload;
        const auto &rs = resumed[i];
        Check resume{"resume." + program};
        resume.expect(rs.stats.executed == 0 &&
                          rs.stats.resumedFromStore == rs.stats.totalTasks,
                      std::to_string(rs.stats.executed) +
                          " tasks re-executed on resume");
        if (!opts.decompose) {
            const auto &a = fresh[i].bias.outcomes;
            const auto &b = rs.bias.outcomes;
            for (std::size_t t = 0; t < a.size(); ++t)
                resume.expect(t < b.size() && a[t].setup == b[t].setup &&
                                  bitsOf(a[t].speedup) ==
                                      bitsOf(b[t].speedup),
                              "task " + std::to_string(t) +
                                  " resumed differs from fresh");
        }
        result.checks.push_back(resume);

        Check analyze{"analyze." + program};
        if (opts.decompose) {
            analyze.expect(sameInterval(direct[i], analyses[i].bootstrapCI),
                           "stats::Engine interval differs from "
                           "analyzeStore's");
        } else {
            campaign::AnalyzeOptions jobs4 = aopts;
            jobs4.jobs = 4;
            const auto again = campaign::analyzeStore(stores[i], jobs4);
            analyze.expect(
                sameInterval(again.bootstrapCI, analyses[i].bootstrapCI) &&
                    sameInterval(again.tCI, analyses[i].tCI),
                "analyzeStore interval differs at jobs 4");
        }
        result.checks.push_back(analyze);
    }

    std::string storesJson = "[";
    for (std::size_t i = 0; i < stores.size(); ++i) {
        if (i)
            storesJson += ',';
        storesJson += jsonString(stores[i]);
    }
    result.add("stores", storesJson + "]");
    result.add("caches", CacheCounts::now().since(before).json());
    result.add("resumed", std::to_string(resumedTasks));
    if (opts.decompose) {
        std::uint64_t tasks = 0;
        for (const auto &s : specs)
            tasks += s.taskCount();
        result.add("tasks", std::to_string(tasks));
        result.add("loads", std::to_string(counts.loads));
        result.add("runs", std::to_string(counts.runs));
        result.add("insts", std::to_string(counts.insts));
        result.add("replayed_insts", std::to_string(counts.replayedInsts));
        result.add("resamples",
                   std::to_string(std::uint64_t(opts.resamples) *
                                  specs.size()));
    }
    result.write(opts.out + "/result.json");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseOptions(argc, argv);
    fs::create_directories(opts.out);
    return opts.mode == "paper" ? runPaper(opts) : runAslr(opts);
}
