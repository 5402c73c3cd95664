#!/usr/bin/env python3
"""The repo benchmark: mbias's user-facing runs, timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an mbias checkout.  The first run builds the
measured child (perfbench/harness.cc, linked against the checkout's own
libraries) under .bench_build/ (or $CARGO_TARGET_DIR); later runs only
rebuild what changed.

Workloads (see perfbench/README.md for why each exists):

  paper_serial  the 18 paper figures/tables through runFigure, --jobs 1
  aslr_store    ASLR-randomized campaigns into a JSONL store, resumed,
                then analyzed (perl and hmmer at 16 setups, mcf at 4,
                32 draws each)

Every measured sample is a fresh child process whose environment is
padded by a seeded 0-4 KiB variable.  With --trace 0 the run repeats
children for --seconds and reports the end-to-end metrics (medians);
with --trace 1 it runs one untraced and one traced child (plus, on
aslr_store, one that drives the campaign through the layers itself)
and reports the per-layer metrics.  Every transcript is checked against
tests/golden, every resumed store against the fresh one.  The last
line of stdout is the JSON result; the lines above it list every
metric by name with its unit, the quartiles, and the provenance.  With
--trace 1 the result line holds the per-layer metrics every workload
measures (TRACKED_PER_LAYER); a run that cannot give one of them (an
MBIAS_OBS=OFF build) prints its lines and exits 1 without a result.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent

# Fixed on purpose: a later change that registers another figure must
# not read as a regression.  Registry order.
FIGURE_IDS = [
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
    "fig9", "fig10", "fig11", "fig12", "fig13", "table1", "table2",
    "table3", "ablation", "corpus",
]
ASLR_PROGRAMS = "perl:16,hmmer:16,mcf:4"
ASLR_REPS = 32
ASLR_RESAMPLES = 10000
WORKLOADS = {"paper_serial": "paper", "aslr_store": "aslr"}

ENV_PAD_VAR = "PERFBENCH_ENV_PAD"
ENV_PAD_MAX = 4096
SETUP_SAMPLES = 15      # set-up-only children per run, for setup_s
MAX_CHILDREN = 50       # per run, whatever --seconds allows
CHILD_TIMEOUT_S = 120   # a hung child is killed, and the run fails
VOLATILE_PREFIXES = (b"[campaign:", b"[metrics]")

END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
]

LAYERS = ["pipeline", "campaign", "toolchain", "sim", "stats", "lang",
          "core", "other"]

# Layer of each span the program records (obs::ScopedSpan and the
# pool's queue-wait events).  "task" is a container: its self time is
# work no layer span covers, which counts as unattributed.
PROGRAM_SPAN_LAYER = {
    "task": None,
    "queue-wait": "campaign", "runner-init": "campaign",
    "store-append": "campaign", "aggregate": "campaign",
    "setup-materialize": "toolchain", "compile": "toolchain",
    "run": "sim", "run-profiled": "sim", "replay-record": "sim",
    "trace-translate": "sim",
    "bootstrap": "stats", "anova": "stats", "analyze-store": "stats",
    "explain": "core",
}
# The harness's own spans are named <layer>.<what>; these two are
# containers like the program's "task".
HARNESS_CONTAINERS = {"campaign.task"}


# The per-layer metrics of the result line (BENCHMARK.json's
# per_layer): those every workload measures.  The rest of
# per_layer_names() is workload-specific (a figure's time, the store,
# the per-draw loads, the replay rate, the bootstrap) or often zero (a
# layer that has no spans on one workload), so it is printed above the
# result line only.
TRACKED_PER_LAYER = [
    "campaign.tasks", "campaign.task_p50_ms",
    "toolchain.materialize_s", "toolchain.link_misses",
    "toolchain.link_hit_ratio", "toolchain.artifact_bytes",
    "sim.run_s", "sim.runs", "sim.plan_builds", "sim.plan_hit_ratio",
    "sim.trace_translate_s", "sim.record_s", "sim.records", "sim.replays",
    "sim.replay_hit_ratio", "sim.replay_fallbacks", "sim.replay_bytes",
    "layer.campaign.self_s", "layer.toolchain.self_s", "layer.sim.self_s",
    "trace.wall_s", "trace.unattributed_frac", "trace.overhead_frac",
    "check.failed_frac",
]


def per_layer_names():
    """Every per-layer metric, with its unit, in report order."""
    names = [(f"pipeline.figure_s.{fid}", "s") for fid in FIGURE_IDS]
    names += [
        ("campaign.tasks", "count"), ("campaign.task_p50_ms", "ms"),
        ("campaign.task_tail_ms", "ms"),
        ("campaign.queue_wait_s", "s"), ("campaign.store_append_s", "s"),
        ("campaign.store_load_s", "s"), ("campaign.resumed", "count"),
        ("campaign.analyze_s", "s"),
        ("toolchain.materialize_s", "s"), ("toolchain.link_misses", "count"),
        ("toolchain.link_hit_ratio", "ratio"),
        ("toolchain.image_hit_ratio", "ratio"), ("toolchain.load_s", "s"),
        ("toolchain.loads", "count"), ("toolchain.artifact_bytes", "bytes"),
        ("sim.run_s", "s"), ("sim.runs", "count"),
        ("sim.plan_builds", "count"), ("sim.plan_hit_ratio", "ratio"),
        ("sim.trace_translate_s", "s"), ("sim.machine_init_s", "s"),
        ("sim.record_s", "s"), ("sim.records", "count"),
        ("sim.replay_s", "s"), ("sim.replays", "count"),
        ("sim.replay_hit_ratio", "ratio"), ("sim.replay_fallbacks", "count"),
        ("sim.insts", "count"), ("sim.minsts_per_s", "Minsts/s"),
        ("sim.replay_minsts_per_s", "Minsts/s"),
        ("sim.replay_bytes", "bytes"),
        ("stats.bootstrap_s", "s"), ("stats.resamples_per_s", "1/s"),
    ]
    names += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    names += [
        ("trace.wall_s", "s"), ("trace.unattributed_frac", "ratio"),
        ("trace.overhead_frac", "ratio"), ("check.failed_frac", "ratio"),
    ]
    return names


class BenchError(Exception):
    """A run that cannot produce a result (exit code 1)."""


# ---------------------------------------------------------------------
# Build


def nproc():
    return len(os.sched_getaffinity(0))


def check_checkout():
    """Exits 2 unless run inside a whole mbias checkout."""
    needed = [ROOT / "CMakeLists.txt", ROOT / "src" / "CMakeLists.txt",
              ROOT / "bench" / "figures", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print("perfbench: not an mbias checkout (missing "
              + ", ".join(missing) + ")", file=sys.stderr)
        sys.exit(2)


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(cmake_args):
    """Configures (once) and builds the harness; returns its path."""
    tag = "-".join(a.lstrip("-D").replace("=", "_") for a in cmake_args)
    bdir = build_root() / ("cmake" + ("-" + tag if tag else ""))
    log_path = build_root() / "build.log"
    bdir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir)]
                     + gen + ["-DCMAKE_BUILD_TYPE=Release"] + cmake_args)
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "perfbench_harness", "-j", str(nproc())])
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT).returncode
            if rc != 0:
                tail = log_path.read_text(errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                raise BenchError(f"build step failed: {' '.join(cmd)}")
    return bdir / "perfbench_harness"


# ---------------------------------------------------------------------
# Provenance


def tree_identity():
    """Which tree was measured, computed now: the git HEAD plus a hash
    of the uncommitted diff when this is a git checkout, and always a
    content hash of the sources the benchmark builds and checks."""
    ident = {}
    h = hashlib.sha256()
    roots = ["CMakeLists.txt", "src", "bench", "tools", "tests/golden",
             "perfbench"]
    for rel in roots:
        base = ROOT / rel
        files = [base] if base.is_file() else sorted(
            p for p in base.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts)
        for p in files:
            h.update(str(p.relative_to(ROOT)).encode() + b"\0")
            h.update(p.read_bytes())
    ident["source_sha256"] = h.hexdigest()
    if (ROOT / ".git").exists() and shutil.which("git"):
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT,
                                  capture_output=True).stdout
        head = git("rev-parse", "HEAD").decode().strip()
        if head:
            ident["git_head"] = head
            diff = git("diff", "HEAD", "--binary")
            untracked = sorted(u for u in git(
                "ls-files", "--others", "--exclude-standard", "-z"
            ).split(b"\0") if u)
            dirty = hashlib.sha256(diff)
            for rel in untracked:
                dirty.update(rel + b"\0" + (ROOT / rel.decode()).read_bytes())
            ident["git_dirty_sha256"] = (
                dirty.hexdigest() if diff or untracked else None)
    return ident


def cpu_model():
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ---------------------------------------------------------------------
# Children


class Child:
    """One finished child: its result file plus what the parent saw."""

    def __init__(self, result, t_spawn, rusage, pad_bytes, workdir):
        self.result = result
        self.pad_bytes = pad_bytes
        self.workdir = workdir
        self.setup_s = result["t_first"] - t_spawn
        self.wall_s = result["t_end"] - result["t_first"]
        self.cpu_s = rusage.ru_utime + rusage.ru_stime
        self.peak_rss_mb = rusage.ru_maxrss / 1024.0


def pad_size(workload, seed, index):
    """Environment padding of child @index: drawn from the seed and
    the child's index, so no one stack alignment favours a side."""
    return random.Random(f"{workload}:{seed}:{index}").randrange(
        ENV_PAD_MAX + 1)


def spawn(harness, args, workdir, pad_bytes):
    workdir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MBIAS_")}
    env[ENV_PAD_VAR] = "x" * pad_bytes
    log_path = workdir / "child.log"
    with open(log_path, "wb") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([str(harness), "--out", str(workdir)] + args,
                                env=env, cwd=ROOT, stdout=log, stderr=log)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"child exited with {proc.returncode}: "
                         f"{' '.join(args)}\n{tail}")
    result = json.loads((workdir / "result.json").read_text())
    return Child(result, t_spawn, rusage, pad_bytes, workdir)


def child_args(mode, opts, traced=False, decompose=False,
               setup_only=False):
    args = ["--mode", mode]
    if mode == "paper":
        args += ["--ids", ",".join(opts.ids)]
    else:
        args += ["--seed", str(opts.seed), "--programs", opts.programs,
                 "--reps", str(opts.reps),
                 "--resamples", str(opts.resamples)]
    if traced:
        args.append("--traced")
    if decompose:
        args.append("--decompose")
    if setup_only:
        args.append("--setup-only")
    return args


# ---------------------------------------------------------------------
# Correctness gates


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, name, attempted, failed, detail=""):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{name}: {failed}/{attempted} {detail}")

    def frac(self):
        return self.failed / self.attempted if self.attempted else 0.0


def strip_volatile(data):
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(VOLATILE_PREFIXES))


def check_child(child, golden_dir, checks):
    """Golden byte-compare per figure (volatile accounting lines
    stripped, as tests/golden/run_diff.sh does) and the child's own
    in-process gates."""
    for fig in child.result.get("figures", []):
        if not fig["present"]:
            continue
        golden = Path(golden_dir) / f"{fig['id']}.txt"
        got = Path(fig["transcript"])
        ok = golden.exists() and (strip_volatile(got.read_bytes())
                                  == strip_volatile(golden.read_bytes()))
        checks.add(f"golden.{fig['id']}", 1, 0 if ok else 1,
                   f"differs from {golden}")
    for c in child.result["checks"]:
        checks.add(c["name"], c["attempted"], c["failed"], c["detail"])


def store_records(path):
    recs = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith('{"key"'):
            rec = json.loads(line)
            recs[rec["key"]] = rec
    return recs


def check_decomposition(engine_child, traced_child, checks):
    """The traced child's layer-by-layer decomposition must reproduce
    the engine's store bitwise: same tasks, same per-task metric means
    and speedup bit patterns."""
    fields = ("task", "env", "link_kind", "link_seed", "base_metric",
              "treat_metric", "speedup")
    for a, b in zip(engine_child.result["stores"],
                    traced_child.result["stores"]):
        ra, rb = store_records(a), store_records(b)
        keys = set(ra) | set(rb)
        bad = sum(1 for k in keys if k not in ra or k not in rb
                  or any(ra[k][f] != rb[k][f] for f in fields))
        checks.add(f"decomposition.{Path(a).stem}", max(len(keys), 1), bad,
                   "decomposed task differs from the engine's")


# ---------------------------------------------------------------------
# Metrics


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100.0) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return q[int(round(pct * 10)) - 1], pct
    return None, None


def load_program_spans(child):
    path = child.result.get("program_trace")
    if not path:
        return None
    doc = json.loads((ROOT / path).read_text())
    return [e for e in doc["traceEvents"] if e.get("ph") == "X"]


def harness_layer(name):
    return None if name in HARNESS_CONTAINERS else name.split(".", 1)[0]


def program_layer(event):
    name = event["name"]
    if name in PROGRAM_SPAN_LAYER:
        return PROGRAM_SPAN_LAYER[name]
    if name.startswith(("asm.", "fuzz.")):
        return "lang"
    return "other"


def self_times(spans, window):
    """Self time per layer on one thread's timeline.

    @spans are (t0_us, t1_us, layer-or-None) on the thread; @window
    is the traced wall.  A span's self time is its duration minus what
    its children cover; container spans (layer None) and time in no
    span at all are unattributed.  Self times plus the unattributed
    time sum to the window exactly."""
    w0, w1 = window
    items = sorted(((max(a, w0), min(b, w1), layer)
                    for a, b, layer in spans if min(b, w1) > max(a, w0)),
                   key=lambda s: (s[0], -s[1]))
    selfs = {layer: 0.0 for layer in LAYERS}
    unattributed = 0.0
    covered_top = 0.0
    stack = []  # open spans: [end, layer, start, child_cover]

    def close(frame):
        nonlocal unattributed
        end, layer, start, cover = frame
        own = (end - start) - cover
        if layer is None:
            unattributed += own
        else:
            selfs[layer] += own

    for start, end, layer in items:
        while stack and stack[-1][0] <= start:
            close(stack.pop())
        if stack:
            end = min(end, stack[-1][0])
            stack[-1][3] += end - start
        else:
            covered_top += end - start
        stack.append([end, layer, start, 0.0])
    while stack:
        close(stack.pop())
    unattributed += (w1 - w0) - covered_top
    to_s = 1e-6
    return ({k: v * to_s for k, v in selfs.items()}, unattributed * to_s,
            (w1 - w0) * to_s)


def ratio(hits, misses):
    total = hits + misses
    return hits / total if total else None


def per_layer_metrics(mode, plain, traced, decomposed=None):
    """Per-layer metrics of one traced run; None marks a metric whose
    layer does no work on this workload (or whose spans the build
    compiled out).  @traced runs the same code as @plain, so their
    wall times give the tracing overhead; on aslr the layer metrics
    come from @decomposed.  Returns (metrics, notes): the notes are
    metadata lines printed next to the metrics."""
    m = {name: None for name, _ in per_layer_names()}
    notes = []
    m["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    layers = decomposed or traced
    res = layers.result
    origin = res["origin"]
    window = ((res["t_first"] - origin) * 1e6, (res["t_end"] - origin) * 1e6)
    hspans = res["spans"]
    pspans = load_program_spans(layers)

    def hsum(name):
        durs = [s["t1"] - s["t0"] for s in hspans if s["name"] == name]
        return sum(durs) * 1e-6 if durs else None

    def psum(*names):
        if pspans is None:
            return None
        durs = [e["dur"] for e in pspans if e["name"] in names]
        return sum(durs) * 1e-6 if durs else None

    def pcount(*names):
        if pspans is None:
            return None
        return sum(1 for e in pspans if e["name"] in names)

    def per_sec(count, secs, scale=1.0):
        return count / scale / secs if count and secs else None

    def task_latency(durs_us):
        if not durs_us:
            return
        m["campaign.task_p50_ms"] = statistics.median(durs_us) / 1000.0
        value, pct = tail(durs_us)
        if value is not None:
            m["campaign.task_tail_ms"] = value / 1000.0
            notes.append(f"campaign.task_tail_ms is the p{pct:g} "
                         f"of n={len(durs_us)} tasks")

    main = [(s["t0"], s["t1"], harness_layer(s["name"])) for s in hspans]
    if mode == "paper":
        figs = [f for f in res["figures"] if f["present"]]
        caches = {}
        for f in figs:
            for k, v in f["caches"].items():
                caches[k] = (max(caches.get(k, 0), v) if k.endswith(".bytes")
                             else caches.get(k, 0) + v)
        for s in hspans:
            m[f"pipeline.figure_s.{s['arg']}"] = (s["t1"] - s["t0"]) * 1e-6
        if pspans is not None:
            tasks = [e["dur"] for e in pspans if e["name"] == "task"]
            m["campaign.tasks"] = len(tasks)
            task_latency(tasks)
        m["campaign.queue_wait_s"] = psum("queue-wait")
        m["toolchain.materialize_s"] = psum("setup-materialize")
        m["sim.run_s"] = psum("run", "run-profiled")
        m["sim.runs"] = pcount("run", "run-profiled")
        m["sim.record_s"] = psum("replay-record")
        m["stats.bootstrap_s"] = psum("bootstrap")
    else:
        caches = res["caches"]
        tasks = [s["t1"] - s["t0"] for s in hspans
                 if s["name"] == "campaign.task"]
        m["campaign.tasks"] = res["tasks"]
        task_latency(tasks)
        m["campaign.queue_wait_s"] = psum("queue-wait")
        m["campaign.store_append_s"] = hsum("campaign.store_append")
        m["campaign.store_load_s"] = hsum("campaign.store_load")
        m["campaign.resumed"] = res["resumed"]
        m["campaign.analyze_s"] = hsum("campaign.analyze")
        m["toolchain.materialize_s"] = hsum("toolchain.materialize")
        m["toolchain.load_s"] = hsum("toolchain.load")
        m["toolchain.loads"] = res["loads"]
        sims = [hsum(n) for n in ("sim.record", "sim.replay", "sim.run")]
        m["sim.run_s"] = sum(s for s in sims if s) or None
        m["sim.runs"] = res["runs"]
        m["sim.machine_init_s"] = hsum("sim.machine_init")
        m["sim.record_s"] = hsum("sim.record")
        m["sim.replay_s"] = hsum("sim.replay")
        m["sim.insts"] = res["insts"]
        m["sim.minsts_per_s"] = per_sec(res["insts"], m["sim.run_s"], 1e6)
        m["sim.replay_minsts_per_s"] = per_sec(
            res["replayed_insts"], m["sim.replay_s"], 1e6)
        m["stats.bootstrap_s"] = hsum("stats.bootstrap")
        m["stats.resamples_per_s"] = per_sec(res["resamples"],
                                             m["stats.bootstrap_s"])
    m["sim.trace_translate_s"] = psum("trace-translate")
    m["toolchain.link_misses"] = caches["artifact.link_misses"]
    m["toolchain.link_hit_ratio"] = ratio(caches["artifact.link_hits"],
                                          caches["artifact.link_misses"])
    m["toolchain.image_hit_ratio"] = ratio(caches["artifact.image_hits"],
                                           caches["artifact.image_misses"])
    m["toolchain.artifact_bytes"] = caches["artifact.bytes"]
    m["sim.plan_builds"] = caches["plan.misses"]
    m["sim.plan_hit_ratio"] = ratio(caches["plan.hits"], caches["plan.misses"])
    m["sim.records"] = caches["replay.records"]
    m["sim.replays"] = caches["replay.replays"]
    m["sim.replay_hit_ratio"] = ratio(caches["replay.hits"],
                                      caches["replay.misses"])
    m["sim.replay_fallbacks"] = caches["replay.fallbacks"]
    m["sim.replay_bytes"] = caches["replay.bytes"] or None

    # The self-time split of the harness thread's traced wall.  Paper
    # runs need the program's spans for it: without them (an
    # MBIAS_OBS=OFF build) the figure spans would swallow every layer.
    if pspans is not None or mode != "paper":
        main += [(e["ts"], e["ts"] + e["dur"], program_layer(e))
                 for e in (pspans or []) if e["tid"] == 0]
        selfs, unattributed, wall = self_times(main, window)
        for layer, secs in selfs.items():
            m[f"layer.{layer}.self_s"] = secs
        m["trace.wall_s"] = wall
        m["trace.unattributed_frac"] = unattributed / wall
    return m, notes


# ---------------------------------------------------------------------
# The run


def fmt(value):
    if value is None:
        return "absent"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(opts):
    mode = WORKLOADS[opts.workload]
    harness = build(opts.cmake_arg)
    work = build_root() / "work" / f"{opts.workload}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    checks = Checks()
    children = []
    notes = []
    index = 0

    def next_child(pad_index=None, **kw):
        nonlocal index
        pad = pad_size(opts.workload, opts.seed,
                       index if pad_index is None else pad_index)
        child = spawn(harness, child_args(mode, opts, **kw),
                      work / f"c{index}", pad)
        index += 1
        return child

    try:
        if opts.trace:
            plain = next_child()
            traced = next_child(pad_index=0, traced=True)
            children = [plain, traced]
            decomposed = None
            if mode == "aslr":
                decomposed = next_child(pad_index=0, decompose=True)
                children.append(decomposed)
                check_decomposition(plain, decomposed, checks)
            for c in children:
                check_child(c, opts.golden_dir, checks)
            metrics, notes = per_layer_metrics(mode, plain, traced,
                                               decomposed)
            metrics["check.failed_frac"] = checks.frac()
            units = dict(per_layer_names())
            reported = TRACKED_PER_LAYER
        else:
            setups = [next_child(setup_only=True).setup_s
                      for _ in range(opts.setup_samples)]
            start = time.monotonic()
            while len(children) < MAX_CHILDREN:
                t0 = time.monotonic()
                child = next_child()
                check_child(child, opts.golden_dir, checks)
                children.append(child)
                shutil.rmtree(child.workdir)
                last = time.monotonic() - t0
                if time.monotonic() - start + last > opts.seconds:
                    break
            setups += [c.setup_s for c in children]
            samples = {
                "wall_s": [c.wall_s for c in children],
                "setup_s": setups,
                "cpu_s": [c.cpu_s for c in children],
                "peak_rss_mb": [c.peak_rss_mb for c in children],
            }
            metrics = {k: statistics.median(v) for k, v in samples.items()}
            units = dict(END_TO_END)
            reported = list(metrics)
            for name, values in samples.items():
                # One child (a long paper_serial one) has no quartiles:
                # its spread is the spread between runs.
                spread = "no quartiles"
                if len(values) > 1:
                    q = statistics.quantiles(values, n=4)
                    spread = f"quartiles {q[0]:.6g}..{q[2]:.6g}"
                print(f"{name}: median {metrics[name]:.6g} {units[name]}, "
                      f"{spread}, n={len(values)}")
            figure_walls = {}
            for c in children:
                for f in c.result.get("figures", []):
                    if f["present"]:
                        figure_walls.setdefault(f["id"], []).append(
                            f["wall_s"])
            if figure_walls:
                print("figure wall_s (median over children): " + ", ".join(
                    f"{k}={statistics.median(v):.4g}"
                    for k, v in figure_walls.items()))
    finally:
        if work.exists():
            shutil.rmtree(work)

    absent = [f["id"] for f in children[0].result.get("figures", [])
              if not f["present"]]
    if absent:
        print("absent figures (not registered in this tree): "
              + ", ".join(absent))
    for line in notes:
        print(line)
    for line in checks.failures:
        print(f"CHECK FAILED {line}")
    print(f"failed_frac: {checks.frac():.6g} ratio "
          f"({checks.failed}/{checks.attempted} checked outputs)")
    for name, value in metrics.items():
        print(f"metric {name} = {fmt(value)} {units[name]}")
    prov = {
        "workload": opts.workload, "seed": opts.seed,
        "seconds": opts.seconds, "trace": opts.trace,
        "nproc": nproc(), "cpu_model": cpu_model(),
        "build": {k: children[0].result["provenance"].get(k)
                  for k in ("compiler", "flags", "build_type")},
        "obs": children[0].result["obs"],
        "env_pad_bytes": [c.pad_bytes for c in children],
        "tree": tree_identity(),
    }
    print("provenance: " + json.dumps(prov, sort_keys=True))
    missing = [name for name in reported if metrics[name] is None]
    if missing:
        raise BenchError("no value for " + ", ".join(missing)
                         + " (the result line needs every one)")
    out = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in reported},
    }
    print(json.dumps(out))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Smaller or altered runs, for the benchmark's own tests.
    ap.add_argument("--ids", default=",".join(FIGURE_IDS),
                    help=argparse.SUPPRESS)
    ap.add_argument("--programs", default=ASLR_PROGRAMS,
                    help=argparse.SUPPRESS)
    ap.add_argument("--reps", type=int, default=ASLR_REPS,
                    help=argparse.SUPPRESS)
    ap.add_argument("--resamples", type=int, default=ASLR_RESAMPLES,
                    help=argparse.SUPPRESS)
    ap.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                    help=argparse.SUPPRESS)
    ap.add_argument("--golden-dir", default=str(ROOT / "tests" / "golden"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--cmake-arg", action="append", default=[],
                    help=argparse.SUPPRESS)
    opts = ap.parse_args(argv)
    opts.ids = [i for i in opts.ids.split(",") if i]
    check_checkout()
    try:
        run(opts)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
