#!/usr/bin/env python3
"""The repo benchmark's own tests, at a tiny size.

    python3 perfbench/tests/test_perfbench.py

Run from the root of a checkout.  They drive perfbench/run.py with a
handful of figures and a two-program ASLR campaign instead of the full
workloads.  The MBIAS_OBS=OFF test configures a second build tree
under .bench_build/, so the first run of this file takes a few
minutes.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (perfbench/run.py)

# fig13 records and replays, so every layer of the result line has work.
TINY_PAPER = ["--ids", "table1,fig3,fig13", "--setup-samples", "2"]
TINY_ASLR = ["--programs", "perl:3,mcf:2", "--reps", "4",
             "--resamples", "500", "--setup-samples", "2"]
# Metrics that come only from the program's own spans.
PROGRAM_SPAN_METRICS = [
    "campaign.tasks", "campaign.task_p50_ms", "campaign.queue_wait_s",
    "toolchain.materialize_s", "sim.run_s", "sim.runs",
]


def bench(workload, trace, extra, cwd=ROOT, script=None):
    """Runs the benchmark; returns (returncode, stdout lines, result)."""
    script = script or BENCH_DIR / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)] + extra,
        cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0:
        result = json.loads(lines[-1])
    return proc.returncode, lines, result


def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def printed(lines):
    """The "metric <name> = <value> <unit>" lines: name -> value, None
    where the line says absent."""
    values = {}
    for line in lines:
        if line.startswith("metric "):
            name, rest = line[len("metric "):].split(" = ", 1)
            value = rest.split(" ", 1)[0]
            values[name] = None if value == "absent" else float(value)
    return values


class MetricsNamed(unittest.TestCase):
    """Every metric is printed by name with its unit."""

    def assert_reported(self, lines, result, entries):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {e["name"] for e in entries})
        for e in entries:
            got = result["metrics"][e["name"]]
            self.assertEqual(got["unit"], e["unit"], e["name"])
            self.assertTrue(
                any(l.startswith(f"metric {e['name']} = ")
                    and l.endswith(" " + e["unit"]) for l in lines),
                e["name"])
        self.assertTrue(any(l.startswith("failed_frac: 0 ratio")
                            for l in lines))
        self.assertTrue(any(l.startswith("provenance: ") for l in lines))

    def test_end_to_end(self):
        for workload, extra in (("paper_serial", TINY_PAPER),
                                ("aslr_store", TINY_ASLR)):
            with self.subTest(workload=workload):
                rc, lines, result = bench(workload, 0, extra)
                self.assertEqual(rc, 0)
                self.assert_reported(lines, result, declared()["end_to_end"])
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_per_layer(self):
        for workload, extra in (("paper_serial", TINY_PAPER),
                                ("aslr_store", TINY_ASLR)):
            with self.subTest(workload=workload):
                rc, lines, result = bench(workload, 1, extra)
                self.assertEqual(rc, 0)
                self.assert_reported(lines, result, declared()["per_layer"])
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                # The workload-specific metrics are printed, not in the
                # result line.
                self.assertEqual(set(printed(lines)),
                                 {n for n, _ in run.per_layer_names()})
                self.assertTrue(any(
                    l.startswith("campaign.task_tail_ms is the p")
                    or l == "metric campaign.task_tail_ms = absent ms"
                    for l in lines))


    def test_tracked_is_declared(self):
        units = dict(run.per_layer_names())
        self.assertEqual(
            [(e["name"], e["unit"]) for e in declared()["per_layer"]],
            [(n, units[n]) for n in run.TRACKED_PER_LAYER])


class GoldenGate(unittest.TestCase):
    def test_perturbed_golden_fails(self):
        work = run.build_root() / "test-golden"
        shutil.rmtree(work, ignore_errors=True)
        shutil.copytree(ROOT / "tests" / "golden", work)
        golden = work / "table1.txt"
        golden.write_text(golden.read_text().replace("perl", "perk", 1))
        rc, lines, result = bench("paper_serial", 1,
                                  TINY_PAPER + ["--golden-dir", str(work)])
        shutil.rmtree(work)
        self.assertEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["metrics"]["check.failed_frac"]["value"], 0)
        self.assertTrue(any(l.startswith("CHECK FAILED golden.table1")
                            for l in lines))


class SelfTimes(unittest.TestCase):
    """Layer self times plus the unattributed share sum to the traced
    wall time."""

    def assert_sums(self, metrics):
        # Within the rounding of the printed values (six significant
        # digits each).
        def err(v):
            return 0.5 * 10 ** (math.floor(math.log10(abs(v))) - 5) if v else 0
        wall = metrics["trace.wall_s"]
        frac = metrics["trace.unattributed_frac"]
        selfs = [metrics[f"layer.{l}.self_s"] for l in run.LAYERS]
        parts = sum(selfs) + frac * wall
        delta = (sum(err(v) for v in selfs) + err(frac) * wall
                 + frac * err(wall) + err(wall) + 1e-12)
        self.assertAlmostEqual(parts, wall, delta=delta)

    def test_traced_runs(self):
        for workload, extra in (("paper_serial", TINY_PAPER),
                                ("aslr_store", TINY_ASLR)):
            with self.subTest(workload=workload):
                rc, lines, _ = bench(workload, 1, extra)
                self.assertEqual(rc, 0)
                self.assert_sums(printed(lines))

    def test_nesting(self):
        # [0,10) figure > [1,5) task > [2,3) run; [6,8) run outside
        # any task; [8,10) uncovered.  Microseconds.
        spans = [(0, 8, "pipeline"), (1, 5, None), (2, 3, "sim"),
                 (6, 8, "sim")]
        selfs, unattributed, wall = run.self_times(spans, (0, 10))
        self.assertAlmostEqual(selfs["pipeline"], 2e-6)
        self.assertAlmostEqual(selfs["sim"], 3e-6)
        self.assertAlmostEqual(unattributed, 5e-6)
        self.assertAlmostEqual(wall, 10e-6)

    def test_tail(self):
        self.assertEqual(run.tail(list(range(19))), (None, None))
        value, pct = run.tail([float(i) for i in range(1, 41)])
        self.assertEqual(pct, 75.0)
        self.assertGreater(value, 29)


class ObsOff(unittest.TestCase):
    def test_program_spans_absent_not_zero(self):
        # The result line needs the program's spans, so the run fails
        # without one, after printing what it measured.
        rc, lines, _ = bench("paper_serial", 1, TINY_PAPER + [
            "--cmake-arg=-DMBIAS_OBS=OFF"])
        self.assertEqual(rc, 1)
        self.assertFalse(any(l.startswith("{") for l in lines))
        metrics = printed(lines)
        for name in PROGRAM_SPAN_METRICS:
            self.assertIsNone(metrics[name], name)
        # The harness's own spans and the caches' public stats remain.
        self.assertGreater(metrics["pipeline.figure_s.fig3"], 0)
        self.assertGreater(metrics["sim.plan_builds"], 0)


class IncompleteCheckout(unittest.TestCase):
    def test_fails_without_result(self):
        work = Path(tempfile.mkdtemp(dir=run.build_root()))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", work)
            shutil.copytree(BENCH_DIR, work / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, lines, _ = bench("paper_serial", 0, [], cwd=work,
                                 script=work / "perfbench" / "run.py")
        finally:
            shutil.rmtree(work)
        self.assertNotEqual(rc, 0)
        self.assertFalse(any(l.startswith("{") for l in lines))


if __name__ == "__main__":
    unittest.main()
