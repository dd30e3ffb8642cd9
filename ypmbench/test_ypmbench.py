#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 ypmbench/test_ypmbench.py            # about a minute
    YPMBENCH_SLOW=1 python3 ypmbench/test_ypmbench.py   # adds paper_flow runs

They build the benchmark through run.py like any run, then check that the
same seed gives identical generated inputs and exact counts, that every
emitted metric is declared in BENCHMARK.json with its unit, that the trace
checks catch a misplaced kernel span, and that a directory without the
program sources fails without printing a result.
"""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "ypmbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_run_module():
    spec = importlib.util.spec_from_file_location("ypmbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(workload, seed, trace, seconds=0.5, cwd=ROOT, script=RUN):
    """(exit code, report line, result line) of one run."""
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        return proc.returncode, None, None
    return proc.returncode, json.loads(lines[0]), json.loads(lines[-1])


def values(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_outputs_and_counts(self):
        _, report_a, result_a = run("synth_yield", 7, 0)
        _, report_b, result_b = run("synth_yield", 7, 0)
        self.assertTrue(result_a["correct"] and result_b["correct"])
        self.assertEqual(report_a["digest"], report_b["digest"])
        self.assertEqual(values(result_a)["samples_to_ci"],
                         values(result_b)["samples_to_ci"])
        _, report_c, _ = run("synth_yield", 8, 0)
        self.assertNotEqual(report_a["digest"], report_c["digest"])

    def test_traced_counts_repeat_exactly(self):
        _, report_a, result_a = run("synth_yield", 7, 1)
        _, report_b, result_b = run("synth_yield", 7, 1)
        self.assertTrue(result_a["correct"] and result_b["correct"])
        self.assertEqual(report_a["digest"], report_b["digest"])
        a, b = values(result_a), values(result_b)
        exact = [n for n in a if n.startswith(("yield.samples.", "eval.requests",
                                               "eval.evaluations", "eval.failures",
                                               "moo.evaluations", "yield.pilot",
                                               "yield.refits", "yield.chunks"))]
        self.assertGreater(len(exact), 10)
        for name in exact:
            self.assertEqual(a[name], b[name], name)


class DeclaredMetrics(unittest.TestCase):
    def test_emitted_metrics_are_declared(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, report, result = run("synth_yield", 3, trace)
            self.assertEqual(code, 0)
            declared = {m["name"]: m["unit"] for m in SPEC[key]}
            emitted = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(emitted, declared)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            for meta in ("nproc", "cpu", "compiler", "build_type", "commit",
                         "seed", "src_lines"):
                self.assertIn(meta, report["meta"])

    def test_declared_names_are_valid(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
        names += [w["name"] for w in SPEC["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        self.assertIn("setup_s", [m["name"] for m in SPEC["end_to_end"]])


class TraceChecks(unittest.TestCase):
    def test_kernel_outside_its_batch_is_caught(self):
        mod = load_run_module()
        batch = {"name": "engine.batch", "ts": 10.0, "dur": 10.0, "tid": 0,
                 "args": {"batch": 1}}
        inside = {"name": "engine.kernel", "ts": 12.0, "dur": 3.0, "tid": 1,
                  "args": {"batch": 1}}
        outside = {"name": "engine.kernel", "ts": 18.0, "dur": 5.0, "tid": 2,
                   "args": {"batch": 1}}
        self.assertEqual(mod.kernels_inside_batches([batch, inside]), (0, 1))
        self.assertEqual(mod.kernels_inside_batches([batch, inside, outside]), (1, 2))

    def test_self_time_subtracts_contained_spans(self):
        mod = load_run_module()
        events = [{"name": "flow.run", "ts": 0.0, "dur": 100.0, "tid": 0},
                  {"name": "engine.wait", "ts": 10.0, "dur": 30.0, "tid": 0},
                  {"name": "engine.wait", "ts": 20.0, "dur": 40.0, "tid": 0}]
        rows = mod.self_times(events)
        self.assertAlmostEqual(rows["core"][2], 0.05)   # 100 - union(10..60) us
        self.assertEqual(rows["eval"][0], 2)


class MissingProgram(unittest.TestCase):
    def test_benchmark_alone_fails_without_a_result(self):
        tmp = ROOT / ".bench_build" / "alone"
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.copytree(ROOT / "ypmbench", tmp / "ypmbench")
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "ypmbench/run.py", "--workload", "synth_yield",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=tmp, timeout=180)
        shutil.rmtree(tmp, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


@unittest.skipUnless(os.environ.get("YPMBENCH_SLOW"), "set YPMBENCH_SLOW=1")
class PaperFlow(unittest.TestCase):
    def test_digest_identical_traced_and_untraced(self):
        _, plain, result = run("paper_flow", 5, 0, seconds=1)
        _, traced, layers = run("paper_flow", 5, 1, seconds=1)
        self.assertTrue(result["correct"] and layers["correct"])
        self.assertEqual(plain["digest"], traced["digest"])
        names = [c["name"] for c in traced["checks"]]
        self.assertIn("trace.kernel_inside_batch", names)
        self.assertIn("paper_flow.steps_within_wall", names)


if __name__ == "__main__":
    unittest.main()
