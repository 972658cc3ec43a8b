#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at toy size.

Run from the repository root (builds through run.py on first use):

    python3 perfbench/test_e2e_bench.py

Checks, for every workload in BENCHMARK.json:
  * every registered metric prints with its unit (untraced and traced);
  * the span breakdown in the trace file adds up to the round time, and the
    per-layer time metrics add up to bench.run_s;
  * the correctness gate passes on a clean run and trips on a deliberately
    corrupted copy of each checked result;
  * the driver refuses to run while VOS_PLAN / VOS_FAULTS / VOS_DISPATCH is
    set.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY = ["--scale", "0.02", "--seconds", "0.2"]
LAYER_TIMES = [
    "sharded_vos_sketch.update_batch_s",
    "sharded_vos_sketch.flush_s",
    "query_planner.refresh_s",
    "query_planner.topk_s",
    "query_planner.allpairs_s",
    "query_optimizer.plan_s",
    "bench.gap_s",
]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(args, env=None):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py")] + args,
        cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, **(env or {})))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


class E2eBenchTest(unittest.TestCase):

    def check_metrics(self, result, registered):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in registered}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)

    def test_untraced_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(["--workload", workload, "--seed", "3",
                                    "--trace", "0"] + TOY)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.check_metrics(result, BENCHMARK["end_to_end"])
                for m in BENCHMARK["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_traced_breakdown(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload), \
                    tempfile.TemporaryDirectory(dir=ROOT) as tmp:
                trace = os.path.join(tmp, "trace.json")
                proc, result = run(["--workload", workload, "--seed", "3",
                                    "--trace", "1", "--trace_out", trace] + TOY)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.check_metrics(result, BENCHMARK["per_layer"])
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertAlmostEqual(
                    sum(metrics[k] for k in LAYER_TIMES),
                    metrics["bench.run_s"], delta=1e-9)
                self.assertGreaterEqual(metrics["bench.gap_s"], 0)
                self.check_trace(trace, metrics)

    def check_trace(self, path, metrics):
        """Recomputes the breakdown from the raw spans."""
        with open(path) as f:
            spans = json.load(f)["main_lane"]
        rounds = [i for i, s in enumerate(spans) if s["name"] == "bench.round"]
        self.assertGreaterEqual(len(rounds), 2)
        round_of = {}
        layer = {r: 0.0 for r in rounds}
        for i, s in enumerate(spans):
            if s["name"] == "bench.round":
                continue
            parent = s["parent"]
            owner = parent if spans[parent]["name"] == "bench.round" \
                else round_of[parent]
            round_of[i] = owner
            if not s["name"].startswith("bench."):
                self.assertEqual(s["epoch"], spans[parent]["epoch"])
                layer[owner] += s["end_s"] - s["start_s"]
        wall = 0.0
        for r in rounds:
            duration = spans[r]["end_s"] - spans[r]["start_s"]
            self.assertLessEqual(layer[r], duration + 1e-9)
            wall += duration
        # Span durations are the round's timed region (the round record
        # stamps a few instructions later), so allow a microsecond.
        n = len(rounds)
        self.assertAlmostEqual(wall / n, metrics["bench.run_s"], delta=1e-3)
        self.assertAlmostEqual(sum(layer.values()) / n,
                               metrics["bench.run_s"] - metrics["bench.gap_s"],
                               delta=1e-6)

    def test_gate_trips_on_corrupted_results(self):
        for what in ["array", "topk", "allpairs"]:
            with self.subTest(corrupt=what):
                proc, result = run(["--workload", "query_serving", "--seed",
                                    "3", "--trace", "0", "--corrupt", what]
                                   + TOY)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_program_changing_env(self):
        for var in ["VOS_PLAN", "VOS_FAULTS", "VOS_DISPATCH"]:
            with self.subTest(var=var):
                proc, result = run(["--workload", "query_serving", "--trace",
                                    "0"] + TOY, env={var: "scalar"})
                self.assertNotEqual(proc.returncode, 0)
                self.assertIsNone(result)
                self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
