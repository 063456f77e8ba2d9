#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the root of a checkout. Builds the benchmark through run.py (the
first time takes about a minute), then makes short runs of every workload
and checks that:

  * every emitted metric name matches [A-Za-z0-9_.-]+, and each run emits
    exactly the metrics, with the units, that BENCHMARK.json declares;
  * every run passes its own output checks (no failed operations);
  * the traced fabric replay reproduces the ParallelSimulator digest;
  * a different seed changes the input fingerprint but not the metric set.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("admit-churn", "fabric-pdes")
_runs = {}


def run(workload, seed, trace):
    """Runs the benchmark for one second; returns (result, info)."""
    key = (workload, seed, trace)
    if key not in _runs:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        lines = out.stdout.splitlines()
        info_line = next(line for line in lines if line.startswith("# info "))
        _runs[key] = (json.loads(lines[-1]),
                      json.loads(info_line[len("# info "):]))
    return _runs[key]


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class MetricNames(unittest.TestCase):
    def test_names_and_units_match_the_declaration(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            want = declared(kind)
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, _ = run(workload, 1, trace)
                    for name in result["metrics"]:
                        self.assertTrue(NAME.fullmatch(name), name)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_runs_pass_their_output_checks(self):
        for trace in (0, 1):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, info = run(workload, 1, trace)
                    self.assertTrue(result["correct"], info["notes"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0, info["notes"])

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, _ = run(workload, 1, 0)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)


class Fingerprints(unittest.TestCase):
    def test_traced_replay_reproduces_the_parallel_digest(self):
        result, info = run("fabric-pdes", 1, 1)
        self.assertEqual(info["fingerprint.replay_digest"],
                         info["fingerprint.fabric_digest"])
        metrics = result["metrics"]
        self.assertAlmostEqual(
            metrics["pdes.critical_path_s"]["value"] +
            metrics["pdes.barrier_s"]["value"],
            metrics["pdes.wall_s"]["value"], places=9)

    def test_seed_changes_inputs_not_metric_set(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, first_info = run(workload, 1, 0)
                second, second_info = run(workload, 2, 0)
                self.assertNotEqual(first_info["fingerprint.input"],
                                    second_info["fingerprint.input"])
                self.assertEqual(set(first["metrics"]),
                                 set(second["metrics"]))


if __name__ == "__main__":
    unittest.main()
