#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/test_perfbench.py

Builds perfbench through run.py if needed, then makes one-second smoke
runs of every workload, untraced and traced.  Checks that a different
seed changes the generated inputs but not the metric names, that every
printed metric carries a unit, and that the smoke runs fail no operation.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sweep-dwarfs", "whatif-replay", "serve-mixed"]


def run(workload, seed, trace=0, list_inputs=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    if list_inputs:
        cmd.append("--list-inputs")
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    if r.returncode != 0:
        raise AssertionError("%s failed (%d):\n%s" %
                             (" ".join(cmd), r.returncode, r.stderr[-2000:]))
    return r.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.runs = {}
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = result(run(w, 1, trace))

    def test_seed_changes_inputs_not_metric_names(self):
        for w in WORKLOADS:
            self.assertNotEqual(run(w, 1, list_inputs=True),
                                run(w, 2, list_inputs=True), w)
            self.assertEqual(run(w, 3, list_inputs=True),
                             run(w, 3, list_inputs=True), w)
        other = result(run("whatif-replay", 2))
        self.assertEqual(sorted(other["metrics"]),
                         sorted(self.runs[("whatif-replay", 0)]["metrics"]))

    def test_every_metric_has_a_unit_and_is_declared(self):
        declared = {0: self.spec["end_to_end"], 1: self.spec["per_layer"]}
        for (w, trace), res in self.runs.items():
            want = {m["name"]: m["unit"] for m in declared[trace]}
            self.assertEqual(sorted(res["metrics"]), sorted(want), (w, trace))
            for name, m in res["metrics"].items():
                self.assertEqual(sorted(m), ["unit", "value"], name)
                self.assertTrue(m["unit"], name)
                self.assertEqual(m["unit"], want[name], name)
                self.assertIsInstance(m["value"], (int, float), name)

    def test_smoke_runs_fail_no_operation(self):
        for (w, trace), res in self.runs.items():
            self.assertEqual(sorted(res),
                             ["attempted", "correct", "failed", "metrics"])
            self.assertGreaterEqual(res["attempted"], 1, (w, trace))
            self.assertEqual(res["failed"], 0, (w, trace))
            self.assertTrue(res["correct"], (w, trace))
            if trace == 0:
                self.assertGreater(res["metrics"]["setup_s"]["value"], 0, w)
                self.assertGreater(res["metrics"]["op_tail_ms"]["value"], 0, w)


if __name__ == "__main__":
    unittest.main()
