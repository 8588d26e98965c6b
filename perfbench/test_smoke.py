#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, must finish in seconds, fail no operation, and emit every metric
BENCHMARK.json names, as a number with the declared unit.

    python3 perfbench/test_smoke.py      # from the root of a checkout
"""

import json
import math
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert out.returncode == 0, f"{workload} trace={trace} exited {out.returncode}: {out.stderr[-2000:]}"
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check(self, workload, trace):
        detail, result = run(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], detail.get("failures"))
        self.assertEqual(result["failed"], 0, detail.get("failures"))
        self.assertGreaterEqual(result["attempted"], 1)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual([m["name"] for m in wanted], list(result["metrics"]))
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"}, m["name"])
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, m["name"])
        for key in ("nproc", "cpu_model", "kernel", "commit", "seed", "inputs", "backends", "threads"):
            self.assertIn(key, detail["fingerprint"])

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace)

    def test_spec_shape(self):
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
