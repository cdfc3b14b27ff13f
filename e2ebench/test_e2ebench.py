"""The benchmark's own tests.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'

Run from the repository root. Each test drives `run.py` at smoke size
(one incident per fault kind), which builds the benchmark first.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def smoke(workload, seed, trace=0):
    """Runs one smoke-sized benchmark; returns (info fields, result)."""
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "e2ebench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} failed:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    info = dict(field.split("=", 1) for field in lines[-2].split()[2:])
    return info, json.loads(lines[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_workload_passes_the_oracle(self):
        for workload in WORKLOADS:
            for trace in (0, 1):
                _, result = smoke(workload, 3, trace)
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], (workload, trace))
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                section = "per_layer" if trace else "end_to_end"
                expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(printed, expected, (workload, trace))

    def test_same_seed_same_operations_and_reports(self):
        first, _ = smoke("incident_w100", 5)
        again, _ = smoke("incident_w100", 5)
        self.assertEqual(first["ops_digest"], again["ops_digest"])
        self.assertEqual(first["report_digest"], again["report_digest"])

    def test_different_seed_different_operations(self):
        a, _ = smoke("incident_w100", 5)
        b, _ = smoke("incident_w100", 6)
        self.assertNotEqual(a["ops_digest"], b["ops_digest"])


class MetricNames(unittest.TestCase):
    def test_names_are_well_formed_and_unique(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        names += [m["name"] for m in BENCHMARK["end_to_end"]]
        names += [m["name"] for m in BENCHMARK["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
