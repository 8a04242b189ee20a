"""Tests of the benchmark itself, in smoke mode (tiny budgets).

Run from the root of a checkout:

  python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs traced and untraced; every metric BENCHMARK.json
names must be printed, in the JSON line and in the human-readable part,
with its unit. The jobs-invariance check and the failure without
sources run too.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(args, cwd=REPO, timeout=600):
    return subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(REPO, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_workload(self, workload, trace):
        proc = run(["--workload", workload, "--seed", "3", "--seconds",
                    "1", "--trace", str(trace), "--smoke"])
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        expected = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected})
        human = "\n".join(lines[:-1])
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertRegex(human, r"\b%s\s+\S+ %s\n" % (
                m["name"].replace(".", r"\."), m["unit"]))
        if trace:
            for count in ("trace.refs", "cache.sim_runs",
                          "core.estimates", "dse.pareto_offered",
                          "dse.pareto_kept", "compiler.builds"):
                self.assertGreater(result["metrics"][count]["value"], 0,
                                   count)
        return result

    def test_walk_lru(self):
        self.check_workload("walk-lru", 0)

    def test_walk_lru_traced(self):
        first = self.check_workload("walk-lru", 1)
        second = self.check_workload("walk-lru", 1)
        for count in ("trace.refs", "cache.sim_runs", "core.estimates",
                      "dse.pareto_offered", "dse.pareto_kept",
                      "compiler.builds"):
            self.assertEqual(first["metrics"][count],
                             second["metrics"][count], count)

    def test_walk_policy(self):
        self.check_workload("walk-policy", 0)

    def test_walk_policy_traced(self):
        self.check_workload("walk-policy", 1)

    def test_serve_zipf(self):
        self.check_workload("serve-zipf", 0)

    def test_serve_zipf_traced(self):
        self.check_workload("serve-zipf", 1)

    def test_jobs_invariance(self):
        proc = run(["--check-jobs"])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertEqual(proc.stdout.count(" OK"), 2, proc.stdout)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            start = time.time()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "walk-lru", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)
            self.assertLess(time.time() - start, 180)


if __name__ == "__main__":
    unittest.main()
