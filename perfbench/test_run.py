"""Tests of the benchmark itself, at a short run length.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

ROOT = run.ROOT
SECONDS = "0.5"


def bench(workload, seed, trace, cwd=ROOT, env=None):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env)
    return done


def parse(done):
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(l.split()[1] for l in lines if l.startswith("sim_digest "))
    return lines, result, digest


class BenchmarkTest(unittest.TestCase):

    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)

    def test_best_rate_times_each_segment_by_its_fastest_run(self):
        episodes = [{"sim_s": 2.0, "segment_ns": [300e6, 100e6]},
                    {"sim_s": 2.0, "segment_ns": [200e6, 400e6]}]
        self.assertAlmostEqual(run.best_rate(episodes), 2.0 / 0.3)

    def test_every_metric_prints_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace, names in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    done = bench(workload, 3, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    lines, result, _ = parse(done)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        names)
                    for name, unit in names.items():
                        self.assertTrue(
                            any(l.startswith(f"{name} ") and l.endswith(f" {unit}")
                                for l in lines), name)
                    for line in ("ops ", "ops_failed ", "provenance "):
                        self.assertTrue(any(l.startswith(line) for l in lines))

    def test_same_seed_same_digest(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = parse(bench(workload, 5, 0))[2]
                second = parse(bench(workload, 5, 1))[2]
                self.assertEqual(first, second)

    def test_different_seed_different_digest(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(parse(bench(workload, 5, 0))[2],
                                    parse(bench(workload, 6, 0))[2])

    def test_fails_without_the_sources(self):
        scratch = ROOT / ".bench_build" / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(bare) / "build"))
            done = bench("fleet_day", 1, 0, cwd=bare, env=env)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
