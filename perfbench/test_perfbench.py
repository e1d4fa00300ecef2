#!/usr/bin/env python3
"""Tests of the benchmark itself (not of the library).

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, runs the C++ statistics self-test,
then runs it on the tiny graph sizes: an untraced run must
report every end-to-end metric of BENCHMARK.json, a traced run every
per-layer metric, a corrupted expected answer must fail the run, and a
pinned environment variable must be refused.
"""
import json
import os
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's own entry point)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def drive(*args, env=None):
    """Run the benchmark through run.py; returns (exit code, stdout lines)."""
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", "1", "--tiny"]
        + list(args), cwd=ROOT, capture_output=True, text=True, env=env,
        timeout=300)
    return p.returncode, p.stdout.strip().splitlines()


def result(lines):
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}, doc
    return doc


class Benchmark(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run.build()

    def test_statistics_selftest(self):
        p = subprocess.run([str(self.build / "perfbench_selftest")],
                           capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stdout)

    def test_untraced_run_reports_every_end_to_end_metric(self):
        for w in SPEC["workloads"]:
            code, lines = drive("--workload", w["name"], "--seed", "5")
            self.assertEqual(code, 0, lines[-5:])
            doc = result(lines)
            self.assertTrue(doc["correct"])
            self.assertGreaterEqual(doc["attempted"], 1)
            want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            self.assertEqual(got, want)
            self.assertTrue(all(v["value"] > 0
                                for v in doc["metrics"].values()), doc)

    def test_traced_run_reports_every_per_layer_metric(self):
        code, lines = drive("--workload", "rmat-wide", "--seed", "5",
                            "--trace", "1")
        self.assertEqual(code, 0, lines[-5:])
        doc = result(lines)
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        got = {k: v["unit"] for k, v in doc["metrics"].items()}
        self.assertEqual(got, want)
        trace_dir = run.build_dir() / "run" / "trace-rmat-wide-5"
        self.assertIn("self_ms", (trace_dir / "selftime.txt").read_text())
        first = json.loads((trace_dir / "spans.jsonl").read_text()
                           .splitlines()[0])
        self.assertEqual(set(first),
                         {"id", "parent", "name", "request", "start_ms",
                          "end_ms"})

    def test_corrupted_expected_answer_fails_the_run(self):
        code, lines = drive("--workload", "fem-deep", "--seed", "5",
                            "--corrupt-oracle")
        self.assertEqual(code, 1)
        doc = result(lines)
        self.assertFalse(doc["correct"])
        self.assertGreater(doc["failed"], 0)

    def test_pinned_environment_is_refused(self):
        env = dict(os.environ, MICG_MAX_THREADS="4")
        code, lines = drive("--workload", "fem-deep", "--seed", "5", env=env)
        self.assertEqual(code, 2)
        self.assertEqual(lines, [])


if __name__ == "__main__":
    unittest.main()
