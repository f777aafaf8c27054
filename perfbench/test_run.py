#!/usr/bin/env python3
"""Tests of the u1sim benchmark at tiny scale.

    python3 perfbench/test_run.py        (from the repository root)

Every workload runs untraced and traced; each run must print every metric
BENCHMARK.json names, with its unit, and pass its correctness checks. The
checks themselves must fire: a flipped byte in one .u1b file fails
paper_replay, a wrong pinned SHA-1 fails month_generate, and a directory
holding only the benchmark fails to run at all.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TINY = ["--users", "300", "--days", "2", "--ops", "200"]


def run(workload, trace=0, extra=(), seed=7, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace)] + TINY + list(extra)
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


class MetricsPresent(unittest.TestCase):
    def check(self, workload, trace):
        res = result(run(workload, trace))
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"], res)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        catalog = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual([m["name"] for m in catalog], list(res["metrics"]))
        for m in catalog:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])


for _w in SPEC["workloads"]:
    for _t in (0, 1):
        setattr(MetricsPresent, f"test_{_w['name']}_trace{_t}",
                lambda self, w=_w["name"], t=_t: self.check(w, t))


class ChecksFire(unittest.TestCase):
    def test_flipped_byte_fails_paper_replay(self):
        proc = run("paper_replay", extra=["--corrupt"])
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertIn("checksum failures", proc.stderr)

    def test_wrong_pinned_sha_fails_month_generate(self):
        proc = run("month_generate", extra=["--expect-sha", "0" * 40])
        res = result(proc)
        self.assertFalse(res["correct"])
        self.assertIn("!= pinned", proc.stderr)

    def test_benchmark_alone_exits_nonzero(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        try:
            proc = run("u1d_closedloop", cwd=bare, env=env)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
