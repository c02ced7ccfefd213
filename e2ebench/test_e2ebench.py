#!/usr/bin/env python3
"""The benchmark's own test: tiny-size runs of every workload.

    python3 e2ebench/test_e2ebench.py

Checks that each workload prints every metric BENCHMARK.json names (traced
and untraced), that the model metrics do not depend on the worker count,
that deliberately corrupted outputs fail the run, and that the benchmark
refuses to run without the library sources next to it.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def run(workload, *extra, trace=0, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, result


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


class TinyRuns(unittest.TestCase):
    def check_metrics(self, result, section):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        want = declared(section)
        self.assertEqual(set(result["metrics"]), set(want))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], want[name], name)
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_emits_every_metric(self):
        for workload in ("serve", "admit", "replan"):
            with self.subTest(workload=workload):
                code, result = run(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.check_metrics(result, "end_to_end")
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_runs_emit_every_per_layer_metric(self):
        for workload in ("serve", "admit", "replan"):
            with self.subTest(workload=workload):
                code, result = run(workload, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.check_metrics(result, "per_layer")
                m = result["metrics"]
                self.assertGreater(m["trace.coverage"]["value"], 0.5)
                self.assertEqual(m["trace.replay_mismatches"]["value"], 0)
                if workload == "serve":
                    for net in ("lenet5", "vgg16_s"):
                        self.assertGreaterEqual(
                            m["trace.layer_share." + net]["value"], 0.95)

    def test_model_metrics_do_not_depend_on_workers(self):
        _, one = run("serve", "--threads", "1")
        _, two = run("serve", "--threads", "2")
        for name in ("model.uj_per_frame", "model.accuracy"):
            self.assertEqual(one["metrics"][name]["value"],
                             two["metrics"][name]["value"], name)

    def test_corrupted_outputs_fail(self):
        for workload in ("serve", "admit", "replan"):
            with self.subTest(workload=workload):
                code, result = run(workload, "--corrupt")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_sources(self):
        build = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
            ROOT, ".bench_build")
        os.makedirs(build, exist_ok=True)
        bare = tempfile.mkdtemp(dir=build)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env_build = os.path.join(bare, ".bench_build")
            proc = subprocess.run(
                [sys.executable, "e2ebench/run.py", "--workload", "serve",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=env_build))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
