#!/usr/bin/env python3
"""The benchmark's own tests, at toy size (about a minute):

    python3 e2ebench/test_e2ebench.py

Every workload runs end to end in both modes; every emitted name is
well-formed and carries its unit; a corrupted output (a dropped edge, a
flipped payload byte) is counted as a failed op; and the benchmark refuses
to run outside a tgsim checkout.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
# fit-paper-dblp is not gated (too unsteady on a shared host; see
# README.md) but stays runnable, so it is tested too.
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["fit-paper-dblp"]


def run(workload, trace=0, fault=None, cwd=ROOT, env=None, extra=()):
    cmd = [sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--toy"] + list(extra)
    if fault:
        cmd += ["--inject-fault", fault]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError("run failed (%d):\n%s" % (proc.returncode,
                                                      proc.stderr[-3000:]))
    return json.loads(lines[-1])


class WorkloadsRunTest(unittest.TestCase):
    def test_every_workload_runs_and_emits_every_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in BENCH[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = result_of(run(workload, trace))
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {n: m["unit"] for n, m in result["metrics"].items()},
                        expected)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float))
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)

    def test_serve_mix_is_paced_unless_asked_not_to_be(self):
        for extra, paced in (((), True), (("--reads-per-update", "0"), False)):
            with self.subTest(paced=paced):
                proc = run("serve-mixed", extra=extra)
                self.assertEqual(result_of(proc)["failed"], 0)
                context = json.loads(
                    proc.stdout.strip().splitlines()[-2])["context"]
                if paced:
                    self.assertEqual(context["reads_per_update"], 260)
                else:
                    self.assertGreater(context["reads_per_update"], 0)


class NamesTest(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        names = list(WORKLOADS)
        for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
            names.append(metric["name"])
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for metric in BENCH["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)


class FaultsAreCountedTest(unittest.TestCase):
    def assert_counted(self, workload, fault):
        result = result_of(run(workload, fault=fault))
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_dropped_edge_fails_the_budget_checks(self):
        for workload in ("fit-paper-dblp", "gen-paper-msg"):
            with self.subTest(workload=workload):
                self.assert_counted(workload, "drop-edge")

    def test_flipped_byte_fails_the_byte_checks(self):
        for workload in ("gen-paper-msg", "serve-mixed"):
            with self.subTest(workload=workload):
                self.assert_counted(workload, "flip-byte")


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_without_the_program_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "e2ebench-test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
        try:
            proc = run(WORKLOADS[0], cwd=bare, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
