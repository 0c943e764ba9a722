"""Tests of the benchmark itself: generator, metric names, output checks,
tracing, and the smoke runs.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calltrace  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from gconstellations import cli, enumerate_normalized  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

SL3_GROUPS = [
    ((8,), ((1, 2, 5),)),
    ((12,), ((1, 4, 7),)),
    ((18,), ((1, 5, 12),)),
    ((2, 2), ((1, 0, 1), (0, 1, 1))),
    ((3, 3), ((1, 0, 2), (0, 1, 2))),
    ((2, 4), ((1, 0, 1), (0, 1, 3))),
]


def _load(problem: dict, directory: str):
    path = os.path.join(directory, "problem.json")
    gen.write_problem(problem, path)
    return cli.load_problem(path)


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.addCleanup(shutil.rmtree, self.tmp)

    def test_sl3_fans_validate(self):
        for seed in (1, 2):
            for orders, weights in SL3_GROUPS:
                group = gen.permuted(gen.Group(orders, weights),
                                     random.Random(seed))
                problem = gen.crepant_fan_sl3(group, random.Random(seed))
                _, fan, report = _load(problem, self.tmp)
                with self.subTest(group=group.label(), seed=seed):
                    self.assertTrue(report.passed)
                    self.assertTrue(report.crepant)
                    self.assertEqual(len(fan.cones), group.order)

    def test_chains_validate(self):
        for r in (2, 5, 13):
            problem = gen.crepant_chain(gen.Group((r,), ((1, r - 1),)))
            _, fan, report = _load(problem, self.tmp)
            self.assertTrue(report.passed and report.crepant)
            self.assertEqual(len(fan.cones), r)

    def test_running_example_count(self):
        group = gen.Group((8,), ((1, 2, 5),))
        problem = gen.crepant_fan_sl3(group, random.Random(7))
        g, fan, _ = _load(problem, self.tmp)
        self.assertEqual(enumerate_normalized(fan, g).count, 1536)

    def test_same_seed_same_files(self):
        def files(seed):
            directory = os.path.join(self.tmp, str(seed))
            os.makedirs(directory, exist_ok=True)
            jobs = workloads.classify(directory, random.Random(seed), "full")
            paths = sorted({job.input.path for job in jobs})
            contents = []
            for path in paths:
                with open(path, "rb") as handle:
                    contents.append(handle.read())
            return contents
        self.assertEqual(files(3), files(3))
        self.assertNotEqual(files(3), files(4))

    def test_rejects_groups_outside_sl(self):
        with self.assertRaises(ValueError):
            gen.crepant_fan_sl3(gen.Group((5,), ((1, 1, 1),)),
                                random.Random(0))


class MetricNamesTest(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            list(run.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            list(run.PER_LAYER))
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(workloads.WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in run.END_TO_END + run.PER_LAYER:
            self.assertRegex(name, NAME)
            self.assertRegex(unit, UNIT)
        self.assertIn(("setup_s", "s"), run.END_TO_END)

    def test_default_seed_recorded(self):
        with open(run.BASELINE, encoding="utf-8") as handle:
            self.assertEqual(json.load(handle)["default_seed"],
                             run.DEFAULT_SEED)

    def test_traced_names_exist_at_this_commit(self):
        traced = {calltrace.metric_name(m, a) for m, a in calltrace.TARGETS}
        for name, _ in run.PER_LAYER:
            prefix, stat = name.rsplit(".", 1)
            if stat in ("calls", "s", "self_s"):
                self.assertIn(prefix, traced)


class OutputCheckTest(unittest.TestCase):
    def _job(self, orders=(3,)):
        problem = {"group": {"cyclic": {"order": orders[0],
                                        "weights": [1, 1, 1]}}}
        return workloads.Job("j", workloads.Input("x", "x.json", problem),
                             "cli", check=None)

    def test_per_ray_closure(self):
        job = self._job()
        table = {"ray": "E4", "characters": [[0], [1], [2]],
                 "rows": [["0", "1/3", "2/3"], ["0", "-2/3", "-1/3"]]}
        good = json.dumps({"count": 2, "per_ray": [table]}).encode()
        self.assertEqual(workloads._check_per_ray(job, good, {}), [])
        table["rows"] = table["rows"][:1]
        table_bad = json.dumps({"count": 1, "per_ray": [table]}).encode()
        self.assertTrue(workloads._check_per_ray(job, table_bad, {}))
        wrong_count = json.dumps({"count": 5, "per_ray": []}).encode()
        self.assertTrue(workloads._check_per_ray(job, wrong_count, {}))

    def test_count_and_stream(self):
        job = self._job()
        self.assertEqual(workloads._check_count(job, b"12\n", {}), [])
        self.assertTrue(workloads._check_count(job, b"{}", {}))
        job.argv = ("enumerate", "--limit", "2")
        job.input.facts["expected"] = 5
        line = json.dumps({"divisors": [{"char": [k], "coeffs": {}}
                                        for k in range(3)]})
        self.assertTrue(workloads._check_stream(job, f"{line}\n".encode(),
                                                {}))
        self.assertTrue(workloads._check_stream(
            job, f"{line}\n{line}\n".encode(), {}))


class TraceTest(unittest.TestCase):
    def test_absent_targets_are_reported(self):
        tracer = calltrace.Tracer()
        tracer.install([("toric", "no_such_function"),
                        ("no_such_module", "f"),
                        ("group", "GroupData.no_such_method")])
        self.assertEqual(tracer.absent, ["toric.no_such_function",
                                         "no_such_module.f",
                                         "group.no_such_method"])

    def test_aggregate_self_time(self):
        trace = {"names": ["a", "b"],
                 "spans": [[0, -1, 0, 10_000], [1, 0, 2_000, 5_000],
                           [0, 0, 6_000, 7_000]],
                 "counts": {"a.extra": 3}, "absent": []}
        stats = calltrace.aggregate(trace)
        self.assertEqual(stats["a.calls"], 2)
        self.assertAlmostEqual(stats["a.s"], 10e-6)
        self.assertAlmostEqual(stats["a.self_s"], 7e-6)
        self.assertAlmostEqual(stats["b.self_s"], 3e-6)
        self.assertAlmostEqual(stats["trace.layers_s"], 10e-6)
        self.assertEqual(stats["a.extra"], 3)


class ReferenceSpeedTest(unittest.TestCase):
    def test_scaled_by_the_neighbouring_reference_runs(self):
        measured = run.Run([], "", {})
        measured.refs = [0.2, 0.4, 5.0]
        sample = run.Sample(wall=1.5, ref=0)
        self.assertAlmostEqual(sample.wall * measured.speed(sample),
                               1.5 * run.REF_S / 0.3)
        self.assertAlmostEqual(measured.speed_before(sample), run.REF_S / 0.2)

    def test_reference_answer(self):
        import reference
        self.assertEqual(reference.work(reference.STEPS), reference.ANSWER)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class SmokeRunTest(unittest.TestCase):
    def test_every_workload_traced_and_untraced(self):
        for workload in sorted(workloads.WORKLOADS):
            for trace, names in (("0", run.END_TO_END),
                                 ("1", run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    done = _bench("--workload", workload, "--seed", "5",
                                  "--seconds", "1", "--trace", trace,
                                  "--smoke")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        dict(names))

    def test_fails_without_the_library(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            done = _bench("--workload", "classify", "--seconds", "1",
                          "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
