"""The benchmark's workloads: generated inputs, the jobs run on each, and the
checks on every job's output.

Every job is one fresh `gcon` process (see job.py). The seed picks each
group's coordinate order, the triangulation of each SL(3) fan (the order in
which junior points are inserted), and the sample of normalized sets that
`verify` checks; the groups themselves are fixed per workload, so runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import prod
from typing import Callable, Optional

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the groups of each workload; "smoke" sizes are for the benchmark's tests
CLASSIFY = {
    "full": [("c18", (18,), ((1, 5, 12),)), ("c21", (21,), ((1, 4, 16),)),
             ("a13", (13,), ((1, 12),))],
    "smoke": [("c8", (8,), ((1, 2, 5),)), ("a4", (4,), ((1, 3),))],
}
# (name, orders, weights or None for problems/c8_125.json, expected count,
#  sets checked per job, jobs that together cover the sample, stream limit)
VERIFY = {
    "full": [("c8", (8,), None, 1536, 256, 6, 1536),
             ("z24", (2, 4), ((1, 0, 1), (0, 1, 3)), 4608, 128, 6, 768)],
    "smoke": [("c8", (8,), None, 1536, 4, 2, 16),
              ("z22", (2, 2), ((1, 0, 1), (0, 1, 1)), 8, 4, 2, 16)],
}
CHARTS = {
    "full": [("c30", (30,), ((1, 4, 25),)), ("c40", (40,), ((1, 7, 32),))],
    "smoke": [("c8", (8,), ((1, 2, 5),))],
}


@dataclass
class Input:
    name: str
    path: str
    problem: dict
    facts: dict = field(default_factory=dict)

    @property
    def orders(self) -> tuple[int, ...]:
        group = self.problem["group"]
        if "cyclic" in group:
            return (group["cyclic"]["order"],)
        return tuple(group["abelian"]["orders"])


@dataclass
class Job:
    """One kind of job on one input; `spec(round)` gives its job spec."""

    name: str
    input: Input
    kind: str
    argv: tuple = ()
    slices: Optional[list] = None
    # check(job, stdout, report) -> failures, run on the first good sample
    check: Optional[Callable] = None
    # work units (rows, sets or charts) per job, for items_per_s
    work: int = 0
    # jobs on the same input whose work is learnt from this job's output
    siblings: list = field(default_factory=list)
    checked: bool = False
    covered: set = field(default_factory=set)

    def spec(self, round_index: int) -> dict:
        spec = {"kind": self.kind, "input": self.input.path}
        if self.kind == "cli":
            spec["argv"] = [self.input.path if a == "@input" else a
                            for a in self.argv]
        if self.slices is not None:
            spec["indices"] = self.slices[round_index % len(self.slices)]
        return spec

    def pin_key(self) -> str:
        """The problem file's bytes plus the job without file paths: the key
        of the job's pinned stdout digest."""
        with open(self.input.path, "rb") as handle:
            problem = handle.read()
        identity = json.dumps([self.kind, list(self.argv)]).encode()
        return hashlib.sha256(problem + b"\0" + identity).hexdigest()


def _write(workdir: str, name: str, problem: dict) -> Input:
    path = os.path.join(workdir, f"{name}.json")
    gen.write_problem(problem, path)
    return Input(name, path, problem)


def _sl3(workdir, rng, name, orders, weights) -> Input:
    group = gen.permuted(gen.Group(orders, weights), rng)
    return _write(workdir, name, gen.crepant_fan_sl3(group, rng))


# ---------------------------------------------------------------- classify

def _check_count(job, stdout, report):
    text = stdout.decode().strip()
    if not text.isdigit():
        return [f"count-only printed {text[:40]!r}"]
    job.input.facts["count_only"] = int(text)
    return []


def _check_per_ray(job, stdout, report):
    """count == product of the row counts, and every table is closed under
    the duality q_chi -> -q_{chi^-1}."""
    data = json.loads(stdout)
    failures = []
    lengths = [len(t["rows"]) for t in data["per_ray"]]
    if data["count"] != prod(lengths):
        failures.append(f"count {data['count']} != product of row counts")
    orders = job.input.orders
    for table in data["per_ray"]:
        chars = [tuple(c) for c in table["characters"]]
        position = {c: i for i, c in enumerate(chars)}
        dual = [position[tuple(-r % d for r, d in zip(c, orders))]
                for c in chars]
        rows = {tuple(Fraction(q) for q in row) for row in table["rows"]}
        if any(tuple(-row[j] for j in dual) not in rows for row in rows):
            failures.append(f"{table['ray']} table is not closed under "
                            "q_chi -> -q_(chi^-1)")
    job.input.facts["per_ray_count"] = data["count"]
    rows = sum(lengths)
    for sibling in job.siblings:
        sibling.work = rows
    return failures


def classify(workdir, rng, size):
    jobs = []
    for name, orders, weights in CLASSIFY[size]:
        if len(weights[0]) == 3:
            problem = _sl3(workdir, rng, name, orders, weights)
        else:
            group = gen.permuted(gen.Group(orders, weights), rng)
            problem = _write(workdir, name, gen.crepant_chain(group))
        pair = [
            Job(f"{name} enumerate --count-only", problem, "cli",
                ("enumerate", "--input", "@input", "--count-only"),
                check=_check_count),
            Job(f"{name} enumerate --per-ray", problem, "cli",
                ("enumerate", "--input", "@input", "--per-ray"),
                check=_check_per_ray),
        ]
        for job in pair:
            job.siblings = pair
        jobs += pair
    return jobs


def classify_final(jobs) -> tuple[int, list[str]]:
    """--count-only and --per-ray agree on every input."""
    failures = []
    for job in jobs[::2]:
        facts = job.input.facts
        if facts.get("count_only") != facts.get("per_ray_count"):
            failures.append(f"{job.input.name}: --count-only "
                            f"{facts.get('count_only')} != --per-ray "
                            f"{facts.get('per_ray_count')}")
    return len(jobs) // 2, failures


# ------------------------------------------------------------------ verify

def _check_sweep(job, stdout, report):
    summary = json.loads(stdout)
    failures = []
    if summary["count"] != job.input.facts["expected"]:
        failures.append(f"{summary['count']} normalized sets, expected "
                        f"{job.input.facts['expected']}")
    return failures


def _check_stream(job, stdout, report):
    lines = stdout.decode().splitlines()
    limit = int(job.argv[-1])
    failures = []
    if len(lines) != min(limit, job.input.facts["expected"]):
        failures.append(f"{len(lines)} JSONL sets, expected "
                        f"{min(limit, job.input.facts['expected'])}")
    if len(set(lines)) != len(lines):
        failures.append("JSONL stream repeats a set")
    order = prod(job.input.orders)
    for line in lines:
        divisors = json.loads(line)["divisors"]
        if len(divisors) != order or divisors[0]["coeffs"]:
            failures.append("JSONL set is not normalized")
            break
    return failures


def verify(workdir, rng, size):
    jobs = []
    for name, orders, weights, count, per_job, slices, limit in VERIFY[size]:
        if weights is None:
            path = os.path.join(ROOT, "problems", "c8_125.json")
            with open(path, encoding="utf-8") as handle:
                problem = Input(name, path, json.load(handle))
        else:
            problem = _sl3(workdir, rng, name, orders, weights)
        problem.facts["expected"] = count
        sample = rng.sample(range(count), per_job * slices)
        jobs.append(Job(
            f"{name} verify", problem, "verify",
            slices=[sorted(sample[k * per_job:(k + 1) * per_job])
                    for k in range(slices)],
            check=_check_sweep, work=per_job))
        jobs.append(Job(
            f"{name} enumerate --limit {limit}", problem, "cli",
            ("enumerate", "--input", "@input", "--limit", str(limit)),
            check=_check_stream))
    return jobs


def verify_final(jobs) -> tuple[int, list[str]]:
    """Each sweep must have covered its whole sample: on c8_125 that is all
    1536 sets, so shift closure there is checked on the full collection."""
    sweeps = [job for job in jobs if job.slices is not None]
    failures = []
    for job in sweeps:
        wanted = {i for s in job.slices for i in s}
        if job.covered != wanted:
            failures.append(f"{job.name}: checked {len(job.covered)} "
                            f"of {len(wanted)} sampled sets")
    return len(sweeps), failures


# ------------------------------------------------------------------ charts

def _check_charts(job, stdout, report):
    failures = []
    info, _ = json.JSONDecoder().raw_decode(stdout.decode())
    cones = len(job.input.problem["fan"]["cones"])
    if not (info["validation"]["passed"] and info["fan"]["crepant"]):
        failures.append("gcon info: fan not valid and crepant")
    if report.get("charts") != 2 * cones:
        failures.append(f"{report.get('charts')} charts, expected "
                        f"{2 * cones}")
    return failures


def charts(workdir, rng, size):
    jobs = []
    for name, orders, weights in CHARTS[size]:
        problem = _sl3(workdir, rng, name, orders, weights)
        cones = len(problem.problem["fan"]["cones"])
        jobs.append(Job(f"{name} charts", problem, "charts",
                        check=_check_charts, work=2 * cones))
    return jobs


def charts_final(jobs) -> tuple[int, list[str]]:
    return 0, []


# name -> (build jobs, checks over the whole run, unit of work)
WORKLOADS = {
    "classify": (classify, classify_final, "rows"),
    "verify": (verify, verify_final, "sets"),
    "charts": (charts, charts_final, "charts"),
}
