"""Benchmark of gconstellations: every job is a fresh `gcon` process.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 36 \\
        --trace 0

Run from the root of a checkout; the library is imported from its `src`.
This one process generates all load and runs one job process at a time,
as a user pays for `gcon`: interpreter start, import, problem load, command.
Module-level caches are therefore cold in every job.

Workloads (see workloads.py for inputs and checks):

- classify: `gcon enumerate --count-only` and `--per-ray` on crepant SL(3)
  cyclic fans and an n = 2 chain; per-ray search dominates.
- verify: a property sweep over normalized sets of c8_125 (all 1536) and a
  sample of Z/2 x Z/4 sets, plus the `gcon enumerate --limit` JSONL stream;
  per-set Fraction and Character arithmetic dominates.
- charts: `gcon info --json` and chart geometry on large crepant fans;
  fan validation, dual bases and quivers dominate.

A run repeats every job of its workload in rounds until --seconds is spent
(at least MIN_ROUNDS rounds). Before every job, and once at the end, it
runs the reference job (reference.py), a fixed stdlib workload. On a
shared host the machine's speed drifts by up to 2x over tens of seconds, so
every time below is quoted at reference speed: a job's measured wall time
times REF_S over the mean of the reference runs just before and after it
(for set-up, which starts the job, over the run just before it).
That ratio cancels the drift; on a shared 2-core x86-64 host it cut the
spread of wall_s across runs from about 25% to 2-7%. Measured medians are
printed too.

End-to-end metrics (--trace 0):

- wall_s: per job, the median wall time over the run's rounds, summed over
  the workload's jobs: the time one round of the workload takes.
- setup_s: per input, the median over all its jobs of the time from spawn
  to the end of the first `cli.load_problem` (interpreter start, import,
  JSON parse, lattice, fan and validate_fan), summed over inputs.
- peak_rss_mib: the largest peak resident set of any job process, read by
  the job process itself at exit.
- items_per_s: work per second: per-ray rows enumerated (classify), sets
  fully checked (verify) or charts converted (charts), divided by the summed
  median wall time of the jobs doing it.

With --trace 1 every round runs each job twice, untraced and traced (see
calltrace.py), and the metrics are the per-layer ones: per-function calls,
busy and self seconds and counts, each the median over the run's traced
samples of a job, summed over jobs; plus process start, process exit, the
time in no traced function (remainder) and the tracing overhead (traced
minus untraced measured wall time). Per-layer seconds are as measured, not
scaled to reference speed. start + layers + exit + remainder = trace wall.

Every job's output is checked; a failed job or check counts in `failed`.
Stdout digests of each job must agree across a run's samples and, where a
digest was pinned for the same problem file and job (baseline.json), with
the pin. Detail goes to stderr, including `digest <key> <sha256>` lines.
The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import calltrace
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = workloads.ROOT
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")
REFERENCE = os.path.join(HERE, "reference.py")
BASELINE = os.path.join(HERE, "baseline.json")

DEFAULT_SEED = 1
MIN_ROUNDS = {"classify": 3, "verify": 6, "charts": 3}
MIN_TRACED_ROUNDS = 2
# a run that needs more rounds than --seconds allows stops starting rounds
# here, so that it ends well within the 180 s a run may take
HARD_STOP_S = 120.0
JOB_TIMEOUT_S = 120.0
# seconds the reference job takes at the speed times are quoted at: about
# its median on a shared 2-core x86-64 host with Python 3.11
REF_S = 0.3

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("items_per_s", "1/s"),
)

_TRACED = {
    "family.enumerate_per_ray": ("calls", "s", "self_s"),
    "family.per_ray": ("rows", "max_rows"),
    "family.enumerate_normalized": ("s",),
    "family.maximal_shift_values": ("calls", "s", "hit_ratio"),
    "family.check_reductor": ("calls", "s", "failed"),
    "family.bounds_check": ("calls", "s"),
    "family.lambda_shift": ("calls", "s"),
    "family.reflect": ("calls", "s"),
    "family.sets": ("count", "s"),
    "family.canonical_family": ("s",),
    "family.maximal_shift_family": ("s",),
    "family.reductor_piece": ("calls", "s"),
    "family.quiver": ("calls", "s"),
    "family.equivalence_witness": ("s",),
    "group.characters": ("calls", "s"),
    "group.weight": ("calls",),
    "toric.build_lattice": ("s",),
    "toric.validate_fan": ("s", "self_s", "cone_pairs"),
    "toric.junior_simplex": ("calls", "s"),
    "toric.dual_basis": ("calls", "s"),
    "exact.det": ("calls", "s"),
    "exact.invert": ("calls", "s"),
    "exact.hermite_normal_form": ("s",),
    "gdivisor.weil_to_cartier": ("calls", "self_s"),
    "gdivisor.cartier_to_weil": ("s",),
    "gdivisor.frac_val": ("calls", "hit_ratio"),
    "gdivisor.linear_equivalence_witness": ("s",),
    "cli.main": ("self_s",),
    "cli.load_problem": ("self_s",),
    "cli": ("stdout_bytes", "exit_nonzero"),
    "process": ("start_s", "exit_s"),
    "trace": ("layers_s", "remainder_s", "wall_s", "overhead_s", "absent"),
}
_UNITS = {"s": "s", "self_s": "s", "start_s": "s", "exit_s": "s",
          "layers_s": "s", "remainder_s": "s", "wall_s": "s",
          "overhead_s": "s", "hit_ratio": "ratio", "stdout_bytes": "bytes"}
PER_LAYER = tuple(
    (f"{prefix}.{stat}", _UNITS.get(stat, "count"))
    for prefix, stats in _TRACED.items() for stat in stats
)


@dataclass
class Sample:
    """One job process as seen from run.py."""

    wall: float = 0.0
    setup: float = 0.0
    start: float = 0.0
    exit: float = 0.0
    rss_kib: int = 0
    rc: int = 0
    nbytes: int = 0
    digest: str = ""
    ref: int = -1  # index of the reference run just before the job
    stdout: bytes = b""
    report: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def run_job(spec: dict, workdir: str, keep_stdout: bool) -> Sample:
    """Spawn one job, stream its stdout into a hash, and wait for it."""
    spec = dict(spec, src=SRC, report=os.path.join(workdir, "report.json"))
    if os.path.exists(spec["report"]):
        os.remove(spec["report"])
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    sample = Sample()
    digest = hashlib.sha256()
    kept = []
    with open(os.path.join(workdir, "stderr.txt"), "w+b") as errors:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, JOB, json.dumps(spec)], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=errors)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            while True:
                chunk = proc.stdout.read(1 << 16)
                if not chunk:
                    break
                digest.update(chunk)
                sample.nbytes += len(chunk)
                if keep_stdout:
                    kept.append(chunk)
            sample.rc = proc.wait()
            t_exit = time.perf_counter()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        errors.seek(0)
        stderr = errors.read().decode(errors="replace")
    sample.wall = t_exit - t_spawn
    sample.digest = digest.hexdigest()
    sample.stdout = b"".join(kept)
    try:
        with open(spec["report"], encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        report = {}
    sample.report = report
    if "t_done" not in report:
        sample.failures.append(f"no report (exit code {sample.rc}); "
                               f"stderr: {stderr[-400:]}")
        return sample
    if "error" in report:
        sample.failures.append(report["error"].strip().splitlines()[-1])
    sample.failures += report.get("failures", [])
    if sample.rc != 0 and not sample.failures:
        sample.failures.append(f"exit code {sample.rc}")
    sample.start = report.get("t_imported", t_spawn) - t_spawn
    sample.setup = (report.get("t_loaded") or t_spawn) - t_spawn
    sample.exit = t_exit - report["t_done"]
    sample.rss_kib = report["peak_rss_kib"]
    return sample


class Run:
    """Rounds of a workload's jobs, with their checks and samples."""

    def __init__(self, jobs, workdir: str, pins: dict) -> None:
        self.jobs = jobs
        self.workdir = workdir
        self.pins = pins
        self.samples = {job.name: [] for job in jobs}
        self.traced = {job.name: [] for job in jobs}
        self.first_digest = {}
        self.printed = set()
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def fail(self, what: str, failures) -> None:
        self.failed += 1
        print(f"FAILED {what}: " + "; ".join(failures), file=sys.stderr)

    def reference(self) -> None:
        """Run the reference job and record its wall time."""
        self.attempted += 1
        began = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, REFERENCE], cwd=ROOT, capture_output=True,
                text=True, timeout=JOB_TIMEOUT_S)
            answer = done.stdout.strip()
        except subprocess.TimeoutExpired:
            answer = "timed out"
        self.refs.append(time.perf_counter() - began)
        if answer != reference.ANSWER:
            self.fail("reference job", [f"printed {answer[:80]!r}"])

    def speed(self, sample: Sample) -> float:
        """REF_S over the mean of the reference runs around the sample."""
        return REF_S * 2 / (self.refs[sample.ref] + self.refs[sample.ref + 1])

    def speed_before(self, sample: Sample) -> float:
        """REF_S over the reference run just before the sample: the one
        closest in time to the job's set-up, which comes first."""
        return REF_S / self.refs[sample.ref]

    def one(self, job, traced: bool) -> None:
        spec = job.spec(self.rounds)
        spec["trace"] = traced
        self.reference()
        sample = run_job(spec, self.workdir, keep_stdout=not job.checked)
        sample.ref = len(self.refs) - 1
        self.attempted += 1
        failures = list(sample.failures)
        if not failures:
            pin = job.pin_key()
            first = self.first_digest.setdefault(job.name, sample.digest)
            if sample.digest != first:
                failures.append("stdout differs between samples")
            elif pin in self.pins and self.pins[pin] != sample.digest:
                failures.append("stdout differs from the pinned digest")
            elif job.name not in self.printed:
                self.printed.add(job.name)
                print(f"digest {pin} {sample.digest}", file=sys.stderr)
        if failures:
            self.fail(f"{job.name} round {self.rounds}", failures)
            return
        if job.check is not None and not job.checked:
            job.checked = True
            self.attempted += 1
            try:
                problems = job.check(job, sample.stdout, sample.report)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                self.fail(f"{job.name} output check", problems)
        sample.stdout = b""
        if "indices" in spec:
            job.covered.update(spec["indices"])
        (self.traced if traced else self.samples)[job.name].append(sample)

    def measure(self, seconds: float, min_rounds: int, trace: bool) -> None:
        began = time.perf_counter()
        while True:
            round_began = time.perf_counter()
            for job in self.jobs:
                modes = (False, True) if trace else (False,)
                # alternate which side of a traced pair runs first
                for traced in modes[::-1] if self.rounds % 2 else modes:
                    self.one(job, traced)
            self.rounds += 1
            now = time.perf_counter()
            projected = now - began + (now - round_began)
            if projected > HARD_STOP_S or (
                    self.rounds >= min_rounds and projected > seconds):
                break
        self.reference()
        self.elapsed = time.perf_counter() - began


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> dict[str, float]:
    """The end-to-end metrics, times at reference speed (see REF_S)."""
    samples = run.samples
    walls = {name: median([s.wall * run.speed(s) for s in ss])
             for name, ss in samples.items()}
    setups = {}
    for job in run.jobs:
        setups.setdefault(job.input.name, []).extend(
            s.setup * run.speed_before(s) for s in samples[job.name])
    work = sum(job.work for job in run.jobs if job.work)
    busy = sum(walls[job.name] for job in run.jobs if job.work)
    rss = [s.rss_kib for ss in samples.values() for s in ss]
    return {
        "wall_s": sum(walls.values()),
        "setup_s": sum(median(v) for v in setups.values()),
        "peak_rss_mib": max(rss, default=0) / 1024,
        "items_per_s": work / busy if busy else 0.0,
    }


def per_layer(run: Run, untraced_wall: float) -> dict[str, float]:
    totals: dict[str, float] = {}
    hits: dict[str, list[float]] = {}
    for job in run.jobs:
        stats = []
        for s in run.traced[job.name]:
            trace = s.report["trace"]
            values = calltrace.aggregate(trace)
            values.update({
                "process.start_s": s.start,
                "process.exit_s": s.exit,
                "trace.wall_s": s.wall,
                "trace.absent": len(trace["absent"]),
                "cli.stdout_bytes": s.nbytes,
                "cli.exit_nonzero": int(s.rc != 0),
            })
            stats.append(values)
        keys = {k for values in stats for k in values}
        for key in keys:
            value = median([values.get(key, 0) for values in stats])
            if key.endswith(("cache_hits", "cache_misses")):
                hits.setdefault(key, []).append(value)
            elif key.endswith("max_rows"):
                totals[key] = max(totals.get(key, 0), value)
            else:
                totals[key] = totals.get(key, 0) + value
    for name in calltrace.CACHED:
        found = sum(hits.get(f"{name}.cache_hits", []))
        missed = sum(hits.get(f"{name}.cache_misses", []))
        if found + missed:
            totals[f"{name}.hit_ratio"] = found / (found + missed)
    # what the start, the traced calls and the exit leave of the wall time:
    # the job's own driving and checking code outside any traced call
    totals["trace.remainder_s"] = totals["trace.wall_s"] - sum(
        totals[k] for k in ("process.start_s", "trace.layers_s",
                            "process.exit_s"))
    totals["trace.overhead_s"] = totals["trace.wall_s"] - untraced_wall
    return totals


def load_pins() -> dict:
    with open(BASELINE, encoding="utf-8") as handle:
        return json.load(handle)["digests"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so the running job is killed and waited
    # for and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "gconstellations", "__init__.py")):
        print(f"no gconstellations package under {SRC}", file=sys.stderr)
        return 2

    build, final_check, unit = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        rng = random.Random(args.seed)
        jobs = build(workdir, rng, "smoke" if args.smoke else "full")
        run = Run(jobs, workdir, load_pins())
        trace = bool(args.trace)
        rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS[args.workload]
        if args.smoke:
            rounds = max(len(job.slices or ()) for job in jobs) or 1
        run.measure(args.seconds, rounds, trace)
        checked, failures = final_check(jobs) if not trace else (0, [])
        run.attempted += checked
        if failures:
            run.fail(f"{args.workload} run checks", failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    measured = end_to_end(run)
    print(f"{args.workload} seed {args.seed}: {run.rounds} rounds in "
          f"{run.elapsed:.1f} s, {run.attempted} attempted, "
          f"{run.failed} failed, failed_frac "
          f"{run.failed / max(run.attempted, 1):.4f}; items are {unit}; "
          f"reference job median {median(run.refs):.3f} s "
          f"(quoted at {REF_S} s)")
    raw_wall = 0.0
    for job in jobs:
        walls = sorted(s.wall for s in run.samples[job.name])
        scaled = median([s.wall * run.speed(s)
                         for s in run.samples[job.name]])
        raw_wall += median(walls)
        if walls:
            print(f"  {job.name:32s} measured median {median(walls):.3f} s "
                  f"over {len(walls)} (min {walls[0]:.3f}, max "
                  f"{walls[-1]:.3f}); at reference speed {scaled:.3f} s")
    for name, unit_name in END_TO_END:
        print(f"{name} {measured[name]:.6g} {unit_name}")
    if trace:
        layers = per_layer(run, raw_wall)
        chosen = PER_LAYER
        values = {name: layers.get(name, 0.0) for name, _ in PER_LAYER}
        absent = sorted({n for ss in run.traced.values() for s in ss
                         for n in s.report["trace"]["absent"]})
        if absent:
            print("absent from the library: " + ", ".join(absent))
    else:
        chosen = END_TO_END
        values = measured
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit_name}
                    for name, unit_name in chosen},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
