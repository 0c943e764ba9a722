"""One benchmark job, run in a fresh interpreter as a `gcon` user would.

    python3 perfbench/job.py '<spec json>'

The spec names the job kind, its problem file, and where to write the
report. Kinds:

- cli: `gcon <argv>` through `gconstellations.cli.main`;
- verify: a property sweep over chosen normalized sets of one problem;
- charts: `gcon info --json` followed by chart geometry on the same problem.

The job's own output goes to stdout, where run.py hashes it. The report
(a JSON file) holds timestamps on the system-wide monotonic clock, so
run.py can subtract its spawn time: import done, problem loaded (the end of
the first `cli.load_problem` call), work done. It also holds the process's
own peak resident set size, read at exit, the job's check results, and with
tracing on the spans of every traced call.
"""

import sys
import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402


def peak_rss_kib() -> int:
    """High-water resident set of this process (VmHWM), in KiB.

    Read from the process itself: a child's ru_maxrss can include the
    parent's resident set at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class LoadProbe:
    """Wraps cli.load_problem to timestamp the end of the first load (the
    fixed cost every `gcon` call pays) and keep its result."""

    def __init__(self, cli) -> None:
        self.original = cli.load_problem
        self.t_loaded = None
        self.result = None
        cli.load_problem = self

    def __call__(self, path):
        result = self.original(path)
        if self.t_loaded is None:
            self.t_loaded = time.perf_counter()
            self.result = result
        return result


def run_cli(spec, modules, probe, out):
    rc = modules["cli"].main(spec["argv"])
    return {"rc": rc, "failures": [] if rc == 0 else [f"exit code {rc}"]}


def run_verify(spec, modules, probe, out):
    """check_reductor, bounds_check, reflect (involution and membership)
    and lambda_shift by every character (membership) on chosen sets."""
    cli, family = modules["cli"], modules["family"]
    group, fan, _ = cli.load_problem(spec["input"])
    enumeration = family.enumerate_normalized(fan, group)
    tables = [(t.ray_label, t.characters, set(t.rows))
              for t in enumeration.tables]
    chars = group.characters()

    def member(candidate) -> bool:
        by_char = {d.character: d for d in candidate.divisors}
        return all(
            tuple(by_char[c].coefficient(label) for c in table_chars) in rows
            for label, table_chars, rows in tables
        )

    wanted = set(spec["indices"])
    failures = {}
    checked = 0
    for index, family_set in enumerate(
            enumeration.sets(limit=max(wanted) + 1)):
        if index not in wanted:
            continue
        checked += 1
        reflected = family.reflect(family_set)
        outcome = {
            "reductor": family.check_reductor(family_set, fan,
                                              group).passed,
            "bounds": family.bounds_check(family_set, fan, group).passed,
            "involution": family.reflect(reflected) == family_set,
            "reflect_closure": member(reflected),
            "shift_closure": all(
                member(family.lambda_shift(family_set, lam))
                for lam in chars
            ),
        }
        for name, passed in outcome.items():
            if not passed:
                failures[name] = failures.get(name, 0) + 1
    out.write(json.dumps({"count": enumeration.count,
                          "failed": failures}) + "\n")
    problems = [f"{n}: {k} sets" for n, k in sorted(failures.items())]
    if checked != len(wanted):
        problems.append(f"checked {checked} of {len(wanted)} sets")
    return {"rc": 0, "failures": problems, "sets": checked}


def run_charts(spec, modules, probe, out):
    """`gcon info --json`, both distinguished families, Weil -> Cartier ->
    Weil for every character, reductor_piece and quiver on every chart, and
    equivalence_witness, all on the problem the info command loaded."""
    cli, family, gdivisor = (modules["cli"], modules["family"],
                             modules["gdivisor"])
    rc = cli.main(["info", "--json", "--input", spec["input"]])
    if rc != 0 or probe.result is None:
        return {"rc": rc, "failures": [f"gcon info exit code {rc}"]}
    group, fan, _ = probe.result
    failures = []
    families = (("canonical", family.canonical_family(fan, group)),
                ("maxshift", family.maximal_shift_family(fan, group)))
    for name, members in families:
        if not family.check_reductor(members, fan, group).passed:
            failures.append(f"{name} family fails check_reductor")
    for divisor in families[0][1].divisors:
        cartier = gdivisor.weil_to_cartier(divisor, fan, group)
        if gdivisor.cartier_to_weil(cartier, fan, group) != divisor:
            failures.append(f"Weil/Cartier round trip fails for "
                            f"{divisor.character.name}")
        out.write(json.dumps([list(m) for m in cartier.exponents]) + "\n")
    charts = 0
    for k, cone in enumerate(fan.cones, start=1):
        for name, members in families:
            piece = family.reductor_piece(members, cone, fan, group)
            rep = family.quiver(members, cone, fan, group)
            charts += 1
            if any(c < 0 for arrow in rep.arrows
                   for c in arrow.cone_coordinates):
                failures.append(f"{name} quiver on cone {k} has a "
                                "negative cone coordinate")
            out.write(json.dumps({
                "cone": k, "family": name,
                "piece": [list(m) for m in piece.exponents],
                "arrows": [list(a.exponent) for a in rep.arrows],
            }) + "\n")
    canonical, maxshift = families[0][1], families[1][1]
    for other in (maxshift, canonical):
        result = family.equivalence_witness(canonical, other, fan, group)
        out.write(json.dumps(result.to_json()) + "\n")
    if not result.isomorphic:
        failures.append("canonical family is not isomorphic to itself")
    return {"rc": 0, "failures": failures, "charts": charts}


JOBS = {"cli": run_cli, "verify": run_verify, "charts": run_charts}


def main() -> int:
    spec = json.loads(sys.argv[1])
    report = {"t_start": T_START}
    tracer = None
    code = 0
    try:
        if spec.get("trace"):
            from calltrace import Tracer
            tracer = Tracer()
        import gconstellations
        from gconstellations import cli, family, gdivisor
        source = os.path.realpath(gconstellations.__file__)
        if not source.startswith(os.path.realpath(spec["src"]) + os.sep):
            raise RuntimeError(f"imported gconstellations from {source}, "
                               f"not from {spec['src']}")
        report["t_imported"] = time.perf_counter()
        if tracer is not None:
            tracer.install()
        probe = LoadProbe(cli)
        modules = {"cli": cli, "family": family, "gdivisor": gdivisor}
        report.update(JOBS[spec["kind"]](spec, modules, probe, sys.stdout))
        sys.stdout.flush()
        report["t_loaded"] = probe.t_loaded
        if probe.t_loaded is None:
            report["failures"].append("cli.load_problem was never called")
    except Exception:  # report any crash to run.py as a failed job
        report["error"] = traceback.format_exc()
        code = 3
    report["t_done"] = time.perf_counter()
    report["peak_rss_kib"] = peak_rss_kib()
    if tracer is not None:
        report["trace"] = tracer.to_json()
    with open(spec["report"], "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code or report.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
