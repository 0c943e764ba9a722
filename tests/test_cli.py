"""End-to-end runs of the gcon command line through cli.main."""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction as Q
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import assume, given

import gconstellations
from gconstellations import (
    GWeilDivisor,
    NormalizedEnumeration,
    canonical_family,
    enumerate_normalized,
    enumerate_per_ray,
    junior_simplex,
    lambda_shift,
    make_fan,
    maximal_shift_family,
    reductor_set_to_json,
    validate_fan,
)
from gconstellations import cli, toric
from gconstellations.cli import load_problem, main
from oracles import crepant_by_junior_set
from strategies import (
    PROPERTIES,
    group_and_ray,
    perfbench_gen,
    principal_divisor,
    shortest_paths,
)

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"
RUNNING = str(PROBLEMS / "c8_125.json")


@pytest.fixture(scope="module")
def running_problem():
    return load_problem(RUNNING)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_set(tmp_path, family, name="set.json"):
    path = tmp_path / name
    path.write_text(json.dumps(reductor_set_to_json(family)))
    return str(path)


def broken_set(tmp_path, group, fan, name="set.json"):
    """The canonical set with chi_1 raised by 1 at E4: congruent, but no
    longer a reductor set."""
    fam = canonical_family(fan, group)
    divisors = list(fam.divisors)
    old = divisors[1]
    divisors[1] = GWeilDivisor.from_map(
        old.character, {**old.as_map(), 4: old.coefficient(4) + 1})
    return write_set(tmp_path, fam.from_divisors(divisors), name=name)


def edit_problem(tmp_path, source, path, value):
    """A copy of problems/<source> with the entry at the key path replaced."""
    problem = json.loads((PROBLEMS / source).read_text())
    parent = problem
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(problem))
    return str(edited)


# info --------------------------------------------------------------------

def test_info_text(capsys):
    code, out, err = run(capsys, "info", "--input", RUNNING)
    assert code == 0
    assert "group: |G| = 8" in out
    assert "lattice index: 8" in out
    assert "junior points: 7" in out
    assert "crepant: true" in out
    assert "fan validation: passed (coverage verified)" in out
    assert err == ""


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "--input", RUNNING, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["group"]["order"] == 8
    assert payload["group"]["special_linear"] is True
    assert payload["lattice"]["index"] == 8
    assert len(payload["junior_simplex"]) == 7
    assert payload["fan"]["crepant"] is True
    assert payload["fan"]["rays"]["E4"] == ["1/8", "1/4", "5/8"]
    assert payload["validation"]["passed"] is True
    assert payload["axis_valuations"] == ["1", "1", "1"]


def test_info_non_crepant_warns(capsys):
    # non-junior rays no longer leave coverage unverified
    code, out, err = run(capsys, "info", "--input",
                         str(PROBLEMS / "c4_12.json"))
    assert code == 0
    assert "crepant: false" in out
    assert "coverage verified" in out
    assert "warning:" not in err


def never_list_junior_points(monkeypatch):
    """Make any listing of L / Z^n during fan validation fail the test."""
    def refuse(group):
        raise AssertionError("validate_fan listed the junior points")
    monkeypatch.setattr(toric, "junior_simplex", refuse)


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_loading_never_lists_junior_points(capsys, monkeypatch, path):
    never_list_junior_points(monkeypatch)
    load_problem(str(path))
    code, out, _ = run(capsys, "enumerate", "--input", str(path),
                       "--count-only")
    assert code == 0
    assert int(out) > 0


def test_info_lists_junior_points_once(capsys, monkeypatch):
    calls = []

    def counted(group):
        calls.append(group)
        return junior_simplex(group)
    monkeypatch.setattr(toric, "junior_simplex", counted)
    monkeypatch.setattr(cli, "junior_simplex", counted)
    code, out, _ = run(capsys, "info", "--input", RUNNING)
    assert code == 0
    assert "junior points: 7" in out
    assert len(calls) == 1


def test_one_cone_problem_of_huge_order_fails_fast(tmp_path, capsys,
                                                   monkeypatch):
    # 1/200000(1,1,199998) with the unit rays and the orthant cone: the
    # identity map is crepant, but the cone is not basic
    never_list_junior_points(monkeypatch)
    path = tmp_path / "c200000_one_cone.json"
    path.write_text(json.dumps({
        "group": {"cyclic": {"order": 200000, "weights": [1, 1, 199998]}},
        "fan": {"rays": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                "cones": [[1, 2, 3]]},
    }))
    code, out, _ = run(capsys, "enumerate", "--input", str(path),
                       "--count-only")
    assert code == 1
    report = json.loads(out)["report"]
    assert report["crepant"] is True
    assert report["nonbasic_cones"] == [1]


@pytest.mark.parametrize("orders, weights", [
    ((6,), ((1, 2, 3),)),
    ((7,), ((1, 2, 4),)),
    ((8,), ((1, 2, 5),)),
    ((2, 2), ((1, 0, 1), (0, 1, 1))),
], ids=["1/6(1,2,3)", "1/7(1,2,4)", "1/8(1,2,5)", "Z2xZ2"])
def test_insertion_fans_match_the_junior_set_oracle(tmp_path, orders,
                                                   weights):
    gen = perfbench_gen()
    group = gen.Group(orders, weights)
    for seed in range(3):
        path = tmp_path / f"seed{seed}.json"
        gen.write_problem(gen.crepant_fan_sl3(group, random.Random(seed)),
                          str(path))
        _, fan, report = load_problem(str(path))
        assert report.crepant is crepant_by_junior_set(fan) is True
    # the one-cone identity fan, where the verdicts differ: the identity
    # map is crepant, though its rays are not all the junior points
    units = [r.vector for r in fan.rays[:3]]
    one_cone = make_fan(fan.lattice, units, [(1, 2, 3)])
    report = validate_fan(one_cone)
    assert not report.passed
    assert report.crepant is True
    assert crepant_by_junior_set(one_cone) is False


# family tables ------------------------------------------------------------

def test_canonical_json_matches_library(capsys, running_problem):
    group, fan, _ = running_problem
    code, out, _ = run(capsys, "canonical", "--input", RUNNING, "--json")
    assert code == 0
    assert json.loads(out) == reductor_set_to_json(canonical_family(fan, group))


def test_canonical_table(capsys):
    code, out, _ = run(capsys, "canonical", "--input", RUNNING)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["chi", "E1", "E2", "E3", "E4", "E5", "E6", "E7"]
    assert len(lines) == 9
    assert lines[1].split() == ["chi_0", "0", "0", "0", "0", "0", "0", "0"]
    assert lines[2].split() == [
        "chi_1", "0", "0", "0", "1/8", "1/4", "1/2", "5/8"]


def test_maxshift_json(capsys, running_problem):
    group, fan, _ = running_problem
    code, out, _ = run(capsys, "maxshift", "--input", RUNNING, "--json")
    assert code == 0
    assert json.loads(out) == reductor_set_to_json(
        maximal_shift_family(fan, group))


# enumerate ----------------------------------------------------------------

def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", RUNNING,
                       "--count-only")
    assert code == 0
    assert out.strip() == "1536"


def test_enumerate_count_small(capsys):
    for name, expected in (("c2_11.json", "2"), ("c3_12.json", "9"),
                           ("c3_111.json", "3"), ("ab22_axes.json", "4")):
        code, out, _ = run(capsys, "enumerate", "--input",
                           str(PROBLEMS / name), "--count-only")
        assert code == 0
        assert out.strip() == expected


def test_enumerate_per_ray(capsys):
    code, out, _ = run(capsys, "enumerate", "--input",
                       str(PROBLEMS / "c3_12.json"), "--per-ray")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 9
    sizes = {t["ray"]: len(t["rows"]) for t in payload["per_ray"]}
    assert sizes == {"E1": 1, "E2": 1, "E3": 3, "E4": 3}
    table = next(t for t in payload["per_ray"] if t["ray"] == "E3")
    assert table["rows"] == [
        ["0", "-2/3", "-1/3"], ["0", "1/3", "-1/3"], ["0", "1/3", "2/3"]]


def test_enumerate_stream_with_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", RUNNING,
                       "--limit", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    for line in lines:
        blob = json.loads(line)
        assert len(blob["divisors"]) == 8


def test_enumerate_limit_zero(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", RUNNING,
                       "--limit", "0")
    assert code == 0
    assert out == ""


def test_enumerate_rejects_negative_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "--input", RUNNING,
                       "--limit", "-3")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid input"
    assert "argument error" in payload["detail"]


@pytest.mark.parametrize("mode", ["--count-only", "--per-ray"])
def test_enumerate_limit_only_bounds_the_stream(capsys, mode):
    # --limit 0 too: the value is given, so it would be silently ignored
    for limit in ("3", "0"):
        code, out, _ = run(capsys, "enumerate", "--input", RUNNING,
                           mode, "--limit", limit)
        assert code == 1
        payload = json.loads(out)
        assert payload["error"] == "invalid input"
        assert "argument error" in payload["detail"]


def test_every_command_loads_the_problem_once(capsys, monkeypatch, tmp_path):
    calls = []

    def counted(path):
        calls.append(path)
        return load_problem(path)

    monkeypatch.setattr(cli, "load_problem", counted)
    code, out, _ = run(capsys, "canonical", "--input", RUNNING, "--json")
    assert code == 0
    family = tmp_path / "canonical.json"
    family.write_text(out)
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"E4": "7/4", "E5": "1/2", "E7": "-1/4"}))
    given_set = ("--set", str(family))
    commands = [
        ("info",), ("canonical",), ("maxshift", "--json"),
        ("enumerate", "--count-only"), ("check", *given_set),
        ("piece", "--cone", "1", *given_set),
        ("quiver", "--cone", "1", *given_set),
        ("cartier", "--char", "6", "--coeffs", str(coeffs)),
        ("shift", "--lambda", "3", *given_set),
        ("reflect", *given_set), ("equiv", *given_set, *given_set),
    ]
    assert len({argv[0] for argv in commands}) == 11
    for command, *rest in commands:
        calls.clear()
        code, out, _ = run(capsys, command, "--input", RUNNING, *rest)
        assert code == 0 and out, command
        assert calls == [RUNNING], command
    # an argument error stops before the load
    calls.clear()
    code, _, _ = run(capsys, "piece", "--input", RUNNING, "--cone", "x",
                     *given_set)
    assert code == 1 and calls == []


def into_closed_pipe(read, *argv):
    """Run `gcon <argv>` into a pipe, take read(stdout), close the pipe
    early, and return what was read, the exit code and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(gconstellations.__file__).parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "from gconstellations.cli import console_main; console_main()",
         *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = read(proc.stdout)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return head, proc.wait(timeout=60), err


def test_enumerate_into_closed_pipe():
    # like `gcon enumerate ... | head -1`: the reader leaves after one line
    first, code, err = into_closed_pipe(
        lambda out: out.readline(), "enumerate", "--input", RUNNING)
    assert code == 0
    assert err == b""
    assert len(json.loads(first)["divisors"]) == 8


@pytest.mark.parametrize("module", ["gconstellations",
                                    "gconstellations.cli"])
def test_python_dash_m_runs_the_command_line(module, tmp_path):
    # without a __main__ guard `python -m gconstellations.cli` printed
    # nothing and exited 0
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(gconstellations.__file__).parent.parent)

    def gcon(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, env=env, timeout=60)

    done = gcon("enumerate", "--input", RUNNING, "--count-only")
    assert (done.returncode, done.stdout) == (0, b"1536\n")
    done = gcon("info", "--input", str(tmp_path / "missing.json"))
    assert done.returncode == 1
    assert json.loads(done.stdout)["error"] == "invalid input"


def crepant_chain_file(tmp_path, order):
    """The minimal resolution of 1/order(1, order-1), written by the
    benchmark's problem generator."""
    gen = perfbench_gen()
    path = tmp_path / f"a{order}.json"
    gen.write_problem(
        gen.crepant_chain(gen.Group((order,), ((1, order - 1),))), str(path))
    return str(path)


def test_per_ray_into_closed_pipe(tmp_path):
    # like `gcon enumerate --per-ray ... | head -c 100`: the 1/13(1,12)
    # tables take about 2 MB, far more than a pipe holds
    path = crepant_chain_file(tmp_path, 13)
    head, code, err = into_closed_pipe(
        lambda out: out.read(100), "enumerate", "--input", path, "--per-ray")
    assert code == 0
    assert err == b""
    assert head.startswith(b'{\n  "count": ')


class ChildRun(NamedTuple):
    code: int
    stdout: bytes
    sha256: str
    seconds: float
    peak_rss_kib: int   # the child's own ru_maxrss, KiB on Linux


def run_in_child(*argv, timeout):
    """Run cli.main(argv) in a child process that reports its own peak RSS
    on its last stderr line. The child runs under coreutils timeout, which
    ends it with exit 124 after timeout seconds. timeout also forks it: a
    child exec'd straight from pytest would count pytest's own peak in its
    ru_maxrss, which Linux keeps across exec."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(gconstellations.__file__).parent.parent)
    program = (
        "import resource, sys\n"
        "from gconstellations import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "
        "file=sys.stderr)\n"
        "sys.exit(code)\n")
    start = time.perf_counter()
    done = subprocess.run(
        ["timeout", str(timeout), sys.executable, "-c", program, *argv],
        capture_output=True, env=env)
    seconds = time.perf_counter() - start
    return ChildRun(done.returncode, done.stdout,
                    hashlib.sha256(done.stdout).hexdigest(), seconds,
                    int(done.stderr.splitlines()[-1]))


def test_junior_points_of_a_huge_cyclic_group(tmp_path):
    # gcon info lists the junior points of 1/1000000(1,1) from the group's
    # elements on ints in a few seconds, and walks them as an odometer, so
    # its memory does not grow with |G|
    path = tmp_path / "c1000000.json"
    path.write_text(json.dumps({
        "group": {"cyclic": {"order": 1000000, "weights": [1, 1]}},
        "fan": {"rays": [["1", "0"], ["1/1000000", "1/1000000"], ["0", "1"]],
                "cones": [[1, 2], [2, 3]]},
    }))
    done = run_in_child("info", "--input", str(path), timeout=20)
    assert done.code == 0
    assert "junior points: 3" in done.stdout.decode().splitlines()
    assert done.peak_rss_kib < 30 * 1024, (done.seconds, done.peak_rss_kib)


def test_per_ray_tables_stream_in_bounded_memory(tmp_path):
    # the benchmark's seed-1 crepant fan of 1/30(1,4,25) has 21 MB of
    # --per-ray tables; rows are bytes and the writer streams them, so no
    # table's text is held
    gen = perfbench_gen()
    rng = random.Random(1)
    path = tmp_path / "c30.json"
    gen.write_problem(gen.crepant_fan_sl3(
        gen.permuted(gen.Group((30,), ((1, 4, 25),)), rng), rng), str(path))
    done = run_in_child("enumerate", "--input", str(path), "--per-ray",
                        timeout=60)
    assert done.code == 0
    assert done.sha256 == (
        "ae0f15a860652a8e4ac7d47f3c066396d2f2f1fd83760fe609e964bbed379cb7")
    assert done.peak_rss_kib < 40 * 1024, (done.seconds, done.peak_rss_kib)


@PROPERTIES
@given(group_and_ray())
def test_per_ray_writer_matches_json_dumps(case):
    group, ray = case
    # keep the tables small, as test_cayley does: wide grids such as
    # 1/11(2,0) at (1, 0) have hundreds of thousands of rows
    shifts = shortest_paths(group, ray.scaled)
    assume(sum(shifts[i] + shifts[j] for i, j in enumerate(group.inverses))
           <= 40)
    table = enumerate_per_ray(ray, group)
    # a second copy of the table covers the separator between tables
    enumeration = NormalizedEnumeration(
        group, (table, table), len(table.positions) ** 2)
    payload = {
        "count": enumeration.count,
        "per_ray": [{
            "ray": f"E{t.ray_label}",
            "characters": [c.to_json() for c in t.characters],
            "rows": [[str(q) for q in row] for row in t.rows],
        } for t in enumeration.tables],
    }
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit_per_ray(enumeration)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


class RecordingStdout(io.StringIO):
    """A stdout that keeps every string written to it, one per call."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


def per_ray_payload(enumeration) -> dict:
    """The --per-ray payload built from the Fraction rows."""
    return {
        "count": enumeration.count,
        "per_ray": [{
            "ray": f"E{t.ray_label}",
            "characters": [c.to_json() for c in t.characters],
            "rows": [[str(q) for q in row] for row in t.rows],
        } for t in enumeration.tables],
    }


@pytest.mark.parametrize("chain", [False, True], ids=["c8_125", "a9"])
def test_per_ray_is_written_row_by_row(tmp_path, chain):
    path = crepant_chain_file(tmp_path, 9) if chain else RUNNING
    out = RecordingStdout()
    with redirect_stdout(out):
        assert main(["enumerate", "--input", path, "--per-ray"]) == 0
    group, fan, _ = load_problem(path)
    enumeration = enumerate_normalized(fan, group)
    assert "".join(out.writes) == (
        json.dumps(per_ray_payload(enumeration), indent=2) + "\n")
    # a row opens with a bracket and its first cell, a quoted string, at
    # depth 5; a character's list of residues opens the same way but
    # holds ints
    opener = "[\n" + " " * 10 + '"'
    assert max(text.count(opener) for text in out.writes) == 1
    rows = sum(len(t.positions) for t in enumeration.tables)
    assert sum(text.count(opener) for text in out.writes) == rows


@pytest.mark.parametrize("mode", [("--count-only",), ("--per-ray",),
                                  ("--limit", "100")])
def test_enumerate_never_builds_fraction_rows(capsys, monkeypatch, mode):
    made = []

    def recording(fan, group):
        made.append(enumerate_normalized(fan, group))
        return made[-1]

    monkeypatch.setattr(cli, "enumerate_normalized", recording)
    code, out, _ = run(capsys, "enumerate", "--input", RUNNING, *mode)
    assert code == 0 and out and len(made) == 1
    assert not any("rows" in vars(t) for t in made[0].tables)


def test_enumerate_full_stream_small(capsys):
    code, out, _ = run(capsys, "enumerate", "--input",
                       str(PROBLEMS / "c2_11.json"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2


# check ----------------------------------------------------------------

def test_check_passes(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    path = write_set(tmp_path, canonical_family(fan, group))
    code, out, _ = run(capsys, "check", "--input", RUNNING, "--set", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["normalized"] is True
    assert payload["reductor"]["passed"] is True
    assert payload["bounds"]["passed"] is True


def test_check_accepts_unnormalized_reductor(capsys, running_problem,
                                             tmp_path):
    group, fan, _ = running_problem
    fam = canonical_family(fan, group)
    offset = principal_divisor((1, 1, 1), fan, group)
    shifted = [d + offset for d in fam.divisors]
    path = write_set(tmp_path, fam.from_divisors(shifted))
    code, out, _ = run(capsys, "check", "--input", RUNNING, "--set", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["normalized"] is False


def test_check_rejects_broken_set(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    path = broken_set(tmp_path, group, fan)
    code, out, _ = run(capsys, "check", "--input", RUNNING, "--set", path)
    assert code == 2
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["reductor"]["condition_violations"]


# piece / quiver -------------------------------------------------------

def test_piece_golden(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    path = write_set(tmp_path, canonical_family(fan, group))
    code, out, _ = run(capsys, "piece", "--input", RUNNING,
                       "--set", path, "--cone", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["cone"] == [6, 5, 7]
    monomials = {g["monomial"] for g in payload["generators"]}
    assert monomials == {"1", "x", "y", "xy", "x/z", "z", "xy/z", "yz"}


def test_piece_cone_out_of_range(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    path = write_set(tmp_path, canonical_family(fan, group))
    code, out, _ = run(capsys, "piece", "--input", RUNNING,
                       "--set", path, "--cone", "9")
    assert code == 1
    assert "out of range" in json.loads(out)["detail"]


def test_quiver_json(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    path = write_set(tmp_path, canonical_family(fan, group))
    code, out, _ = run(capsys, "quiver", "--input", RUNNING,
                       "--set", path, "--cone", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["cone"] == [4, 6, 5]
    assert len(payload["vertices"]) == 8
    assert len(payload["arrows"]) == 24
    for arrow in payload["arrows"]:
        for coord in arrow["cone_coordinates"]:
            assert not coord.startswith("-")


def test_quiver_dot(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    path = write_set(tmp_path, canonical_family(fan, group))
    code, out, _ = run(capsys, "quiver", "--input", RUNNING,
                       "--set", path, "--cone", "6", "--dot")
    assert code == 0
    assert out.startswith("digraph mckay_quiver {")
    assert out.count("->") == 24
    assert '"chi_0" -> "chi_1"' in out


# cartier ---------------------------------------------------------------

def test_cartier_golden(capsys, tmp_path):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"E4": "7/4", "E5": "1/2", "E7": "-1/4"}))
    code, out, _ = run(capsys, "cartier", "--input", RUNNING,
                       "--char", "6", "--coeffs", str(coeffs))
    assert code == 0
    payload = json.loads(out)
    assert payload["char"] == [6]
    assert len(payload["per_cone"]) == 8
    entry = next(e for e in payload["per_cone"] if e["cone"] == 6)
    assert entry["rays"] == [4, 6, 5]
    assert entry["exponent"] == [-3, 1, 3]
    assert entry["monomial"] == "yz^3/x^3"


def test_cartier_congruence_failure(capsys, tmp_path):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"E4": "1/3"}))
    code, out, _ = run(capsys, "cartier", "--input", RUNNING,
                       "--char", "6", "--coeffs", str(coeffs))
    assert code == 2
    assert json.loads(out)["error"] == "check failed"


def test_cartier_zero_denominator(capsys, tmp_path):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"E4": "1/0"}))
    code, out, _ = run(capsys, "cartier", "--input", RUNNING,
                       "--char", "0", "--coeffs", str(coeffs))
    assert code == 1
    assert json.loads(out)["error"] == "invalid input"


def test_set_file_zero_denominator(capsys, tmp_path):
    bad = tmp_path / "set.json"
    bad.write_text(json.dumps(
        {"divisors": [{"char": 0, "coeffs": {"E4": "1/0"}}]}))
    code, out, _ = run(capsys, "check", "--input", RUNNING,
                       "--set", str(bad))
    assert code == 1
    assert json.loads(out)["error"] == "invalid input"


def test_cartier_unknown_ray(capsys, tmp_path):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"E9": "1"}))
    code, out, _ = run(capsys, "cartier", "--input", RUNNING,
                       "--char", "0", "--coeffs", str(coeffs))
    assert code == 1
    assert json.loads(out)["detail"] == (
        "invalid coefficients: unknown ray label 'E9'")


@pytest.mark.parametrize("value", [0.125, 1.0, True, "125E-3"])
def test_non_rational_coefficient_rejected(capsys, running_problem, tmp_path,
                                           value):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"E4": value, "E5": "1/4", "E7": "5/8"}))
    code, out, _ = run(capsys, "cartier", "--input", RUNNING,
                       "--char", "1", "--coeffs", str(coeffs))
    assert code == 1
    assert "exact rational" in json.loads(out)["detail"]
    group, fan, _ = running_problem
    obj = reductor_set_to_json(canonical_family(fan, group))
    assert obj["divisors"][1]["coeffs"]["E4"] == "1/8"
    obj["divisors"][1]["coeffs"]["E4"] = value
    path = tmp_path / "set.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check", "--input", RUNNING, "--set", str(path))
    assert code == 1
    assert "exact rational" in json.loads(out)["detail"]


# shift / reflect / equiv -------------------------------------------------

def test_shift_golden(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    fam = canonical_family(fan, group)
    path = write_set(tmp_path, fam)
    code, out, _ = run(capsys, "shift", "--input", RUNNING,
                       "--set", path, "--lambda", "4")
    assert code == 0
    expected = lambda_shift(fam, group.character((4,)))
    assert json.loads(out) == reductor_set_to_json(expected)


def test_shift_rejects_unnormalized(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    fam = canonical_family(fan, group)
    offset = principal_divisor((1, 1, 1), fan, group)
    path = write_set(
        tmp_path, fam.from_divisors([d + offset for d in fam.divisors]))
    code, out, _ = run(capsys, "shift", "--input", RUNNING,
                       "--set", path, "--lambda", "1")
    assert code == 2
    assert "normalized" in json.loads(out)["detail"]


def test_reflect_roundtrip(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    fam = maximal_shift_family(fan, group)
    path = write_set(tmp_path, fam)
    code, out, _ = run(capsys, "reflect", "--input", RUNNING, "--set", path)
    assert code == 0
    once = json.loads(out)
    back = write_set(tmp_path, fam, name="tmp.json")
    Path(back).write_text(json.dumps(once))
    code, out, _ = run(capsys, "reflect", "--input", RUNNING, "--set", back)
    assert code == 0
    assert json.loads(out) == reductor_set_to_json(fam)


def test_equiv_isomorphic(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    fam = canonical_family(fan, group)
    offset = principal_divisor((1, 1, 1), fan, group)
    a = write_set(tmp_path, fam, name="a.json")
    b = write_set(
        tmp_path, fam.from_divisors([d + offset for d in fam.divisors]),
        name="b.json")
    code, out, _ = run(capsys, "equiv", "--input", RUNNING,
                       "--set", a, "--set", b)
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert payload["isomorphic"] is True
    assert payload["monomial"] == [1, 1, 1]


def test_equiv_inequivalent(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    a = write_set(tmp_path, canonical_family(fan, group), name="a.json")
    b = write_set(tmp_path, maximal_shift_family(fan, group), name="b.json")
    code, out, _ = run(capsys, "equiv", "--input", RUNNING,
                       "--set", a, "--set", b)
    assert code == 2
    assert json.loads(out)["equivalent"] is False


def test_equiv_needs_two_sets(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    a = write_set(tmp_path, canonical_family(fan, group))
    code, out, _ = run(capsys, "equiv", "--input", RUNNING, "--set", a)
    assert code == 1


# abelian input and failure modes ------------------------------------------

def test_abelian_product_group(capsys, tmp_path):
    problem = str(PROBLEMS / "ab22_axes.json")
    code, out, _ = run(capsys, "info", "--input", problem)
    assert code == 0
    assert "|G| = 4" in out
    group, fan, _ = load_problem(problem)
    path = write_set(tmp_path, canonical_family(fan, group))
    code, out, _ = run(capsys, "shift", "--input", problem,
                       "--set", path, "--lambda", "1,0")
    assert code == 0
    assert json.loads(out)["divisors"]


def test_abelian_char_wrong_length(capsys, tmp_path):
    problem = str(PROBLEMS / "ab22_axes.json")
    group, fan, _ = load_problem(problem)
    path = write_set(tmp_path, canonical_family(fan, group))
    code, out, _ = run(capsys, "shift", "--input", problem,
                       "--set", path, "--lambda", "1")
    assert code == 1


def test_missing_input_file(capsys):
    code, out, _ = run(capsys, "info", "--input", "/nonexistent.json")
    assert code == 1
    assert json.loads(out)["error"] == "invalid input"


@pytest.mark.parametrize("content", [
    b"{not json",
    b'{"group": "\xff"}',
    # nested deeper than the recursion limit
    b"[" * 200_000,
    # longer than Python's limit on int-string digits
    b'{"group": ' + b"9" * 5000 + b"}",
], ids=["syntax", "not-utf8", "deep", "long-int"])
@pytest.mark.parametrize("command", [
    ["info", "--input"],
    ["check", "--input", RUNNING, "--set"],
    ["cartier", "--input", RUNNING, "--char", "1", "--coeffs"],
], ids=["input", "set", "coeffs"])
def test_malformed_json(capsys, tmp_path, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, *command, str(bad))
    assert (code, err) == (1, "")
    assert "not valid JSON" in json.loads(out)["detail"]


@pytest.mark.parametrize("command, target, error, limit", [
    # 1/60(1,11,48) --limit 1 runs out of memory in the per-ray tables
    ("enumerate", "enumerate_normalized", MemoryError, "memory"),
    ("canonical", "canonical_family", RecursionError, "recursion depth"),
], ids=["memory", "recursion"])
def test_resource_errors_exit_1_with_json(capsys, monkeypatch, command,
                                          target, error, limit):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli, target, exhausted)
    code, out, err = run(capsys, command, "--input", RUNNING)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": "out of resources",
                               "detail": f"gcon {command} ran out of {limit}"}


def test_invalid_fan_rejected(capsys, tmp_path):
    problem = json.loads(Path(RUNNING).read_text())
    problem["fan"]["cones"][0] = [1, 2, 4]
    bad = tmp_path / "nonbasic.json"
    bad.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "info", "--input", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["detail"] == "fan failed validation"
    assert payload["report"]["passed"] is False


@pytest.mark.parametrize("name, source, cones", [
    # one cone listed twice, the cone (3, 2) left out
    ("duplicate", "c2_11.json", [[1, 3], [3, 1]]),
    # a non-junior fan covering half of the quadrant
    ("gapped", "c4_12.json", [[1, 3]]),
])
@pytest.mark.parametrize("command", [["info"], ["enumerate", "--count-only"]])
def test_wrong_fans_rejected(capsys, tmp_path, name, source, cones, command):
    problem = json.loads((PROBLEMS / source).read_text())
    problem["fan"]["cones"] = cones
    bad = tmp_path / f"{name}.json"
    bad.write_text(json.dumps(problem))
    code, out, _ = run(capsys, *command, "--input", str(bad))
    assert code == 1
    payload = json.loads(out)
    assert payload["detail"] == "fan failed validation"
    assert payload["report"]["passed"] is False


@pytest.mark.parametrize("source, path, value", [
    ("c8_125.json", ("group", "cyclic", "weights"), "125"),
    ("ab22_axes.json", ("group", "abelian", "orders"), "22"),
    ("ab22_axes.json", ("group", "abelian", "weight_matrix", 0), "10"),
    ("c3_111.json", ("fan", "rays", 0), "100"),
    ("c3_111.json", ("fan", "cones"), "124"),
    ("c3_111.json", ("fan", "cones", 0), "124"),
])
def test_string_for_list_rejected(capsys, tmp_path, source, path, value):
    # a JSON string must not pass as the list of its characters
    bad = edit_problem(tmp_path, source, path, value)
    code, out, _ = run(capsys, "info", "--input", bad)
    assert code == 1
    assert "must be a JSON list" in json.loads(out)["detail"]


@pytest.mark.parametrize("source, path, value", [
    ("c3_111.json", ("fan", "cones", 0), [1.9, 2, 4]),
    ("c3_111.json", ("fan", "cones", 0), [True, 2, 4]),
    ("c3_111.json", ("group", "cyclic", "weights"), [1.7, 1, 1]),
    ("c3_111.json", ("group", "cyclic", "weights"), [True, 1, 1]),
    ("c3_111.json", ("group", "cyclic", "order"), 3.7),
    ("ab22_axes.json", ("group", "abelian", "orders"), [2.5, 2]),
    ("ab22_axes.json", ("group", "abelian", "weight_matrix"),
     [[True, 0], [0, 1]]),
    # a JSON float is not an exact rational, even where its value is one
    ("c8_125.json", ("fan", "rays", 3), [0.125, 0.25, 0.625]),
])
def test_non_integer_json_rejected(capsys, tmp_path, source, path, value):
    # int() would read 1.9 as 1 and true as 1 and accept the problem
    bad = edit_problem(tmp_path, source, path, value)
    code, out, _ = run(capsys, "enumerate", "--count-only", "--input", bad)
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "invalid input"
    assert "JSON integer" in payload["detail"]


@pytest.mark.parametrize("char", [[1.5], [True]])
def test_set_file_non_integer_character(capsys, running_problem, tmp_path,
                                        char):
    group, fan, _ = running_problem
    obj = reductor_set_to_json(canonical_family(fan, group))
    assert obj["divisors"][1]["char"] == [1]
    obj["divisors"][1]["char"] = char
    path = tmp_path / "set.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check", "--input", RUNNING,
                       "--set", str(path))
    assert code == 1
    assert "residues must be integers" in json.loads(out)["detail"]


@pytest.mark.parametrize("key", ["EE4", "4", " 4", "E04"])
def test_cartier_key_must_be_ray_name(capsys, tmp_path, key):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({key: "7/4", "E5": "1/2", "E7": "-1/4"}))
    code, out, _ = run(capsys, "cartier", "--input", RUNNING,
                       "--char", "6", "--coeffs", str(coeffs))
    assert code == 1
    assert json.loads(out)["detail"] == (
        f"invalid coefficients: unknown ray label {key!r}")


def test_set_file_coeffs_must_be_object(capsys, tmp_path):
    # a list of [name, value] pairs must not pass as the object it lists
    problem = str(PROBLEMS / "c3_111.json")
    group, fan, _ = load_problem(problem)
    obj = reductor_set_to_json(canonical_family(fan, group))
    for divisor in obj["divisors"]:
        divisor["coeffs"] = [list(item) for item in divisor["coeffs"].items()]
    assert any(d["coeffs"] for d in obj["divisors"])
    path = tmp_path / "set.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check", "--input", problem, "--set", str(path))
    assert code == 1
    assert "coefficients must be an object" in json.loads(out)["detail"]


def test_cartier_coeffs_must_be_object(capsys, tmp_path):
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps([["E4", "7/4"], ["E5", "1/2"]]))
    code, out, _ = run(capsys, "cartier", "--input", RUNNING,
                       "--char", "6", "--coeffs", str(coeffs))
    assert code == 1
    assert json.loads(out)["detail"] == (
        "invalid coefficients: coefficients must be an object keyed by "
        "ray name")


def test_count_only_large_cyclic_surface(capsys, tmp_path):
    # 1/1100(1,1) has a 1100-character per-ray search, deeper than the
    # interpreter's recursion limit
    problem = {
        "group": {"cyclic": {"order": 1100, "weights": [1, 1]}},
        "fan": {"rays": [["1", "0"], ["0", "1"], ["1/1100", "1/1100"]],
                "cones": [[1, 3], [3, 2]]},
    }
    path = tmp_path / "c1100_11.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "enumerate", "--input", str(path),
                       "--count-only")
    assert code == 0
    assert out == "1100\n"


def test_non_faithful_group_rejected(capsys, tmp_path):
    # weights (2, 2, 0) mod 4 miss the odd characters
    bad = edit_problem(tmp_path, "c3_111.json", ("group",),
                       {"cyclic": {"order": 4, "weights": [2, 2, 0]}})
    code, out, _ = run(capsys, "info", "--input", bad)
    assert code == 1
    detail = json.loads(out)["detail"]
    assert detail.startswith("invalid group")
    assert "not surjective" in detail


def test_bad_character_argument(capsys, tmp_path, running_problem):
    group, fan, _ = running_problem
    path = write_set(tmp_path, canonical_family(fan, group))
    code, out, _ = run(capsys, "shift", "--input", RUNNING,
                       "--set", path, "--lambda", "x")
    assert code == 1
    assert "cannot parse character" in json.loads(out)["detail"]


LOOSE_INTEGERS = ["1_0", " 3", "3 ", "+3", "\u0663", "3\n", "3-", ""]


@pytest.mark.parametrize("raw", LOOSE_INTEGERS)
def test_character_argument_is_ascii_digits(capsys, tmp_path,
                                            running_problem, raw):
    # int() would read "1_0" as 10 and " 3", "+3" and an Arabic-Indic 3 as 3
    group, fan, _ = running_problem
    path = write_set(tmp_path, canonical_family(fan, group))
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text("{}")
    for argv in (("shift", "--set", path, "--lambda", raw),
                 ("shift", "--set", path, "--lambda", f"{raw},0"),
                 ("cartier", "--coeffs", str(coeffs), "--char", raw)):
        code, out, _ = run(capsys, argv[0], "--input", RUNNING, *argv[1:])
        assert code == 1
        assert "cannot parse character" in json.loads(out)["detail"]


@pytest.mark.parametrize("raw", LOOSE_INTEGERS)
def test_integer_options_are_ascii_digits(capsys, tmp_path, running_problem,
                                          raw):
    group, fan, _ = running_problem
    path = write_set(tmp_path, canonical_family(fan, group))
    for argv in (("piece", "--set", path, "--cone", raw),
                 ("quiver", "--set", path, "--cone", raw),
                 ("enumerate", "--limit", raw)):
        code, out, _ = run(capsys, argv[0], "--input", RUNNING, *argv[1:])
        assert code == 1
        assert "argument error" in json.loads(out)["detail"]


def test_integer_options_accept_a_leading_minus(capsys, tmp_path,
                                                running_problem):
    group, fan, _ = running_problem
    path = write_set(tmp_path, canonical_family(fan, group))
    code, out, _ = run(capsys, "shift", "--input", RUNNING, "--set", path,
                       "--lambda", "-5")
    assert code == 0
    assert json.loads(out) == reductor_set_to_json(
        lambda_shift(canonical_family(fan, group), group.character((3,))))
    code, out, _ = run(capsys, "piece", "--input", RUNNING, "--set", path,
                       "--cone", "-1")
    assert code == 1
    assert "out of range" in json.loads(out)["detail"]


@pytest.mark.parametrize("value", [
    "1_0/8", "\u0661/\u0668", "\uff11/8",
    " 1/8", "1/8\n", "\t1/8", "1/8\x1c", "+1/8", "1/+8", "1 / 8", "1/ 8",
    "1/-8", "--1", "1/8/8", "", ".", "-", "1/0"])
def test_rational_strings_are_ascii(capsys, running_problem, tmp_path, value):
    # Fraction would read "1_0/8" as 5/4 and Arabic-Indic 1/8 as 1/8; it
    # reads " 1/8", "1/8\n" and "+1/8" as 1/8 on every Python, and "1 / 8"
    # too from Python 3.12 on, so a rational has no whitespace and no "+";
    # a malformed string of the allowed characters, or "1/0", gets the same
    # wording rather than Fraction's own
    bad = edit_problem(tmp_path, "c8_125.json", ("fan", "rays", 3, 0), value)
    code, out, _ = run(capsys, "info", "--input", bad)
    assert code == 1
    assert json.loads(out)["detail"] == (
        "invalid fan: ray entry must be an exact rational: a JSON string or "
        f"a JSON integer, not {value!r}")
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({"E4": value}))
    code, out, _ = run(capsys, "cartier", "--input", RUNNING,
                       "--char", "1", "--coeffs", str(coeffs))
    assert code == 1
    assert "exact rational" in json.loads(out)["detail"]
    group, fan, _ = running_problem
    obj = reductor_set_to_json(canonical_family(fan, group))
    obj["divisors"][1]["coeffs"]["E4"] = value
    path = tmp_path / "set.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "check", "--input", RUNNING, "--set", str(path))
    assert code == 1
    assert "exact rational" in json.loads(out)["detail"]


def test_unknown_subcommand(capsys):
    code, out, _ = run(capsys, "frobnicate")
    assert code == 1
    assert "argument error" in json.loads(out)["detail"]


def test_missing_required_option(capsys):
    code, out, _ = run(capsys, "info")
    assert code == 1


# input shapes that load_problem rejects -----------------------------------

@pytest.mark.parametrize("problem, detail", [
    ([1, 2], "problem file must be a JSON object"),
    ({"group": [8], "fan": {}}, "problem file needs a 'group' object"),
    ({"group": {"cyclic": {"order": 2, "weights": [1, 1]}}, "fan": []},
     "problem file needs a 'fan' object"),
    ({"group": {"dihedral": {"order": 4}}, "fan": {}},
     "group must be given as 'cyclic' or 'abelian'"),
])
def test_problem_shape_rejected(capsys, tmp_path, problem, detail):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "info", "--input", str(path))
    assert code == 1
    assert json.loads(out)["detail"] == detail


@pytest.mark.parametrize("path, value, detail", [
    (("fan", "rays", 3), ["1/8", "2/8"],
     "invalid fan: every ray needs 3 coordinates"),
    (("fan", "cones", 0), [1, 2],
     "invalid fan: cone (1, 2) must have exactly 3 rays"),
    # Fraction would expand the exponent into a 200-million-digit integer
    (("fan", "rays", 3, 0), "1e200000000",
     "invalid fan: ray entry must be an exact rational: a JSON string or a "
     "JSON integer, not '1e200000000'"),
    (("fan", "rays", 3), ["1/8", "2/8", "5/8", "0"],
     "invalid fan: every ray needs 3 coordinates"),
])
def test_malformed_fan_rejected(capsys, tmp_path, path, value, detail):
    bad = edit_problem(tmp_path, "c8_125.json", path, value)
    code, out, _ = run(capsys, "info", "--input", bad)
    assert code == 1
    assert json.loads(out)["detail"] == detail


@pytest.mark.parametrize("vector, error", [
    (["-1/8", "2/8", "7/8"], "E4 has a negative coordinate"),
    (["1/8", "1/8", "6/8"], "E4 is not a lattice point"),
    # twice E4
    (["2/8", "4/8", "10/8"], "E4 is not primitive in the lattice"),
])
def test_bad_ray_fails_validation(capsys, tmp_path, vector, error):
    bad = edit_problem(tmp_path, "c8_125.json", ("fan", "rays", 3), vector)
    code, out, _ = run(capsys, "info", "--input", bad)
    assert code == 1
    payload = json.loads(out)
    assert payload["detail"] == "fan failed validation"
    assert payload["report"]["ray_errors"] == [error]


def test_unused_ray_warns_on_stderr(capsys, tmp_path):
    rays = json.loads(Path(RUNNING).read_text())["fan"]["rays"]
    extra = edit_problem(tmp_path, "c8_125.json", ("fan", "rays"),
                         rays + [["1", "0", "0"]])
    plain = run(capsys, "enumerate", "--count-only", "--input", RUNNING)
    code, out, err = run(capsys, "enumerate", "--count-only",
                         "--input", extra)
    assert (code, out) == plain[:2] == (0, "1536\n")
    assert err == "warning: E8 does not occur in any maximal cone\n"


# sets that fail the reductor check ----------------------------------------

@pytest.mark.parametrize("command", [
    ["piece", "--cone", "1"],
    ["quiver", "--cone", "1"],
    ["shift", "--lambda", "1"],
    ["reflect"],
])
def test_commands_require_a_reductor_set(capsys, running_problem, tmp_path,
                                         command):
    group, fan, _ = running_problem
    path = broken_set(tmp_path, group, fan)
    code, out, _ = run(capsys, *command, "--input", RUNNING, "--set", path)
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "check failed"
    assert payload["detail"] == "set is not a reductor set"
    assert payload["report"]["condition_violations"]


def test_equiv_requires_reductor_sets(capsys, running_problem, tmp_path):
    group, fan, _ = running_problem
    good = write_set(tmp_path, canonical_family(fan, group), name="a.json")
    bad = broken_set(tmp_path, group, fan)
    code, out, _ = run(capsys, "equiv", "--input", RUNNING,
                       "--set", good, "--set", bad)
    assert code == 2
    assert json.loads(out)["detail"] == f"{bad} is not a reductor set"


def test_check_reports_congruence_violations(capsys, running_problem,
                                             tmp_path):
    group, fan, _ = running_problem
    fam = canonical_family(fan, group)
    divisors = list(fam.divisors)
    old = divisors[1]
    divisors[1] = GWeilDivisor.from_map(
        old.character, {**old.as_map(), 4: old.coefficient(4) + Q(1, 8)})
    path = write_set(tmp_path, fam.from_divisors(divisors))
    code, out, _ = run(capsys, "check", "--input", RUNNING, "--set", path)
    assert code == 2
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["reductor"]["congruence_violations"] == [
        {"char": [1], "ray": "E4"}]
