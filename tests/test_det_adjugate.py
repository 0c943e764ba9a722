"""The integer elimination `det_adjugate` and the integer `validate_fan`,
`Cone.dual_basis` and `LatticeL` against the Fraction Gauss-Jordan oracle
`det_inverse`, on the problem files, the benchmark's crepant SL(3) fans
and mutations of both."""

import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from gconstellations import (
    FanValidationReport,
    GroupData,
    NotBasicError,
    build_lattice,
    make_fan,
    validate_fan,
    x_valuation_on_X,
)
from gconstellations.cli import load_problem
from gconstellations.toric import det_adjugate
from oracles import (det_inverse, lattice_coordinates, mat_mul, ray_matrix,
                     validate_fan_fraction)
from strategies import perfbench_gen

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
GENERATED = [((6,), ((1, 2, 3),)), ((18,), ((1, 5, 12),)),
             ((2, 2), ((1, 0, 1), (0, 1, 1)))]
SEEDS = (0, 1)


def _random_matrix(rng, n):
    """An n x n int matrix; some are singular and some need a row swap."""
    rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 0 and n > 1:
        # a combination of two rows: singular
        a, b = rng.sample(range(n), 2)
        k = rng.randint(-3, 3)
        rows[b] = [x * k for x in rows[a]]
    elif kind == 1:
        # a zero top-left entry forces a swap before the first pivot
        rows[0][0] = 0
    return rows


def test_det_adjugate_matches_the_fraction_oracle():
    rng = random.Random(26)
    seen = {"singular": 0, "swap": 0, "negative": 0}
    for _ in range(600):
        n = rng.randint(1, 5)
        rows = _random_matrix(rng, n)
        d, adj = det_adjugate(rows)
        expected, inverse = det_inverse(rows)
        assert d == expected and type(d) is int
        if inverse is None:
            assert adj is None
            seen["singular"] += 1
            continue
        assert adj == tuple(tuple(d * x for x in row) for row in inverse)
        eye = [[d * int(i == j) for j in range(n)] for i in range(n)]
        assert mat_mul(rows, adj) == eye
        assert mat_mul(adj, rows) == eye
        seen["swap"] += rows[0][0] == 0
        seen["negative"] += d < 0
    assert all(seen.values()), seen


def test_det_adjugate_goldens():
    assert det_adjugate([[5]]) == (5, ((1,),))
    assert det_adjugate([[0, 1], [1, 0]]) == (-1, ((0, -1), (-1, 0)))
    assert det_adjugate([[1, 2], [2, 4]]) == (0, None)
    assert det_adjugate([[0, 0, 1], [0, 1, 0], [0, 2, 0]]) == (0, None)
    for bad in ([], [[1, 2]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="square and non-empty"):
            det_adjugate(bad)


def _problem_fans():
    for path in sorted(PROBLEMS.glob("*.json")):
        _, fan, _ = load_problem(str(path))
        yield path.stem, fan


def _generated_fans(tmp_path):
    gen = perfbench_gen()
    path = str(tmp_path / "problem.json")
    for orders, weights in GENERATED:
        for seed in SEEDS:
            group = gen.Group(orders, weights)
            gen.write_problem(gen.crepant_fan_sl3(group, random.Random(seed)),
                              path)
            _, fan, _ = load_problem(path)
            yield f"{group.label()} seed {seed}", fan


def _mutants(fan, rng):
    """Edited copies of a fan: a ray doubled, a ray moved off the lattice,
    a cone duplicated, a cone removed, and a cone's rays permuted to a
    negative determinant."""
    vectors = [ray.vector for ray in fan.rays]
    cones = [list(cone.labels) for cone in fan.cones]
    k = rng.randrange(len(vectors))
    c = rng.randrange(len(cones))
    doubled = list(vectors)
    doubled[k] = tuple(2 * x for x in vectors[k])
    # a primitive v has v / 2 off the lattice
    halved = list(vectors)
    halved[k] = tuple(x / 2 for x in vectors[k])
    flipped = [list(cone) for cone in cones]
    d = fan.cones[c].det_adjugate[0]
    if d > 0:
        flipped[c][:2] = flipped[c][1::-1]
    yield "doubled ray", doubled, cones
    yield "ray off the lattice", halved, cones
    yield "duplicated cone", vectors, cones + [cones[c]]
    yield "removed cone", vectors, cones[:c] + cones[c + 1:]
    yield "negative determinant", vectors, flipped


def _all_fans(tmp_path):
    rng = random.Random("det-adjugate")
    for name, fan in [*_problem_fans(), *_generated_fans(tmp_path)]:
        yield name, fan
        for kind, vectors, cones in _mutants(fan, rng):
            yield f"{name}: {kind}", make_fan(fan.lattice, vectors, cones)


def _assert_dual_basis_matches(cone):
    d, inverse = det_inverse(ray_matrix(cone))
    if inverse is None or any(x.denominator != 1
                              for row in inverse for x in row):
        with pytest.raises(NotBasicError, match="not integral"):
            cone.dual_basis
    else:
        assert cone.dual_basis == tuple(
            tuple(int(x) for x in column) for column in zip(*inverse))
    assert Fraction(cone.det_adjugate[0], cone.scale) == d


def test_validate_fan_and_dual_bases_match_the_fraction_oracle(tmp_path):
    verdicts = set()
    negative = 0
    for name, fan in _all_fans(tmp_path):
        report, expected = validate_fan(fan), validate_fan_fraction(fan)
        for field in FanValidationReport._fields:
            assert getattr(report, field) == getattr(expected, field), (
                name, field)
        assert report.to_json() == expected.to_json(), name
        verdicts.add(report.passed)
        negative += any(d < 0 for d in report.cone_determinants)
        for cone in fan.cones:
            _assert_dual_basis_matches(cone)
    assert verdicts == {True, False}
    assert negative


def test_mutants_fail_for_the_named_reason(fan8):
    reports = {kind: validate_fan(make_fan(fan8.lattice, vectors, cones))
               for kind, vectors, cones in _mutants(fan8, random.Random(0))}
    assert reports["doubled ray"].ray_errors[0].endswith(
        "is not primitive in the lattice")
    assert reports["ray off the lattice"].ray_errors[0].endswith(
        "is not a lattice point")
    assert reports["duplicated cone"].face_violations
    assert reports["removed cone"].coverage is False
    assert reports["negative determinant"].passed
    assert min(reports["negative determinant"].cone_determinants) < 0


def _lattices():
    rng = random.Random("lattices")
    for _ in range(60):
        n = rng.randint(2, 4)
        orders = tuple(rng.randint(2, 9) for _ in range(rng.randint(1, 2)))
        weights = tuple(tuple(rng.randrange(d) for _ in range(n))
                        for d in orders)
        try:
            yield build_lattice(GroupData(orders, weights))
        except ValueError:
            continue


def test_lattice_coordinates_and_valuations_match_the_oracle():
    done = 0
    for lattice in _lattices():
        _, inverse = det_inverse(lattice.basis)
        for axis, row in enumerate(inverse, start=1):
            # the least c > 0 with c times the unit vector in the lattice
            assert x_valuation_on_X(lattice, axis) == Fraction(
                lcm(*(x.denominator for x in row)),
                gcd(*(x.numerator for x in row)))
        rng = random.Random(done)
        for _ in range(10):
            v = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 12))
                      for _ in range(lattice.dim))
            assert lattice_coordinates(lattice, v) == tuple(
                sum((a * b for a, b in zip(v, column)), Fraction(0))
                for column in zip(*inverse))
        done += 1
    assert done >= 20
