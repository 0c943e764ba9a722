"""The facet-adjacency certificate of validate_fan against the pairwise
face search, on perturbations of every problem file's fan."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from gconstellations import build_lattice, make_fan, validate_fan
from gconstellations.cli import load_problem
from oracles import crepant_by_junior_set, det_inverse, ray_matrix
from pairwise_oracle import pairwise_face_violations

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
PROBLEM_FILES = sorted(PROBLEMS.glob("*.json"))
PERTURBATIONS = 100


def _load(path):
    """Lattice, ray vectors and cone label lists of a problem file."""
    _, fan, _ = load_problem(str(path))
    return fan.lattice, [r.vector for r in fan.rays], [
        list(c.labels) for c in fan.cones
    ]


def _perturb(rng, cones, ray_count, dim):
    """One random edit of a cone list: drop, duplicate, reorder in place,
    append a reordered copy, swap one ray, or add a random cone."""
    cones = [list(c) for c in cones]
    if not cones:
        return "add", [rng.sample(range(1, ray_count + 1), dim)]
    k = rng.randrange(len(cones))
    kind = rng.choice(
        ["drop", "duplicate", "reorder", "reordered copy", "swap", "add"]
    )
    if kind == "drop":
        del cones[k]
    elif kind == "duplicate":
        cones.append(list(cones[k]))
    elif kind == "reorder":
        rng.shuffle(cones[k])
    elif kind == "reordered copy":
        copy = list(cones[k])
        rng.shuffle(copy)
        cones.append(copy)
    elif kind == "swap":
        cones[k][rng.randrange(dim)] = rng.randrange(1, ray_count + 1)
    else:
        cones.append(rng.sample(range(1, ray_count + 1), dim))
    return kind, cones


def _volume(fan):
    """Normalized volume of the cones' cross-sections with sum(x) = 1."""
    total = Fraction(0)
    for cone in fan.cones:
        scale = Fraction(1)
        for ray in cone.rays:
            scale *= sum(ray.vector)
        total += abs(det_inverse(ray_matrix(cone))[0]) / scale
    return total


def _expected_verdict(fan):
    basic = all(abs(det_inverse(ray_matrix(c))[0]) == fan.lattice.covolume
                for c in fan.cones)
    distinct = len({frozenset(c.labels) for c in fan.cones}) == len(fan.cones)
    # the quadratic oracle runs last, only on fans that pass the cheap tests
    return (basic and distinct and _volume(fan) == 1
            and not pairwise_face_violations(fan))


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.stem)
def test_problem_fans_pass_both_checks(path):
    lattice, rays, cones = _load(path)
    fan = make_fan(lattice, rays, cones)
    report = validate_fan(fan)
    assert report.passed and report.coverage is True
    assert _expected_verdict(fan)


@pytest.mark.parametrize("path", PROBLEM_FILES, ids=lambda p: p.stem)
def test_certificate_matches_pairwise_oracle(path):
    lattice, rays, cones = _load(path)
    rng = random.Random(f"fan-certificate:{path.stem}")
    verdicts = {True: 0, False: 0}
    for _ in range(PERTURBATIONS):
        edited, kinds = cones, []
        for _ in range(rng.randint(1, 2)):
            kind, edited = _perturb(rng, edited, len(rays), lattice.dim)
            kinds.append(kind)
        fan = make_fan(lattice, rays, edited)
        report = validate_fan(fan)
        expected = _expected_verdict(fan)
        assert report.passed == expected, (kinds, edited)
        if report.passed:
            assert report.coverage is True
            assert report.crepant == crepant_by_junior_set(fan)
        verdicts[expected] += 1
    # the sample exercises both verdicts
    assert verdicts[True] and verdicts[False]


def test_duplicate_cone_fails(g2):
    # one cone listed twice in reverse order, the cone (3, 2) left out
    lattice = build_lattice(g2)
    rays = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(1, 2), Fraction(1, 2))]
    report = validate_fan(make_fan(lattice, rays, [(1, 3), (3, 1)]))
    assert not report.passed
    assert report.face_violations == ((1, 2),)


def test_gapped_non_junior_fan_fails(g4):
    # the cone (1, 3) covers only half of the quadrant
    lattice = build_lattice(g4)
    rays = [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(1, 4), Fraction(1, 2))]
    report = validate_fan(make_fan(lattice, rays, [(1, 3)]))
    assert not report.passed
    assert report.coverage is False
    assert not report.face_violations


def test_cones_on_a_boundary_facet_fail(g2):
    # (1, 3) and (1, 4) both sit on the boundary facet {1}, same side
    lattice = build_lattice(g2)
    rays = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
            (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), Fraction(1, 2))]
    report = validate_fan(make_fan(lattice, rays, [(1, 3), (3, 2), (1, 4)]))
    assert (1, 3) in report.face_violations
    assert not report.passed


def test_unmatched_interior_facet_fails(fan8):
    # (3, 4, 7) replaces (3, 4, 6): eight basic cones of volume 1 and no
    # facet shared on one side, but the interior facet {3, 7} lies in one
    # cone only, and the cones overlap
    cones = [c.labels for c in fan8.cones]
    cones[4] = (3, 4, 7)
    fan = make_fan(fan8.lattice, [r.vector for r in fan8.rays], cones)
    report = validate_fan(fan)
    assert not report.face_violations
    assert report.coverage is False
    assert pairwise_face_violations(fan)
