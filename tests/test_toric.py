"""Overlattice, fan, junior simplex and validation."""

from fractions import Fraction as Q
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given

from gconstellations import (
    CongruenceViolationError,
    GroupData,
    GWeilDivisor,
    NotBasicError,
    build_lattice,
    canonical_family,
    cartier_to_weil,
    chart_monomial,
    discrepancy,
    junior_simplex,
    make_fan,
    maximal_shift_family,
    pairing,
    quiver,
    reductor_piece,
    validate_fan,
    weil_to_cartier,
    x_valuation_on_X,
)
from gconstellations import exact
from gconstellations.cli import load_problem
from gconstellations.toric import Cone, Fan, LatticeL, Ray
from oracles import junior_by_closure
from strategies import PROPERTIES, faithful_groups

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_build_lattice_golden_8_125(g8):
    lat = build_lattice(g8)
    assert lat.basis == (
        (Q(1, 8), Q(1, 4), Q(5, 8)),
        (Q(0), Q(1), Q(0)),
        (Q(0), Q(0), Q(1)),
    )
    assert lat.index == 8
    assert lat.covolume == Q(1, 8)


def test_lattice_membership(g8):
    # a vector is in the lattice when its coordinates in the basis rows
    # (1/8, 1/4, 5/8), e2, e3 are integers
    lat = build_lattice(g8)
    assert lat.coordinates((Q(1, 8), Q(2, 8), Q(5, 8))) == (1, 0, 0)
    assert lat.coordinates((1, 0, 0)) == (8, -2, -5)
    assert lat.coordinates((Q(1, 8), Q(1, 8), Q(1, 8))) == (
        1, Q(-1, 8), Q(-1, 2))
    # doubling the generator stays inside
    assert lat.coordinates((Q(2, 8), Q(4, 8), Q(10, 8))) == (2, 0, 0)


def test_lattice_primitivity(fan8):
    assert validate_fan(fan8).ray_errors == ()
    for vector, error in [
        ((Q(2, 8), Q(4, 8), Q(10, 8)), "E4 is not primitive in the lattice"),
        # off the lattice: coordinates (1, -1/8, -1/2), which int() would
        # read as the primitive (1, 0, 0)
        ((Q(1, 8), Q(1, 8), Q(1, 8)), "E4 is not a lattice point"),
    ]:
        vectors = [ray.vector for ray in fan8.rays]
        vectors[3] = vector
        fan = make_fan(fan8.lattice, vectors, [c.labels for c in fan8.cones])
        assert validate_fan(fan).ray_errors == (error,)


def test_build_lattice_small_groups(g2, g3, g31, g4, g1):
    for g in (g2, g3, g31, g4, g1):
        lat = build_lattice(g)
        assert lat.index == g.order


def test_build_lattice_rejects_non_faithful():
    with pytest.raises(ValueError):
        build_lattice(GroupData.cyclic(4, (2, 2)))


def test_junior_simplex_golden_8_125(g8):
    points = junior_simplex(g8)
    eighth = [
        (Q(1), Q(0), Q(0)),
        (Q(0), Q(1), Q(0)),
        (Q(0), Q(0), Q(1)),
        (Q(1, 8), Q(2, 8), Q(5, 8)),
        (Q(2, 8), Q(4, 8), Q(2, 8)),
        (Q(4, 8), Q(0), Q(4, 8)),
        (Q(5, 8), Q(2, 8), Q(1, 8)),
    ]
    assert list(points) == eighth


def test_junior_simplex_small_cases(g2, g3, g31, g4, g1):
    assert len(junior_simplex(g2)) == 3
    assert len(junior_simplex(g3)) == 4
    assert (Q(1, 3), Q(1, 3), Q(1, 3)) in junior_simplex(g31)
    assert len(junior_simplex(g31)) == 4
    # quasi-reflection case: no interior junior point at all
    assert len(junior_simplex(g4)) == 2
    assert junior_simplex(g1) == ((Q(1),),)


@pytest.mark.parametrize("group, interior", [
    # c4_12: the element 2 is a quasi-reflection, and no point is junior
    (GroupData.cyclic(4, (1, 2)), ()),
    # not in SL(3): only the element 3 has age 1
    (GroupData.cyclic(6, (1, 2, 5)), ((Q(1, 2), Q(0), Q(1, 2)),)),
    # Z/2 x Z/3 over S = 6, listed in another order than sorted
    (GroupData((2, 3), ((1, 1, 0), (0, 1, 2))),
     ((Q(0), Q(1, 3), Q(2, 3)), (Q(0), Q(2, 3), Q(1, 3)),
      (Q(1, 2), Q(1, 6), Q(1, 3)), (Q(1, 2), Q(1, 2), Q(0)))),
], ids=["c4_12", "non_sl", "two_factors"])
def test_junior_simplex_explicit_cases(group, interior):
    points = junior_simplex(group)
    assert points[group.dim:] == interior
    assert points == junior_by_closure(build_lattice(group))


@pytest.mark.parametrize("group", [
    # one junior element, k = 100000, among 200000
    GroupData.cyclic(200000, (1, 1)),
    # acts through Z/2: the elements 1 and 3 both give (1/2, 1/2)
    GroupData.cyclic(4, (2, 2)),
], ids=["huge", "unfaithful"])
def test_junior_simplex_units_and_midpoint(group):
    assert junior_simplex(group) == (
        (Q(1), Q(0)), (Q(0), Q(1)), (Q(1, 2), Q(1, 2)))


@PROPERTIES
@given(faithful_groups())
def test_junior_simplex_matches_the_closure(group):
    assert junior_simplex(group) == junior_by_closure(build_lattice(group))


def test_discrepancy():
    assert discrepancy((Q(1, 8), Q(2, 8), Q(5, 8))) == 0
    assert discrepancy((Q(1, 2), Q(0))) == Q(-1, 2)
    assert discrepancy((1, 1, 1)) == 2


def test_is_crepant(fan8, fan2, fan3, fan31, fan4, fan1):
    assert validate_fan(fan8).crepant
    assert validate_fan(fan2).crepant
    assert validate_fan(fan3).crepant
    assert validate_fan(fan31).crepant
    assert not validate_fan(fan4).crepant
    assert validate_fan(fan1).crepant


def test_pairing(fan8):
    e4 = fan8.rays[3]
    assert pairing(e4, (1, 0, 0)) == Q(1, 8)
    assert pairing(e4, (0, 1, 1)) == Q(7, 8)
    assert pairing(e4, (Q(1, 2), 0, 0)) == Q(1, 16)


def test_pairing_rejects_float_exponent(fan8):
    # a float has no exact value, so no exact valuation
    with pytest.raises(ValueError):
        pairing(fan8.rays[3], (0.5, 0, 0))


def test_pairing_rejects_bool_exponent(fan8):
    # True would count as 1
    with pytest.raises(ValueError):
        pairing(fan8.rays[3], (True, 0, 0))


def test_dual_basis_goldens(fan8):
    cone456 = next(c for c in fan8.cones if set(c.labels) == {4, 5, 6})
    duals = cone456.dual_basis
    assert set(duals) == {(-2, 0, 2), (1, 2, -1), (2, -1, 0)}
    # dual vectors hit delta_ij against the cone's own rays, in order
    for j, v in enumerate(duals):
        for i, ray in enumerate(cone456.rays):
            assert pairing(ray, v) == int(i == j)
    cone567 = next(c for c in fan8.cones if set(c.labels) == {5, 6, 7})
    duals2 = cone567.dual_basis
    assert set(duals2) == {(0, -1, 2), (-1, 2, 1), (2, 0, -2)}


def test_dual_basis_every_cone(fan8):
    for cone in fan8.cones:
        for j, v in enumerate(cone.dual_basis):
            for i, ray in enumerate(cone.rays):
                assert pairing(ray, v) == int(i == j)


def test_dual_basis_rejects_non_basic(g8, fan8):
    lat = build_lattice(g8)
    # e1, e2, e3 span the unresolved quotient cone of normalized volume 1
    bad = Cone(fan8.rays[:3])
    # |det| is the covolume, but the inverse has the entry 1/2
    skewed = Cone((Ray(1, (Q(1, 16), Q(0), Q(0))), Ray(2, (0, 2, 0)),
                   Ray(3, (0, 0, 1))))
    # bad's inverse is integral, so only the covolume check rejects it
    assert bad.dual_basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    zero = GWeilDivisor(g8.trivial_character, ())
    # chart_monomial checks the cone on every call, not only the first
    for _ in range(3):
        with pytest.raises(NotBasicError, match="is not basic"):
            chart_monomial(zero, 1, Fan(lat, bad.rays, (bad,)), g8)
        with pytest.raises(NotBasicError, match="not integral"):
            chart_monomial(zero, 1, Fan(lat, skewed.rays, (skewed,)), g8)


def test_each_dual_basis_built_once(monkeypatch):
    built = []
    original = Cone.dual_basis.func

    def counted(cone):
        built.append(cone.labels)
        return original(cone)

    counted_property = cached_property(counted)
    counted_property.__set_name__(Cone, "dual_basis")
    monkeypatch.setattr(Cone, "dual_basis", counted_property)
    group, fan, _ = load_problem(str(PROBLEMS / "c8_125.json"))
    families = (canonical_family(fan, group), maximal_shift_family(fan, group))
    for family in families:
        for divisor in family.divisors:
            cartier_to_weil(weil_to_cartier(divisor, fan, group), fan, group)
        for cone in fan.cones:
            reductor_piece(family, cone, fan, group)
            quiver(family, cone, fan, group)
    assert sorted(built) == sorted(cone.labels for cone in fan.cones)


def test_chart_exponent(g8, fan8):
    k, cone = next((k, c) for k, c in enumerate(fan8.cones, start=1)
                   if set(c.labels) == {4, 5, 6})
    m = (3, -1, 2)
    divisor = GWeilDivisor.from_map(
        g8.weight(m), {ray.label: pairing(ray, m) for ray in cone.rays})
    assert chart_monomial(divisor, k, fan8, g8) == m
    trivial = g8.trivial_character
    assert chart_monomial(GWeilDivisor(trivial, ()), k, fan8, g8) == (0, 0, 0)
    # a single 1/3 is not congruent to any valuation along a ray of 1/8 Z
    third = GWeilDivisor(trivial, ((cone.rays[0].label, Q(1, 3)),))
    with pytest.raises(CongruenceViolationError,
                       match=f"cone {k} exponent is non-integral"):
        chart_monomial(third, k, fan8, g8)


def test_each_matrix_eliminated_once(monkeypatch):
    calls = []
    original = exact.det_inverse

    def counted(matrix):
        calls.append(matrix)
        return original(matrix)

    monkeypatch.setattr(exact, "det_inverse", counted)
    group, fan, _ = load_problem(str(PROBLEMS / "c8_125.json"))
    validate_fan(fan)
    family = canonical_family(fan, group)
    for divisor in family.divisors:
        weil_to_cartier(divisor, fan, group)
    for cone in fan.cones:
        reductor_piece(family, cone, fan, group)
    # one elimination per cone, plus one for the lattice basis
    assert len(calls) == len(fan.cones) + 1


def test_x_valuation_goldens(g8, g3, g4):
    lat8 = build_lattice(g8)
    assert [x_valuation_on_X(lat8, i) for i in (1, 2, 3)] == [1, 1, 1]
    assert x_valuation_on_X(build_lattice(g3), 1) == 1
    lat4 = build_lattice(g4)
    assert x_valuation_on_X(lat4, 1) == Q(1, 2)
    assert x_valuation_on_X(lat4, 2) == 1
    with pytest.raises(ValueError):
        x_valuation_on_X(lat8, 0)
    with pytest.raises(ValueError):
        x_valuation_on_X(lat8, 4)


@pytest.mark.parametrize("axis", [True, False, 1.0, Q(1), "1", None])
def test_x_valuation_rejects_non_int_axis(g8, axis):
    # True would read axis 1, 1.0 would raise TypeError on the index
    with pytest.raises(ValueError, match="must be an int in 1..3"):
        x_valuation_on_X(build_lattice(g8), axis)


def test_validate_fan_running_example(fan8):
    report = validate_fan(fan8)
    assert report.passed
    assert report.crepant
    assert report.coverage is True
    assert not report.warnings
    assert all(abs(d) == Q(1, 8) for d in report.cone_determinants)
    assert len(report.cone_determinants) == 8


def test_validate_fan_small_fans(fan2, fan3, fan31, fan1):
    for fan in (fan2, fan3, fan31, fan1):
        report = validate_fan(fan)
        assert report.passed
        assert report.coverage is True


def test_validate_fan_non_junior_rays_warn(fan4):
    # coverage is certified by volume, so non-junior rays need no warning
    report = validate_fan(fan4)
    assert report.passed
    assert not report.crepant
    assert report.coverage is True
    assert not report.warnings


def test_validate_fan_flags_nonbasic_cone(g8, fan8):
    lat = build_lattice(g8)
    rays = [r.vector for r in fan8.rays]
    cones = [c.labels for c in fan8.cones[:-1]] + [(1, 2, 3)]
    fan = make_fan(lat, rays, cones)
    report = validate_fan(fan)
    assert not report.passed
    assert 8 in report.nonbasic_cones


def test_validate_fan_flags_overlapping_cones(g2):
    lat = build_lattice(g2)
    rays = [("1", "0"), ("0", "1"), ("1/2", "1/2"), ("3/2", "1/2")]
    vectors = [tuple(Q(x) for x in r) for r in rays]
    # cone (3,4) is basic but sits inside cone (1,3): not a common face
    fan = make_fan(lat, vectors, [(1, 3), (3, 2), (3, 4)])
    report = validate_fan(fan)
    assert (1, 3) in report.face_violations
    assert not report.passed


def test_validate_fan_flags_non_primitive_ray(g8):
    lat = build_lattice(g8)
    rays = [("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"),
            ("2/8", "4/8", "10/8")]
    vectors = [tuple(Q(x) for x in r) for r in rays]
    fan = make_fan(lat, vectors, [(1, 2, 3)])
    report = validate_fan(fan)
    assert report.ray_errors
    assert not report.passed


def test_validate_fan_coverage_counts_cones(g31):
    # crepant rays but one chart missing: junior rays with wrong cone count
    lat = build_lattice(g31)
    rays = [("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"),
            ("1/3", "1/3", "1/3")]
    vectors = [tuple(Q(x) for x in r) for r in rays]
    fan = make_fan(lat, vectors, [(1, 2, 4), (2, 3, 4)])
    report = validate_fan(fan)
    assert report.coverage is False
    assert not report.passed


def test_make_fan_rejects_unknown_ray(g2):
    lat = build_lattice(g2)
    with pytest.raises(ValueError):
        make_fan(lat, [(Q(1), Q(0)), (Q(0), Q(1))], [(1, 5)])


def test_lattice_rejects_bad_bases():
    with pytest.raises(ValueError, match="singular"):
        LatticeL(((Q(1), Q(0)), (Q(2), Q(0))))
    with pytest.raises(ValueError,
                       match=r"1/\|det\| = 1/2 is not an integer"):
        LatticeL(((Q(2), Q(0)), (Q(0), Q(1))))


def test_lattice_rejects_basis_missing_unit_vectors():
    # index 1, but (0, 1) is not an integer combination of the rows
    with pytest.raises(ValueError, match="inverse basis is not integral"):
        LatticeL(((Q(1, 2), Q(0)), (Q(0), Q(2))))


@pytest.mark.parametrize("bad", [0.1, True, False, "1/8", "1e200000000",
                                 None])
def test_vectors_reject_inexact_entries(fan8, bad):
    # Fraction(0.1) would store 3602879701896397/36028797018963968,
    # Fraction(True) 1 and Fraction("1e200000000") a 200-million-digit int
    lattice = fan8.lattice
    vector = (bad, 0, 0)
    with pytest.raises(ValueError, match="int or Fraction"):
        Ray(1, vector)
    with pytest.raises(ValueError, match="int or Fraction"):
        make_fan(lattice, [vector, (0, 1, 0), (0, 0, 1)], [(1, 2, 3)])
    with pytest.raises(ValueError, match="int or Fraction"):
        LatticeL((vector, (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError, match="int or Fraction"):
        lattice.coordinates(vector)


@pytest.mark.parametrize("vector", [(1, 0), (1, 0, 0, 0)])
def test_rays_of_the_wrong_length_rejected(fan8, vector):
    # validate_fan would raise IndexError on the short ray, and coordinates
    # would ignore the fourth entry of the long one
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), vector]
    with pytest.raises(ValueError, match="^every ray needs 3 coordinates$"):
        make_fan(fan8.lattice, rays, [(1, 2, 3)])
    with pytest.raises(ValueError, match="^length mismatch: 3 vs "):
        fan8.lattice.coordinates(vector)


def test_fan_rejects_duplicate_and_unknown_rays(g2):
    lat = build_lattice(g2)
    x, y = Ray(1, (Q(1), Q(0))), Ray(2, (Q(0), Q(1)))
    with pytest.raises(ValueError, match="duplicate ray labels"):
        Fan(lat, (x, Ray(1, (Q(0), Q(1)))), ())
    with pytest.raises(ValueError, match="cone uses unknown ray 3"):
        Fan(lat, (x, y), (Cone((x, Ray(3, (Q(1, 2), Q(1, 2))))),))


def test_ray_and_cone_structs():
    ray = Ray(3, (Q(1, 2), Q(1, 2)))
    assert ray.name == "E3"
    cone = Cone((ray, Ray(1, (Q(1), Q(0)))))
    assert cone.labels == (3, 1)
    assert cone.matrix[0] == (Q(1, 2), Q(1, 2))
