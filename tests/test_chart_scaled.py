"""The chart layer on scaled integers, checked against its Fraction oracles
on every cone of every problem file: pairings, chart exponents, reductor
pieces, quivers and the Weil -> Cartier -> Weil round trip. The sets are
the canonical one, the maximal-shift one and random normalized ones drawn
a row per per-ray table; coefficients pushed off the grid by 1/p must give
no exponent, as before."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from gconstellations import (
    CongruenceViolationError,
    GroupData,
    GWeilDivisor,
    ReductorSet,
    canonical_family,
    cartier_to_weil,
    chart_monomial,
    enumerate_normalized,
    maximal_shift_family,
    pairing,
    quiver,
    reductor_piece,
    weil_to_cartier,
)
from gconstellations import family as family_module
from gconstellations import gdivisor
from gconstellations.cli import load_problem
from gconstellations.gdivisor import chart_exponents
from oracles import chart_exponents_fraction, pairing_fraction, quiver_fraction
from strategies import off_grid_denominator

PROBLEMS = sorted(
    (Path(__file__).resolve().parent.parent / "problems").glob("*.json"))

RANDOM_SETS = 8


@pytest.fixture(scope="module", params=PROBLEMS, ids=lambda path: path.stem)
def case(request):
    """(group, fan, sets): the problem with the canonical set, the
    maximal-shift set and RANDOM_SETS random normalized sets."""
    group, fan, _ = load_problem(str(request.param))
    rng = random.Random(request.param.stem)
    tables = enumerate_normalized(fan, group).tables
    sets = [canonical_family(fan, group), maximal_shift_family(fan, group)]
    for _ in range(RANDOM_SETS):
        rows = [rng.choice(t.rows) for t in tables]
        sets.append(ReductorSet(tuple(
            GWeilDivisor.from_map(char, {
                t.ray_label: row[c] for t, row in zip(tables, rows)})
            for c, char in enumerate(group.characters())
        )))
    return group, fan, sets


def _divisors(sets):
    return [d for family in sets for d in family.divisors]


def test_pairing_matches_exact_dot(case):
    group, fan, _ = case
    rng = random.Random(0)
    for ray in fan.rays:
        for _ in range(20):
            m = tuple(rng.randint(-9, 9) for _ in range(fan.dim))
            value = pairing(ray, m)
            assert type(value) is Fraction
            assert value == pairing_fraction(ray, m)
        # a Fraction exponent takes the exact dot product
        m = tuple(Fraction(rng.randint(-9, 9), 7) for _ in range(fan.dim))
        assert pairing(ray, m) == pairing_fraction(ray, m)
        with pytest.raises(ValueError, match="length mismatch"):
            pairing(ray, (1,) * (fan.dim + 1))


def test_chart_exponents_match_fraction_oracle(case):
    group, fan, sets = case
    for divisor in _divisors(sets):
        for k, cone in enumerate(fan.cones, start=1):
            coefficients = [divisor.coefficient(ray.label)
                            for ray in cone.rays]
            exponent = chart_monomial(divisor, k, fan, group)
            assert all(type(x) is int for x in exponent)
            assert [exponent] == chart_exponents_fraction(
                cone, fan.lattice, [coefficients])


def test_one_pass_over_cones_and_divisors_matches_fraction_oracle(
        case, monkeypatch):
    # every divisor of a set on every cone in one call, the cones in
    # reverse, once more from the first: exponents cone by cone, then
    # divisor by divisor
    group, fan, sets = case
    ks = [*range(len(fan.cones), 0, -1), 1]
    # the walks that name a failure call GroupData.weight; on valid
    # divisors neither chart_exponents nor cartier_to_weil walks
    walked = []
    weight = GroupData.weight

    def counted(self, m):
        walked.append(m)
        return weight(self, m)

    monkeypatch.setattr(GroupData, "weight", counted)
    for family in sets:
        for divisor in family.divisors:
            cartier = weil_to_cartier(divisor, fan, group)
            assert cartier_to_weil(cartier, fan, group) == divisor
        exponents = chart_exponents(family.characters, family.scaled, ks,
                                    fan, group)
        assert exponents == tuple(
            m for k in ks for m in chart_exponents_fraction(
                fan.cones[k - 1], fan.lattice, [
                    [d.coefficient(ray.label) for ray in fan.cones[k - 1].rays]
                    for d in family.divisors]))
    assert not walked


def test_one_chart_exponents_call_per_conversion(case, monkeypatch):
    group, fan, sets = case
    calls = []
    original = gdivisor.chart_exponents

    def counted(chars, scaled, ks, fan, group):
        calls.append((len(chars), list(ks)))
        return original(chars, scaled, ks, fan, group)

    monkeypatch.setattr(gdivisor, "chart_exponents", counted)
    monkeypatch.setattr(family_module, "chart_exponents", counted)
    every = list(range(1, len(fan.cones) + 1))
    for divisor in sets[0].divisors:
        weil_to_cartier(divisor, fan, group)
        chart_monomial(divisor, every[-1], fan, group)
    assert calls == [(1, every), (1, every[-1:])] * len(sets[0].divisors)
    calls.clear()
    for family in sets[:2]:
        for k, cone in enumerate(fan.cones, start=1):
            reductor_piece(family, cone, fan, group)
            assert calls.pop() == (len(family.divisors), [k])
            assert not calls


def test_off_grid_coefficients_give_no_exponent(case):
    group, fan, sets = case
    off = Fraction(1, off_grid_denominator(group.order))
    for divisor in _divisors(sets[:3]):
        for k, cone in enumerate(fan.cones, start=1):
            for ray in cone.rays:
                coeffs = divisor.as_map()
                coeffs[ray.label] = coeffs.get(ray.label, 0) + off
                pushed = GWeilDivisor.from_map(divisor.character, coeffs)
                coefficients = [pushed.coefficient(r.label)
                                for r in cone.rays]
                assert chart_exponents_fraction(
                    cone, fan.lattice, [coefficients]) == [None]
                with pytest.raises(CongruenceViolationError,
                                   match=f"cone {k} exponent is non-integral"):
                    chart_monomial(pushed, k, fan, group)


def test_pieces_and_quivers_match_fraction_oracle(case):
    group, fan, sets = case
    for family in sets:
        for cone in fan.cones:
            piece = reductor_piece(family, cone, fan, group)
            assert list(piece.exponents) == chart_exponents_fraction(
                cone, fan.lattice, [
                    [d.coefficient(ray.label) for ray in cone.rays]
                    for d in family.divisors])
            rep = quiver(family, cone, fan, group)
            assert rep == quiver_fraction(family, cone, fan, group)
            assert all(type(c) is Fraction
                       for arrow in rep.arrows
                       for c in arrow.cone_coordinates)


def test_weil_cartier_round_trip_matches_fraction_oracle(case):
    group, fan, sets = case
    for divisor in _divisors(sets):
        cartier = weil_to_cartier(divisor, fan, group)
        assert cartier.exponents == tuple(
            chart_exponents_fraction(cone, fan.lattice, [[
                divisor.coefficient(ray.label) for ray in cone.rays]])[0]
            for cone in fan.cones
        )
        weil = cartier_to_weil(cartier, fan, group)
        assert weil == divisor
        assert all(type(c) is Fraction for _, c in weil.entries)
        for cone, m in zip(fan.cones, cartier.exponents):
            for ray in cone.rays:
                assert pairing_fraction(ray, m) == weil.coefficient(
                    ray.label)
