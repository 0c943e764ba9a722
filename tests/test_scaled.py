"""The set operations that run on scaled integers, checked against their
Fraction oracles on random faithful groups: shortest paths,
check_reductor, bounds_check, lambda_shift, reflect, the streamed sets
and the JSONL stream of `gcon enumerate`, on valid sets and on sets
perturbed off the grid, onto an unknown ray, past a bound, out of normal
form, out of residue order or onto a character of another group, and
with a lambda of another group."""

import argparse
import contextlib
import io
import json
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gconstellations import (
    Fan,
    GroupData,
    GWeilDivisor,
    NormalizedEnumeration,
    Ray,
    ReductorSet,
    bounds_check,
    build_lattice,
    canonical_family,
    check_reductor,
    enumerate_normalized,
    enumerate_per_ray,
    junior_simplex,
    lambda_shift,
    reductor_set_to_json,
    reflect,
)
from gconstellations.cli import cmd_enumerate
from oracles import (
    bounds_check_fraction,
    check_reductor_fraction,
    lambda_shift_fraction,
    reflect_fraction,
    sets_fraction,
    shortest_paths_fraction,
)
from strategies import (
    PROPERTIES,
    faithful_groups,
    off_grid_denominator,
    shortest_paths,
)

PERTURBATIONS = ("none", "off_grid", "unknown_ray", "upper", "lower",
                 "trivial", "missing", "unsorted")


@st.composite
def group_and_fan(draw):
    """A faithful group and one to three distinct junior rays with shuffled
    labels. The fan has no cones: the set operations read only its rays."""
    group = draw(faithful_groups())
    lattice = build_lattice(group)
    vectors = draw(st.lists(st.sampled_from(junior_simplex(group)),
                            min_size=1, max_size=3, unique=True))
    labels = draw(st.permutations(range(1, len(vectors) + 1)))
    rays = tuple(Ray(label, v) for label, v in zip(labels, vectors))
    for ray in rays:
        # keep each per-ray table small
        shifts = shortest_paths(group, ray.scaled)
        assume(sum(shifts[i] + shifts[j]
                   for i, j in enumerate(group.inverses)) <= 40)
    return group, Fan(lattice, rays, ())


@st.composite
def perturbed_sets(draw, kind):
    """(group, fan, set): a normalized set drawn row by row from the
    per-ray tables, then changed as kind says: at one coefficient, in its
    divisor order or in one divisor's character."""
    group, fan = draw(group_and_fan())
    chars = group.characters()
    tables = [enumerate_per_ray(ray, group) for ray in fan.rays]
    rows = [draw(st.sampled_from(t.rows)) for t in tables]
    coeffs = [{t.ray_label: row[c] for t, row in zip(tables, rows)}
              for c in range(len(chars))]
    c = draw(st.integers(min(1, len(chars) - 1), len(chars) - 1))
    ray = draw(st.sampled_from(fan.rays))
    shifts = shortest_paths(group, ray.scaled)
    n = lcm(*group.orders)
    p = off_grid_denominator(n)
    if kind == "off_grid":
        # 1/n is off the grid of a ray whose denominator is smaller than n
        coeffs[c][ray.label] += draw(st.sampled_from(
            (Fraction(1, p), Fraction(1, n), Fraction(-1, p))))
    elif kind == "unknown_ray":
        coeffs[c][max(r.label for r in fan.rays) + 1] = draw(st.sampled_from(
            (Fraction(1, n), Fraction(1), Fraction(1, p))))
    elif kind == "upper":
        coeffs[c][ray.label] = shifts[c] + draw(st.integers(1, 3))
    elif kind == "lower":
        coeffs[c][ray.label] = (-shifts[group.inverses[c]]
                                - draw(st.integers(1, 3)))
    elif kind == "trivial":
        coeffs[0][ray.label] = Fraction(draw(st.sampled_from((-1, 1))))
    divisors = [GWeilDivisor.from_map(char, cm)
                for char, cm in zip(chars, coeffs)]
    if kind == "missing" and len(divisors) > 1:
        del divisors[c]
    elif kind == "unsorted":
        divisors.reverse()
    elif kind == "foreign_character":
        divisors[c] = GWeilDivisor(_doubled(group).character(
            chars[c].residues), divisors[c].entries)
    return group, fan, ReductorSet(tuple(divisors))


def _doubled(group) -> GroupData:
    """The group's weights under doubled orders: a group of the same
    dimension whose characters share residues with the group's."""
    return GroupData(tuple(2 * d for d in group.orders), group.weights)


def _labels_out_of_fan_order():
    """1/8(1,2,5) on three junior rays whose labels run 3, 1, 2 in fan
    order, built through the API."""
    group = GroupData.cyclic(8, (1, 2, 5))
    rays = tuple(Ray(label, v) for label, v
                 in zip((3, 1, 2), junior_simplex(group)[3:6]))
    return group, Fan(build_lattice(group), rays, ())


LABELS_OUT_OF_FAN_ORDER = _labels_out_of_fan_order()


def _outcome(operation, *args):
    try:
        return operation(*args)
    except (KeyError, ValueError) as exc:
        return type(exc)


def _exact(family) -> bool:
    return all(type(q) is Fraction
               for d in family.divisors for _, q in d.entries)


# each kind of perturbation gets its own 30 examples
SHORT = settings(PROPERTIES, max_examples=30)


@pytest.mark.parametrize("kind", PERTURBATIONS)
@SHORT
@given(data=st.data())
def test_checks_match_fraction_oracles(kind, data):
    group, fan, family = data.draw(perturbed_sets(kind))
    report = check_reductor(family, fan, group)
    bounds = bounds_check(family, fan, group)
    # identical reports: the same tuples in the same order
    assert report == check_reductor_fraction(family, fan, group)
    assert bounds == bounds_check_fraction(family, fan, group)
    if kind == "none":
        assert report.passed and bounds.passed


@pytest.mark.parametrize("kind", PERTURBATIONS + ("foreign_lambda",
                                                  "foreign_character"))
@SHORT
@given(data=st.data())
def test_reflect_and_shift_match_fraction_oracles(kind, data):
    group, fan, family = data.draw(perturbed_sets(kind))
    reflected = _outcome(reflect, family)
    assert reflected == _outcome(reflect_fraction, family)
    if isinstance(reflected, ReductorSet):
        assert _exact(reflected)
        assert reflect(reflected) == ReductorSet.from_divisors(
            family.divisors)
    lams = group.characters()
    if kind == "foreign_lambda":
        lams = _doubled(group).characters()
    for lam in lams:
        shifted = _outcome(lambda_shift, family, lam)
        assert shifted == _outcome(lambda_shift_fraction, family, lam)
        if isinstance(shifted, ReductorSet):
            assert _exact(shifted)


@PROPERTIES
@example(LABELS_OUT_OF_FAN_ORDER)
@given(group_and_fan())
def test_streamed_sets_match_fraction_oracle(case):
    group, fan = case
    tables = tuple(enumerate_per_ray(ray, group) for ray in fan.rays)
    enumeration = NormalizedEnumeration(
        group, tables, prod(len(t.rows) for t in tables))
    streamed = list(enumeration.sets(limit=40))
    assert streamed == list(sets_fraction(enumeration, 40))
    for family in streamed:
        # entries in normal form: sorted labels, no zeros, exact values
        for d in family.divisors:
            assert d == GWeilDivisor(d.character, d.entries)
        assert _exact(family)


def _stream(group, fan, limit) -> str:
    """What `gcon enumerate --limit limit` writes on the problem."""
    args = argparse.Namespace(count_only=False, per_ray=False, limit=limit)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cmd_enumerate(args, group, fan, None) == 0
    return out.getvalue()


@PROPERTIES
@example(LABELS_OUT_OF_FAN_ORDER)
@given(group_and_fan())
def test_stream_lines_are_json_of_fraction_oracle_sets(case):
    group, fan = case
    enumeration = enumerate_normalized(fan, group)
    # past the count the Fraction oracle lists every set
    assume(enumeration.count <= 2000)
    for limit in (0, 1, 40, enumeration.count + 1):
        assert _stream(group, fan, limit) == "".join(
            json.dumps(reductor_set_to_json(family)) + "\n"
            for family in sets_fraction(enumeration, limit))


COSTS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_value=3, max_denominator=12),
)


@PROPERTIES
@given(faithful_groups(), st.data())
def test_shortest_paths_match_fraction_dijkstra(group, data):
    costs = tuple(data.draw(st.lists(COSTS, min_size=group.dim,
                                     max_size=group.dim)))
    scale, ints = Ray(1, costs).scaled
    paths = shortest_paths(group, (scale, ints))
    assert paths == shortest_paths_fraction(group, costs)
    assert all(type(d) is Fraction for d in paths)
    scaled = group.scaled_paths((scale, ints))
    assert scale == lcm(*(c.denominator for c in costs))
    assert scaled == tuple(d * scale for d in paths)


@SHORT
@given(faithful_groups(), st.data())
def test_shortest_paths_reject_a_negative_cost(group, data):
    costs = list(data.draw(st.lists(COSTS, min_size=group.dim,
                                    max_size=group.dim)))
    costs[data.draw(st.integers(0, group.dim - 1))] = -data.draw(
        st.fractions(min_value=0, max_value=3, max_denominator=12).filter(
            bool))
    with pytest.raises(ValueError, match=">= 0"):
        group.scaled_paths(Ray(1, costs).scaled)


@PROPERTIES
@given(faithful_groups(), st.data())
def test_character_product_and_inverse_match_group_character(group, data):
    chars = group.characters()
    a = data.draw(st.sampled_from(chars))
    b = data.draw(st.sampled_from(chars))
    product = group.character(
        tuple(x + y for x, y in zip(a.residues, b.residues)))
    inverse = group.character(tuple(-x for x in a.residues))
    assert a * b == product and hash(a * b) == hash(product)
    assert a.inverse() == inverse and hash(a.inverse()) == hash(inverse)
    assert {a * b: 1}[product] == 1


def test_off_grid_coefficient_is_reported_exactly(g8, fan8):
    # 1/3 lies outside (1/8)Z: scaled by 8 it stays an exact Fraction
    canonical = canonical_family(fan8, g8)
    divisors = list(canonical.divisors)
    chi_1 = divisors[1]
    divisors[1] = GWeilDivisor.from_map(
        chi_1.character, {**chi_1.as_map(), 4: chi_1.coefficient(4)
                          + Fraction(1, 3)})
    family = ReductorSet(tuple(divisors))
    report = check_reductor(family, fan8, g8)
    assert report == check_reductor_fraction(family, fan8, g8)
    assert report.congruence_violations == ((chi_1.character, 4),)
    assert bounds_check(family, fan8, g8) == bounds_check_fraction(
        family, fan8, g8)
