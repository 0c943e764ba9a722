"""The one-pass chart layer on generated inputs and on its error paths.

Crepant SL(3) fans from the benchmark's problem generator, two insertion
orders per group: on every cone, reductor_piece, quiver and
weil_to_cartier must match their Fraction oracles for the canonical set,
the maximal-shift set and two random normalized sets, each drawn a row
per per-ray table.

A set with one bad divisor must make reductor_piece raise exactly the error
chart_monomial raises on that divisor: a coefficient pushed off the grid,
a divisor relabelled with another character (or a character of another
group), and a cone that is not basic, checked on every call. A group of
another dimension is refused as GroupData.weight refuses its exponents.
quiver needs one divisor per character in residue order; reductor_piece
takes any set.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from gconstellations import (
    Character,
    CongruenceViolationError,
    GroupData,
    GWeilDivisor,
    NotBasicError,
    ReductorSet,
    canonical_family,
    chart_monomial,
    enumerate_per_ray,
    make_fan,
    maximal_shift_family,
    quiver,
    reductor_piece,
    weil_to_cartier,
)
from gconstellations.cli import load_problem
from oracles import chart_exponents_fraction, quiver_fraction
from strategies import off_grid_denominator, perfbench_gen

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

GROUPS = [((18,), ((1, 5, 12),)), ((21,), ((1, 4, 16),)),
          ((30,), ((1, 4, 25),))]
SEEDS = (0, 1)
RANDOM_SETS = 2
STRUCTURE = "need exactly one divisor per character, sorted by residues"


@pytest.fixture(scope="module", params=[
    (orders, weights, seed) for orders, weights in GROUPS for seed in SEEDS
], ids=lambda p: f"1/{p[0][0]}{p[1][0]}-seed{p[2]}".replace(" ", ""))
def generated(request, tmp_path_factory):
    """(group, fan, sets) on a generated crepant fan: the canonical set,
    the maximal-shift set and RANDOM_SETS random normalized sets."""
    orders, weights, seed = request.param
    gen = perfbench_gen()
    path = tmp_path_factory.mktemp("fans") / "problem.json"
    gen.write_problem(gen.crepant_fan_sl3(gen.Group(orders, weights),
                                          random.Random(seed)), str(path))
    group, fan, report = load_problem(str(path))
    assert report.passed
    rng = random.Random(seed)
    tables = [enumerate_per_ray(ray, group) for ray in fan.rays]
    sets = [canonical_family(fan, group), maximal_shift_family(fan, group)]
    for _ in range(RANDOM_SETS):
        rows = [rng.choice(t.positions) for t in tables]
        sets.append(ReductorSet(tuple(
            GWeilDivisor.from_map(char, {
                t.ray_label: t.values[c][p[c]] for t, p in zip(tables, rows)})
            for c, char in enumerate(group.characters())
        )))
    return group, fan, sets


def test_generated_fans_match_fraction_oracles(generated):
    group, fan, sets = generated
    assert len(fan.cones) == group.order
    for family in sets:
        # expected[k][i]: the i-th divisor's exponent on the k-th cone
        expected = [chart_exponents_fraction(cone, fan.lattice, [
            [divisor.coefficient(ray.label) for ray in cone.rays]
            for divisor in family.divisors]) for cone in fan.cones]
        for k, cone in enumerate(fan.cones):
            piece = reductor_piece(family, cone, fan, group)
            assert list(piece.exponents) == expected[k]
            assert quiver(family, cone, fan, group) == quiver_fraction(
                family, cone, fan, group)
        for divisor, m in zip(family.divisors, zip(*expected)):
            assert weil_to_cartier(divisor, fan, group).exponents == m


@pytest.fixture(scope="module", params=["c8_125", "c3_111", "ab22_axes"])
def problem(request):
    """(group, fan, canonical set) of a problem file; ab22_axes has two
    cyclic factors."""
    group, fan, _ = load_problem(str(PROBLEMS / f"{request.param}.json"))
    return group, fan, canonical_family(fan, group)


def _error(build, *args):
    """The class and text of the CongruenceViolationError or NotBasicError
    that build(*args) raises."""
    with pytest.raises((CongruenceViolationError, NotBasicError)) as info:
        build(*args)
    return type(info.value), str(info.value)


def _replaced(family, c, divisor):
    divisors = list(family.divisors)
    divisors[c] = divisor
    return ReductorSet(tuple(divisors))


def test_off_grid_divisor_raises_chart_monomial_error(problem):
    group, fan, family = problem
    off = Fraction(1, off_grid_denominator(group.order))
    for k, cone in enumerate(fan.cones, start=1):
        for ray in cone.rays:
            for c, divisor in enumerate(family.divisors):
                coeffs = divisor.as_map()
                coeffs[ray.label] = coeffs.get(ray.label, 0) + off
                pushed = GWeilDivisor.from_map(divisor.character, coeffs)
                error = _error(chart_monomial, pushed, k, fan, group)
                assert error == (CongruenceViolationError, (
                    f"coefficients violate the congruence invariant on rays "
                    f"[{ray.label}]; cone {k} exponent is non-integral"))
                assert _error(reductor_piece, _replaced(family, c, pushed),
                              cone, fan, group) == error


def test_wrong_weight_divisor_raises_chart_monomial_error(problem):
    group, fan, family = problem
    foreign_orders = tuple(2 * d for d in group.orders)
    for k, cone in enumerate(fan.cones, start=1):
        for c, divisor in enumerate(family.divisors):
            exponent = chart_monomial(divisor, k, fan, group)
            weight = divisor.character
            others = [char for char in group.characters() if char != weight]
            # the same residues in a group of other orders are another
            # character too
            others.append(Character(weight.residues, foreign_orders))
            for char in others:
                relabelled = GWeilDivisor(char, divisor.entries)
                error = _error(chart_monomial, relabelled, k, fan, group)
                assert error == (CongruenceViolationError, (
                    f"cone {k} exponent {exponent} has weight "
                    f"{weight.name}, expected {char.name}"))
                assert _error(reductor_piece,
                              _replaced(family, c, relabelled),
                              cone, fan, group) == error


def test_non_basic_cone_raises_on_every_call(problem):
    group, fan, family = problem
    # the cone of the standard basis has determinant 1, not 1/|G|
    units = [tuple(int(i == j) for j in range(fan.dim))
             for i in range(fan.dim)]
    one_cone = make_fan(fan.lattice, units, [tuple(range(1, fan.dim + 1))])
    cone = one_cone.cones[0]
    divisor = family.divisors[-1]
    error = _error(chart_monomial, divisor, 1, one_cone, group)
    assert error == (NotBasicError, (
        f"cone {cone.labels} is not basic: |det| = 1, "
        f"expected 1/{group.order}"))
    for _ in range(3):
        assert _error(reductor_piece, family, cone, one_cone, group) == error
        assert _error(weil_to_cartier, divisor, one_cone, group) == error


@pytest.mark.parametrize("change", ["missing", "reversed"])
def test_quiver_needs_one_divisor_per_character_in_order(problem, change):
    group, fan, family = problem
    if change == "missing":
        divisors = family.divisors[:-1]
    else:
        divisors = family.divisors[::-1]
    broken = ReductorSet(divisors)
    for k, cone in enumerate(fan.cones, start=1):
        with pytest.raises(ValueError) as info:
            quiver(broken, cone, fan, group)
        assert str(info.value) == STRUCTURE
        # reductor_piece takes any set, divisor by divisor
        piece = reductor_piece(broken, cone, fan, group)
        assert piece.characters == broken.characters
        assert piece.exponents == tuple(
            chart_monomial(d, k, fan, group) for d in divisors)


def test_group_of_another_dimension_is_refused(problem):
    group, fan, family = problem
    other = GroupData.cyclic(group.order, (1,) * (fan.dim + 1))
    for cone in fan.cones:
        with pytest.raises(ValueError,
                           match=f"exponent must have length {fan.dim + 1}"):
            reductor_piece(family, cone, fan, other)
