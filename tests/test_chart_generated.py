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

The Weil -> Cartier -> Weil round trip and equivalence_witness must match
the earlier Fraction versions in tests/oracles.py on every generated fan,
and cartier_to_weil must raise their exact errors: an exponent moved by an
invariant monomial on one cone (only the gluing fails), a wrong weight, a
short exponent and a character of doubled orders, also on a fan whose ray
labels fall in fan order (a gluing error lists its rays in fan order).
"""

import random
from fractions import Fraction
from math import lcm
from operator import add
from pathlib import Path

import pytest

from gconstellations import (
    Character,
    Cone,
    CongruenceViolationError,
    Fan,
    GCartierDivisor,
    GluingViolationError,
    GroupData,
    GWeilDivisor,
    NotBasicError,
    Ray,
    ReductorSet,
    canonical_family,
    cartier_to_weil,
    chart_monomial,
    enumerate_per_ray,
    equivalence_witness,
    make_fan,
    maximal_shift_family,
    quiver,
    reductor_piece,
    weil_to_cartier,
)
from gconstellations.cli import load_problem
from gconstellations.gdivisor import (
    chart_exponents,
    scaled_coefficients,
)
from oracles import (
    cartier_to_weil_fraction,
    chart_exponents_fraction,
    equivalence_witness_fraction,
    quiver_fraction,
)
from strategies import off_grid_denominator, perfbench_gen, principal_divisor

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


def _per_cone(chars, scaled, ks, fan, group):
    """chart_exponents made one call per cone, as weil_to_cartier made it
    before its one pass: the same exponents, or the same first error."""
    return tuple(m for k in ks
                 for m in chart_exponents(chars, scaled, (k,), fan, group))


def _outcome(convert, *args):
    """What convert(*args) returns, or the class and text of its
    ValueError."""
    try:
        return convert(*args)
    except ValueError as error:
        return type(error), str(error)


def _with_unit_cone(fan, j):
    """The fan with its j-th cone (0-based) spanned by the unit vectors,
    appended as new rays: a cone that is not basic when |G| > 1."""
    vectors = [ray.vector for ray in fan.rays]
    units = [tuple(int(i == r) for r in range(fan.dim))
             for i in range(fan.dim)]
    cones = [cone.labels for cone in fan.cones]
    cones[j] = tuple(range(len(vectors) + 1, len(vectors) + fan.dim + 1))
    return make_fan(fan.lattice, vectors + units, cones)


def test_one_pass_raises_the_first_error_of_the_per_cone_loop(problem):
    # every divisor, relabelled, with a coefficient off the fan or pushed
    # off the grid at each ray, alone and in the set; on the fan and on the
    # fan with each cone made not basic; over the cones in order, in
    # reverse and with an index out of range after cone 1
    group, fan, family = problem
    off = Fraction(1, off_grid_denominator(group.order))
    count = len(fan.cones)
    fans = [fan] + [_with_unit_cone(fan, j) for j in range(count)]
    orders = [range(1, count + 1), range(count, 0, -1), (1, count + 1)]
    errors = set()
    for c, divisor in enumerate(family.divisors):
        other = group.characters()[(c + 1) % group.order]
        bad = [divisor, GWeilDivisor(other, divisor.entries),
               GWeilDivisor(divisor.character,
                            divisor.entries + ((99, Fraction(1)),))]
        for ray in fan.rays:
            coeffs = divisor.as_map()
            coeffs[ray.label] = coeffs.get(ray.label, 0) + off
            bad.append(GWeilDivisor.from_map(divisor.character, coeffs))
        for d in bad:
            for divisors in ((d,), _replaced(family, c, d).divisors):
                chars = [divisor.character for divisor in divisors]
                scaled = scaled_coefficients(divisors)
                for variant in fans:
                    for ks in orders:
                        outcome = _outcome(chart_exponents, chars, scaled,
                                           ks, variant, group)
                        assert outcome == _outcome(_per_cone, chars,
                                                   scaled, ks, variant, group)
                        errors.add(outcome[0])
    assert {ValueError, NotBasicError, CongruenceViolationError} <= errors


def test_non_integral_cone_1_comes_before_a_later_cone_not_basic(g8, fan8):
    # fan8's first cone holds E7; its last cone becomes E1 E2 E3, not basic
    cones = [cone.labels for cone in fan8.cones[:-1]] + [(1, 2, 3)]
    fan = make_fan(fan8.lattice, [ray.vector for ray in fan8.rays], cones)
    good = canonical_family(fan, g8).divisors[3]
    coeffs = good.as_map()
    coeffs[7] = coeffs.get(7, 0) + Fraction(1, 3)
    pushed = GWeilDivisor.from_map(good.character, coeffs)
    assert fan.cones[0].labels == (1, 2, 7)
    assert _raised(weil_to_cartier, pushed, fan, g8) == (
        CongruenceViolationError,
        "coefficients violate the congruence invariant on rays [7]; cone 1 "
        "exponent is non-integral")
    assert _raised(weil_to_cartier, good, fan, g8) == (
        NotBasicError, "cone (1, 2, 3) is not basic: |det| = 1, expected 1/8")


def test_label_off_the_fan_raises_after_cone_1_checks(g8, fan8):
    divisor = canonical_family(fan8, g8).divisors[3]
    foreign = GWeilDivisor(divisor.character,
                           divisor.entries + ((99, Fraction(1)),))
    assert _raised(weil_to_cartier, foreign, fan8, g8) == (
        CongruenceViolationError,
        "coefficients on rays [99], which are not in the fan")
    assert _raised(chart_monomial, foreign, 9, fan8, g8) == (
        ValueError, "cone index 9 out of range 1..8")
    # cone 1 not basic: its check comes first
    cones = [(1, 2, 3)] + [cone.labels for cone in fan8.cones[1:]]
    fan = make_fan(fan8.lattice, [ray.vector for ray in fan8.rays], cones)
    assert _raised(weil_to_cartier, foreign, fan, g8) == (
        NotBasicError, "cone (1, 2, 3) is not basic: |det| = 1, expected 1/8")


def test_fan_without_cones_gives_an_empty_cartier_divisor(g8, fan8):
    fan = make_fan(fan8.lattice, [ray.vector for ray in fan8.rays], [])
    for divisor in canonical_family(fan8, g8).divisors:
        foreign = GWeilDivisor(divisor.character,
                               divisor.entries + ((99, Fraction(1)),))
        for d in (divisor, foreign):
            assert weil_to_cartier(d, fan, g8) == GCartierDivisor(
                d.character, ())


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


def _shifted(family, offset):
    """The set with offset added to every divisor."""
    return ReductorSet.from_divisors([d + offset for d in family.divisors])


def test_round_trip_and_equivalence_match_fraction_oracles(generated):
    group, fan, sets = generated
    for family in sets:
        for divisor in family.divisors:
            cartier = weil_to_cartier(divisor, fan, group)
            weil = cartier_to_weil(cartier, fan, group)
            assert weil == cartier_to_weil_fraction(cartier, fan, group)
            assert weil == divisor
            assert all(type(c) is Fraction for _, c in weil.entries)
    canonical, maxshift, first, second = sets
    # integral offsets: the divisor of an invariant monomial, and one
    # interior ray with coefficient 1, which no monomial cuts out
    invariant = (lcm(*group.orders),) * fan.dim
    principal = principal_divisor(invariant, fan, group)
    interior = next(ray for ray in fan.rays if min(ray.vector) > 0)
    single = GWeilDivisor(group.trivial_character,
                          ((interior.label, Fraction(1)),))
    pairs = [(s, s) for s in sets] + [(canonical, maxshift), (first, second)]
    expected = [True] * len(sets) + [None, None]
    for s in sets:
        pairs += [(s, _shifted(s, principal)), (s, _shifted(s, single))]
        expected += [True, False]
    for (a, b), isomorphic in zip(pairs, expected):
        result = equivalence_witness(a, b, fan, group)
        assert result == equivalence_witness_fraction(a, b, fan, group)
        if isomorphic is not None:
            assert result.equivalent and result.isomorphic == isomorphic
    assert not equivalence_witness(canonical, maxshift, fan, group).equivalent


def _raised(convert, *args):
    """The class and text of the exception that convert(*args) raises."""
    with pytest.raises(ValueError) as info:
        convert(*args)
    return type(info.value), str(info.value)


def _cartier_error_cases(group, fan, divisor):
    """(expected class, Cartier divisor) pairs, each failing one check."""
    exponents = weil_to_cartier(divisor, fan, group).exponents
    char = divisor.character
    invariant = (lcm(*group.orders),) * fan.dim
    unit = (1,) + (0,) * (fan.dim - 1)

    def moved(k, change):
        changed = list(exponents)
        changed[k] = change(changed[k])
        return GCartierDivisor(char, changed)

    doubled = Character(char.residues, tuple(2 * d for d in char.orders))
    cases = [
        (CongruenceViolationError,
         moved(len(exponents) // 2, lambda m: tuple(map(add, m, unit)))),
        (ValueError, moved(len(exponents) - 1, lambda m: m[:-1])),
        (CongruenceViolationError, GCartierDivisor(doubled, exponents)),
    ]
    if len(fan.cones) > 1:  # a single cone shares no ray
        cases.append((GluingViolationError,
                      moved(0, lambda m: tuple(map(add, m, invariant)))))
    return cases


def test_cartier_errors_match_fraction_oracle(generated):
    group, fan, sets = generated
    for family in sets[:2]:
        for divisor in family.divisors[:3]:
            for kind, cartier in _cartier_error_cases(group, fan, divisor):
                error = _raised(cartier_to_weil_fraction, cartier, fan, group)
                assert error[0] is kind
                assert _raised(cartier_to_weil, cartier, fan, group) == error


def test_cartier_errors_match_fraction_oracle_on_problems(problem):
    group, fan, family = problem
    for divisor in family.divisors:
        for kind, cartier in _cartier_error_cases(group, fan, divisor):
            error = _raised(cartier_to_weil_fraction, cartier, fan, group)
            assert error[0] is kind
            assert _raised(cartier_to_weil, cartier, fan, group) == error


def test_cartier_errors_on_labels_falling_in_fan_order():
    group, fan, _ = load_problem(str(PROBLEMS / "c8_125.json"))
    count = len(fan.rays)
    rays = {ray.label: Ray(10 * (count - i), ray.vector)
            for i, ray in enumerate(fan.rays)}
    fan = Fan(fan.lattice, tuple(rays.values()), tuple(
        Cone(tuple(rays[ray.label] for ray in cone.rays))
        for cone in fan.cones))
    for divisor in canonical_family(fan, group).divisors:
        cartier = weil_to_cartier(divisor, fan, group)
        assert cartier_to_weil(cartier, fan, group) == divisor
        assert divisor == cartier_to_weil_fraction(cartier, fan, group)
        for kind, cartier in _cartier_error_cases(group, fan, divisor):
            error = _raised(cartier_to_weil_fraction, cartier, fan, group)
            assert error[0] is kind
            assert _raised(cartier_to_weil, cartier, fan, group) == error


def test_cartier_to_weil_refuses_a_group_of_another_dimension(problem):
    group, fan, _ = problem
    other = GroupData.cyclic(group.order, (1,) * (fan.dim + 1))
    # weight-trivial exponents of the other group's length
    cartier = GCartierDivisor(other.trivial_character,
                              [(0,) * (fan.dim + 1)] * len(fan.cones))
    error = _raised(cartier_to_weil_fraction, cartier, fan, other)
    assert error == (ValueError, f"length mismatch: {fan.dim} vs {fan.dim + 1}")
    assert _raised(cartier_to_weil, cartier, fan, other) == error
