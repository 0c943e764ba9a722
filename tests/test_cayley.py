"""The per-group Cayley-graph table, its shortest paths and the per-ray
search, checked against Character arithmetic and brute-force and recursive
oracles on random faithful groups."""

from math import gcd

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from gconstellations import (
    GroupData,
    Ray,
    build_lattice,
    enumerate_per_ray,
    frac,
    frac_val,
    junior_simplex,
    maximal_shift_values,
    pairing,
)
from oracles import (
    enumerate_per_ray_dfs,
    monomials_of_weight,
    representative_monomial,
)

PROPERTIES = settings(max_examples=100, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.filter_too_much])


def _weights(draw, order, n):
    return tuple(draw(st.lists(st.integers(0, order - 1),
                               min_size=n, max_size=n)))


@st.composite
def faithful_groups(draw):
    """Cyclic groups of order <= 12 on C^2 or C^3, and Z/a x Z/b."""
    n = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        order = draw(st.integers(1, 12))
        weights = _weights(draw, order, n)
        assume(gcd(order, *weights) == 1)
        return GroupData.cyclic(order, weights)
    orders = (draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    group = GroupData(orders, tuple(_weights(draw, d, n) for d in orders))
    try:
        build_lattice(group)
    except ValueError:
        assume(False)
    return group


@st.composite
def group_and_ray(draw):
    group = draw(faithful_groups())
    points = junior_simplex(build_lattice(group))
    return group, Ray(1, draw(st.sampled_from(points)))


@st.composite
def group_ray_character(draw):
    group, ray = draw(group_and_ray())
    return group, ray, draw(st.sampled_from(group.characters()))


@PROPERTIES
@given(faithful_groups())
def test_steps_and_inverses_match_character_arithmetic(group):
    chars = group.characters()
    assert [group.index[c] for c in chars] == list(range(group.order))
    assert len(group.steps) == len(group.inverses) == group.order
    for i, char in enumerate(chars):
        assert [chars[t] for t in group.steps[i]] == [
            char * group.generator_character(j) for j in range(group.dim)]
        assert chars[group.inverses[i]] == char.inverse()


@PROPERTIES
@given(group_ray_character())
def test_maximal_shift_is_cheapest_monomial(case):
    group, ray, char = case
    # a cheapest path visits each character at most once, so it has fewer
    # than |G| steps and every exponent is below |G|
    cheapest = min(pairing(ray, m) for m in
                   monomials_of_weight(group, char, group.order - 1))
    assert maximal_shift_values(ray, group)[char] == cheapest


@PROPERTIES
@given(group_ray_character())
def test_frac_val_matches_representative_monomial(case):
    group, ray, char = case
    m = representative_monomial(group, char)
    assert frac_val(ray, char, group) == frac(pairing(ray, m))


@PROPERTIES
@given(group_and_ray())
def test_per_ray_search_matches_recursive_dfs(case):
    group, ray = case
    # keep the recursive oracle affordable: wide grids such as 1/11(2,0) at
    # (1, 0), 110 positions and 352,716 rows, take it minutes
    shifts = group.shortest_paths(ray.vector)
    assume(sum(shifts[i] + shifts[j] for i, j in enumerate(group.inverses))
           <= 40)
    assert enumerate_per_ray(ray, group) == enumerate_per_ray_dfs(ray, group)
