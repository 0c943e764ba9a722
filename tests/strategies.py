"""Hypothesis strategies shared by the property tests: random faithful
diagonal actions of small abelian groups, with a junior ray and a
character, and random actions that need not be faithful. Also three
builders of test inputs, the denominator that pushes a coefficient off
the grid, the principal divisor of a monomial and the benchmark's problem
generator, and `shortest_paths`, the library's scaled shortest paths as
Fractions."""

import importlib.util
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from gconstellations import (
    GroupData,
    GWeilDivisor,
    Ray,
    build_lattice,
    junior_simplex,
    pairing,
)

PROPERTIES = settings(max_examples=100, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.filter_too_much])


def off_grid_denominator(n: int) -> int:
    """The least prime not dividing n: 1/p lies outside (1/n)Z."""
    p = 2
    while n % p == 0 or any(p % k == 0 for k in range(2, p)):
        p += 1
    return p


def principal_divisor(m, fan, group) -> GWeilDivisor:
    """The divisor of the monomial x^m on the fan's rays."""
    return GWeilDivisor.from_map(
        group.weight(m),
        {ray.label: pairing(ray, m) for ray in fan.rays},
    )


def perfbench_gen():
    """The benchmark's problem generator, which the package does not
    import, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen",
        Path(__file__).resolve().parent.parent / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def shortest_paths(group, scaled) -> tuple[Fraction, ...]:
    """group.scaled_paths(scaled) divided by D, for scaled = (D, ints)."""
    return tuple(Fraction(n, scaled[0]) for n in group.scaled_paths(scaled))


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
def any_groups(draw):
    """One to three cyclic factors of order <= 60 on C^1 to C^4, faithful
    or not."""
    n = draw(st.integers(1, 4))
    orders = tuple(draw(st.lists(st.integers(1, 60), min_size=1,
                                 max_size=3)))
    return GroupData(orders, tuple(_weights(draw, d, n) for d in orders))


@st.composite
def group_and_ray(draw):
    group = draw(faithful_groups())
    points = junior_simplex(group)
    return group, Ray(1, draw(st.sampled_from(points)))


@st.composite
def group_ray_character(draw):
    group, ray = draw(group_and_ray())
    return group, ray, draw(st.sampled_from(group.characters()))
