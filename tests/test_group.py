"""Group data, characters and the weight map."""

import random
from enum import IntEnum
from fractions import Fraction

import pytest

from gconstellations import (
    Character,
    GCartierDivisor,
    GroupData,
    GWeilDivisor,
    Ray,
    build_lattice,
    make_fan,
)
from oracles import monomials_of_weight, representative_monomial
from strategies import shortest_paths


def test_character_reduction_and_algebra():
    g = GroupData.cyclic(8, (1, 2, 5))
    a = g.character((11,))
    assert a.residues == (3,)
    b = g.character((6,))
    assert (a * b).residues == (1,)
    assert a.inverse().residues == (5,)
    assert (a * a.inverse()).is_trivial
    assert g.trivial_character.is_trivial


def test_character_names():
    g = GroupData.cyclic(8, (1, 2, 5))
    assert g.character((3,)).name == "chi_3"
    h = GroupData((2, 2), ((1, 0), (0, 1)))
    assert h.character((1, 0)).name == "chi_(1,0)"
    assert h.character((1, 0)).to_json() == [1, 0]


def test_character_mismatched_groups_rejected():
    a = GroupData.cyclic(2, (1, 1)).trivial_character
    b = GroupData.cyclic(3, (1, 2)).trivial_character
    with pytest.raises(ValueError):
        a * b


@pytest.mark.parametrize("residues, orders, message", [
    ((1, 2), (3,), "equal length"),
    ((1,), (2, 2), "equal length"),
    ((1,), (0,), ">= 1"),
    ((0, 1), (2, -1), ">= 1"),
    ((1.5,), (8,), "must be integers"),
    ((True,), (2,), "must be integers"),
    (("1",), (8,), "must be integers"),
    ((1,), (8.0,), "must be integers"),
])
def test_character_rejects_bad_orders(residues, orders, message):
    # zip would drop the extra entries, r % 0 would raise ZeroDivisionError,
    # r % -1 would give 0, 1.5 % 8 would keep 1.5 and True % 2 would give 1
    with pytest.raises(ValueError, match=message):
        Character(residues, orders)


def test_group_order_dim_and_weight_reduction():
    g = GroupData.cyclic(8, (9, 2, 5))
    assert g.order == 8
    assert g.dim == 3
    assert g.weights == ((1, 2, 5),)
    h = GroupData((2, 2), ((1, 0), (0, 1)))
    assert h.order == 4
    assert h.dim == 2


def test_special_linear_flag():
    assert GroupData.cyclic(8, (1, 2, 5)).is_special_linear
    assert GroupData.cyclic(3, (1, 1, 1)).is_special_linear
    assert not GroupData.cyclic(4, (1, 2)).is_special_linear
    assert not GroupData((2, 2), ((1, 0), (0, 1))).is_special_linear


def test_characters_enumeration_order():
    g = GroupData.cyclic(3, (1, 2))
    assert [c.residues for c in g.characters()] == [(0,), (1,), (2,)]
    h = GroupData((2, 2), ((1, 0), (0, 1)))
    assert [c.residues for c in h.characters()] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert h.characters()[0].is_trivial


def test_weight_map():
    g = GroupData.cyclic(8, (1, 2, 5))
    assert g.weight((1, 0, 0)) == g.character((1,))
    assert g.weight((0, 1, 0)) == g.character((2,))
    assert g.weight((0, 0, 1)) == g.character((5,))
    assert g.weight((1, 1, 1)).residues == (0,)
    # Laurent exponents are fine
    assert g.weight((-1, 0, 0)) == g.character((7,))
    with pytest.raises(ValueError):
        g.weight((1, 0))


@pytest.mark.parametrize("entry", [0.5, 1.0, True, Fraction(1), "1"])
def test_weight_rejects_non_int_exponents(entry):
    with pytest.raises(ValueError):
        GroupData.cyclic(8, (1, 2, 5)).weight((entry, 0, 0))


def test_generator_characters():
    g = GroupData.cyclic(8, (1, 2, 5))
    assert [g.generator_character(j).residues for j in range(3)] == [
        (1,), (2,), (5,)]


def test_representative_monomials_cover_all_characters():
    for g in (GroupData.cyclic(8, (1, 2, 5)),
              GroupData.cyclic(3, (1, 2)),
              GroupData((2, 2), ((1, 0), (0, 1)))):
        # unit step costs: the shortest path to chi is the least degree of
        # a weight-chi monomial, the degree of the breadth-first oracle's
        unit = shortest_paths(g, (1, (1,) * g.dim))
        for char in g.characters():
            m = representative_monomial(g, char)
            assert g.weight(m) == char
            assert all(0 <= e <= g.order for e in m)
            assert unit[g.index[char]] == sum(m)


def test_representative_monomial_random_consistency():
    rng = random.Random(5)
    g = GroupData.cyclic(8, (1, 2, 5))
    unit = shortest_paths(g, (1, (1,) * 3))
    for _ in range(100):
        m = tuple(rng.randint(0, 20) for _ in range(3))
        char = g.weight(m)
        rep = representative_monomial(g, char)
        assert g.weight(rep) == char
        assert unit[g.index[char]] == sum(rep) <= sum(m)


def test_validate_rejects_non_surjective_weights():
    # weights (2,2) mod 4 only reach even characters
    g = GroupData.cyclic(4, (2, 2))
    with pytest.raises(ValueError, match="not surjective"):
        build_lattice(g)
    with pytest.raises(ValueError, match="not surjective"):
        shortest_paths(g, (1, (1, 1)))
    with pytest.raises(ValueError):
        representative_monomial(g, g.character((1,)))


def test_validate_accepts_faithful_actions():
    for g in (GroupData.cyclic(8, (1, 2, 5)),
              GroupData((2, 2), ((1, 0), (0, 1))),
              GroupData.cyclic(1, (0,))):
        assert build_lattice(g).index == g.order
        assert len(shortest_paths(g, (1, (1,) * g.dim))) == g.order


def test_monomials_of_weight_oracle():
    g = GroupData.cyclic(3, (1, 2))
    mons = list(monomials_of_weight(g, g.character((0,)), 2))
    assert (0, 0) in mons
    assert (1, 1) in mons
    assert all(g.weight(m).is_trivial for m in mons)


def test_group_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GroupData((), ())
    with pytest.raises(ValueError):
        GroupData((2, 2), ((1, 0),))
    with pytest.raises(ValueError):
        GroupData((2,), ((),))


@pytest.mark.parametrize("orders, weights", [
    ((3.7,), ((1.9, True, 1),)),
    ((3,), ((1, True, 1),)),
    ((True,), ((0, 0),)),
    ((3,), ((Fraction(1), 1, 1),)),
    (("3",), ((1, 1, 1),)),
    ((2, 2), ((1, 0), (0, 1.0))),
])
def test_group_constructor_rejects_non_integers(orders, weights):
    # int() would read 3.7 as 3, 1.9 and True as 1 and build 1/3(1,1,1)
    with pytest.raises(ValueError, match="must be integers"):
        GroupData(orders, weights)


def test_group_constructor_rejects_int_subclasses():
    # an IntEnum order would pass here and fail later in Character
    order = IntEnum("Order", {"EIGHT": 8}).EIGHT
    with pytest.raises(ValueError, match="must be integers"):
        GroupData((order,), ((1, 2, 5),))
    with pytest.raises(ValueError, match="must be integers"):
        GroupData((8,), ((order, 2, 5),))


@pytest.mark.parametrize("bad", [4.7, 1.9, 3.2, True, Fraction(4), "a"])
def test_fan_and_divisor_constructors_reject_non_integers(g8, fan8, bad):
    # int() would read a cone index 4.7 as 4, an exponent 1.9 as 1 and a
    # ray label 3.2 as 3
    rays = [ray.vector for ray in fan8.rays]
    with pytest.raises(ValueError, match="integers"):
        Ray(bad, (1, 0, 0))
    with pytest.raises(ValueError, match="integer"):
        make_fan(fan8.lattice, rays, [(1, 2, bad)])
    with pytest.raises(ValueError, match="integers"):
        GCartierDivisor(g8.trivial_character, ((bad, 0, 0),))
    with pytest.raises(ValueError, match="integers"):
        GWeilDivisor(g8.trivial_character, ((bad, Fraction(1, 8)),))


def test_shortest_paths_rejects_negative_costs():
    # a negative cost cycle has no shortest path; Dijkstra would never stop
    with pytest.raises(ValueError, match=">= 0"):
        shortest_paths(GroupData.cyclic(3, (1, 2)), (1, (-1, 2)))


def test_scaled_paths_is_the_one_cached_form():
    g = GroupData.cyclic(8, (1, 2, 5))
    ray = Ray(4, (Fraction(1, 8), Fraction(1, 4), Fraction(5, 8)))
    first = g.scaled_paths(ray.scaled)
    assert g.scaled_paths(ray.scaled) is first
    # an equal pair from another ray object hits the same entry
    assert g.scaled_paths(Ray(4, ray.vector).scaled) is first
    scale, _ = ray.scaled
    assert shortest_paths(g, ray.scaled) == tuple(
        Fraction(n, scale) for n in first)


def test_characters_is_a_fresh_list_of_the_index():
    g = GroupData((2, 4), ((1, 0), (0, 1)))
    chars = g.characters()
    assert chars == list(g.index)
    assert chars is not g.characters()
    chars.pop()
    assert g.characters() == list(g.index)
