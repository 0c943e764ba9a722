"""The per-group Cayley-graph table, its shortest paths and the per-ray
search, checked against Character arithmetic and brute-force and recursive
oracles on random faithful groups."""

from hypothesis import assume, given

from gconstellations import (
    Fan,
    build_lattice,
    count_normalized,
    enumerate_per_ray,
    pairing,
)
from oracles import (
    enumerate_per_ray_dfs,
    frac,
    monomials_of_weight,
    representative_monomial,
)
from strategies import (
    PROPERTIES,
    faithful_groups,
    group_and_ray,
    group_ray_character,
    shortest_paths,
)


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
    assert shortest_paths(group, ray.scaled)[group.index[char]] == cheapest


@PROPERTIES
@given(group_ray_character())
def test_frac_val_matches_representative_monomial(case):
    group, ray, char = case
    m = representative_monomial(group, char)
    shift = shortest_paths(group, ray.scaled)[group.index[char]]
    assert frac(shift) == frac(pairing(ray, m))


@PROPERTIES
@given(group_and_ray())
def test_per_ray_search_matches_recursive_dfs(case):
    group, ray = case
    # keep the recursive oracle affordable: wide grids such as 1/11(2,0) at
    # (1, 0), 110 positions and 352,716 rows, take it minutes
    shifts = shortest_paths(group, ray.scaled)
    assume(sum(shifts[i] + shifts[j] for i, j in enumerate(group.inverses))
           <= 40)
    # the oracle keeps tuple rows whatever the library packs them as, so
    # the rows are compared as tuples and every other field as it is
    table = enumerate_per_ray(ray, group)
    oracle = enumerate_per_ray_dfs(ray, group)
    assert table.ray_label == oracle.ray_label
    assert table.characters == oracle.characters
    assert table.values == oracle.values
    assert tuple(map(tuple, table.positions)) == oracle.positions


@PROPERTIES
@given(group_and_ray())
def test_row_free_count_matches_the_table_and_the_dfs(case):
    group, ray = case
    # the same bound on the grid as above keeps the oracle affordable
    shifts = shortest_paths(group, ray.scaled)
    assume(sum(shifts[i] + shifts[j] for i, j in enumerate(group.inverses))
           <= 40)
    # a fan of the one ray, which count_normalized reads only the rays of
    count = count_normalized(Fan(build_lattice(group), (ray,), ()), group)
    assert count == len(enumerate_per_ray(ray, group).positions)
    assert count == len(enumerate_per_ray_dfs(ray, group).positions)
