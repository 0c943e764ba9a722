"""Reductor sets: canonical and maximal-shift families, enumeration,
shifts, bounds, chart pieces, quivers, equivalence."""

import itertools
import re
from fractions import Fraction, Fraction as Q
from math import lcm
from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gconstellations import (
    CongruenceViolationError,
    GroupData,
    GWeilDivisor,
    PerRayTable,
    Ray,
    ReductorSet,
    bounds_check,
    build_lattice,
    canonical_family,
    check_reductor,
    enumerate_normalized,
    enumerate_per_ray,
    equivalence_witness,
    lambda_shift,
    maximal_shift_family,
    monomial_string,
    make_fan,
    pairing,
    quiver,
    quiver_to_dot,
    reductor_piece,
    reductor_set_from_json,
    reductor_set_to_json,
    reflect,
    weil_to_cartier,
)
from gconstellations import family as family_module
from gconstellations.cli import load_problem
from gconstellations.toric import Cone
from oracles import (
    enumerate_per_ray_dfs,
    equivalence_witness_fraction,
    lambda_shift_fraction,
    monomials_of_weight,
    reflect_fraction,
    sets_fraction,
)
from strategies import PROPERTIES, principal_divisor, shortest_paths
from test_scaled import (
    LABELS_OUT_OF_FAN_ORDER,
    PERTURBATIONS,
    SHORT,
    _outcome,
    group_and_fan,
    perturbed_sets,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def rows_of(fan, group, label):
    return set(enumerate_per_ray(fan.rays[label - 1], group).rows)


def eighth(*rows):
    return {tuple(Q(v, 8) for v in row) for row in rows}


def coefficient_table(family, labels):
    return {
        d.character.residues: tuple(d.coefficient(k) for k in labels)
        for d in family.divisors
    }


def brute_force_rows(ray, group):
    """Every congruent vector inside the shift window, checked directly."""
    chars = group.characters()
    shifts = shortest_paths(group, ray.scaled)
    axes = []
    for i, char in enumerate(chars):
        low, high = -shifts[group.inverses[i]], shifts[i]
        vals = []
        v = low
        while v <= high:
            vals.append(v)
            v += 1
        axes.append(vals)
    gens = [(group.generator_character(j), ray.vector[j])
            for j in range(group.dim)]
    index = {c: i for i, c in enumerate(chars)}
    good = []
    for combo in itertools.product(*axes):
        if all(combo[i] + cost - combo[index[c * g]] >= 0
               for i, c in enumerate(chars) for g, cost in gens):
            good.append(combo)
    return set(good)


# canonical and maximal-shift goldens ------------------------------------

CANONICAL_8 = {
    (0,): (0, 0, 0, 0),
    (1,): (Q(1, 8), Q(2, 8), Q(4, 8), Q(5, 8)),
    (2,): (Q(2, 8), Q(4, 8), 0, Q(2, 8)),
    (3,): (Q(3, 8), Q(6, 8), Q(4, 8), Q(7, 8)),
    (4,): (Q(4, 8), 0, 0, Q(4, 8)),
    (5,): (Q(5, 8), Q(2, 8), Q(4, 8), Q(1, 8)),
    (6,): (Q(6, 8), Q(4, 8), 0, Q(6, 8)),
    (7,): (Q(7, 8), Q(6, 8), Q(4, 8), Q(3, 8)),
}


def test_canonical_family_golden(g8, fan8):
    fam = canonical_family(fan8, g8)
    assert fam.is_normalized
    assert coefficient_table(fam, (4, 5, 6, 7)) == CANONICAL_8
    # nothing on the coordinate axes
    assert coefficient_table(fam, (1, 2, 3)) == {
        c.residues: (0, 0, 0) for c in g8.characters()
    }


def test_maximal_shift_golden(g8, fan8):
    fam = maximal_shift_family(fan8, g8)
    expected = dict(CANONICAL_8)
    expected[(4,)] = (Q(4, 8), Q(1), 0, Q(4, 8))
    assert coefficient_table(fam, (4, 5, 6, 7)) == expected
    assert fam.is_normalized


def test_maximal_shift_e5_minima(g8, fan8):
    minima = shortest_paths(g8, fan8.rays[4].scaled)
    assert minima == tuple(Q(v, 8) for v in (0, 2, 4, 6, 8, 2, 4, 6))


def test_maximal_shift_matches_monomial_minima(g8, fan8):
    # oracle: explicit minimum over weight-chi monomials in a box
    for ray in fan8.rays:
        shifts = shortest_paths(g8, ray.scaled)
        for char in g8.characters():
            oracle = min(pairing(ray, m)
                         for m in monomials_of_weight(g8, char, 8))
            assert shifts[g8.index[char]] == oracle


def test_canonical_and_maxshift_pass_checks(g8, fan8):
    for fam in (canonical_family(fan8, g8), maximal_shift_family(fan8, g8)):
        assert check_reductor(fam, fan8, g8).passed
        assert bounds_check(fam, fan8, g8).passed


def test_check_reductor_structure_errors(g8, fan8):
    fam = canonical_family(fan8, g8)
    broken = ReductorSet(fam.divisors[1:])
    report = check_reductor(broken, fan8, g8)
    assert report.structure_errors
    assert not report.passed


def test_check_reductor_flags_congruence(g8, fan8):
    fam = canonical_family(fan8, g8)
    divisors = list(fam.divisors)
    bad = GWeilDivisor.from_map(g8.character((1,)), {4: Q(1, 3)})
    divisors[1] = bad
    report = check_reductor(ReductorSet(tuple(divisors)), fan8, g8)
    assert (g8.character((1,)), 4) in report.congruence_violations
    assert not report.passed


def test_check_reductor_flags_condition(g8, fan8):
    fam = canonical_family(fan8, g8)
    divisors = list(fam.divisors)
    # raise D_{chi_1} on E4 by 1: multiplication by x out of chi_0 now fails
    old = divisors[1]
    divisors[1] = GWeilDivisor.from_map(
        old.character,
        {**old.as_map(), 4: old.coefficient(4) + 1},
    )
    report = check_reductor(ReductorSet(tuple(divisors)), fan8, g8)
    assert (g8.character((0,)), 1, 4) in report.condition_violations
    assert not report.passed
    assert report.to_json()["condition_violations"]


def test_check_reductor_small_fans(g2, fan2, g3, fan3, g31, fan31):
    for g, fan in ((g2, fan2), (g3, fan3), (g31, fan31)):
        assert check_reductor(canonical_family(fan, g), fan, g).passed


# per-ray tables ---------------------------------------------------------

E4_ROWS = eighth(
    (0, 1, 2, 3, 4, 5, 6, 7),
    (0, 1, 2, 3, 4, 5, 6, -1),
    (0, 1, 2, 3, 4, 5, -2, -1),
    (0, 1, 2, 3, 4, -3, -2, -1),
    (0, 1, 2, 3, -4, -3, -2, -1),
    (0, 1, 2, -5, -4, -3, -2, -1),
    (0, 1, -6, -5, -4, -3, -2, -1),
    (0, -7, -6, -5, -4, -3, -2, -1),
)

E5_ROWS = eighth(
    (0, 2, 4, 6, 8, 2, 4, 6),
    (0, 2, 4, 6, 0, 2, 4, 6),
    (0, 2, 4, -2, 0, 2, 4, 6),
    (0, 2, 4, 6, 0, 2, 4, -2),
    (0, 2, 4, -2, 0, 2, 4, -2),
    (0, 2, -4, -2, 0, 2, 4, -2),
    (0, 2, 4, -2, 0, 2, -4, -2),
    (0, 2, -4, -2, 0, 2, -4, -2),
    (0, -6, -4, -2, 0, 2, -4, -2),
    (0, 2, -4, -2, 0, -6, -4, -2),
    (0, -6, -4, -2, 0, -6, -4, -2),
    (0, -6, -4, -2, -8, -6, -4, -2),
)

E6_ROWS = eighth(
    (0, 4, 0, 4, 0, 4, 0, 4),
    (0, -4, 0, -4, 0, -4, 0, -4),
)

# the chain with chi_5 raised alone completes the published seven: the
# collection must be closed under the reflection q -> -q reversed
E7_ROWS = eighth(
    (0, 5, 2, 7, 4, 1, 6, 3),
    (0, 5, 2, -1, 4, 1, 6, 3),
    (0, 5, 2, -1, 4, 1, -2, 3),
    (0, -3, 2, -1, 4, 1, -2, 3),
    (0, -3, 2, -1, -4, 1, -2, 3),
    (0, -3, 2, -1, -4, 1, -2, -5),
    (0, -3, -6, -1, -4, 1, -2, -5),
    (0, -3, -6, -1, -4, -7, -2, -5),
)


def test_per_ray_tables_exceptional(g8, fan8):
    assert rows_of(fan8, g8, 4) == E4_ROWS
    assert rows_of(fan8, g8, 5) == E5_ROWS
    assert rows_of(fan8, g8, 6) == E6_ROWS
    assert rows_of(fan8, g8, 7) == E7_ROWS


def test_per_ray_tables_axes_are_trivial(g8, fan8):
    for label in (1, 2, 3):
        table = enumerate_per_ray(fan8.rays[label - 1], g8)
        assert table.rows == (tuple(Q(0) for _ in range(8)),)


def test_per_ray_matches_brute_force(g8, fan8):
    for ray in fan8.rays:
        assert rows_of(fan8, g8, ray.label) == brute_force_rows(ray, g8)


def test_per_ray_rows_sorted_and_deduplicated(g8, fan8):
    table = enumerate_per_ray(fan8.rays[6], g8)
    assert list(table.rows) == sorted(set(table.rows))
    assert table.ray_label == 7
    assert [c.residues for c in table.characters] == [
        (k,) for k in range(8)]


def test_per_ray_rows_are_positions_into_values(g8, fan8):
    for ray in fan8.rays:
        table = enumerate_per_ray(ray, g8)
        assert all(list(v) == sorted(set(v)) for v in table.values)
        assert all(0 <= i < len(v) for p in table.positions
                   for v, i in zip(table.values, p))
        assert "rows" not in vars(table)
        assert table.rows == tuple(
            tuple(v[i] for v, i in zip(table.values, p))
            for p in table.positions)
        assert table.rows is table.rows


def test_sets_read_positions_not_rows(g8, fan8):
    enum = enumerate_normalized(fan8, g8)
    assert len(list(enum.sets(limit=100))) == 100
    assert not any("rows" in vars(t) for t in enum.tables)


def test_per_ray_rows_are_bytes_up_to_256_candidates(g8, fan8):
    for ray in fan8.rays:
        table = enumerate_per_ray(ray, g8)
        assert all(len(v) <= 256 for v in table.values)
        assert all(type(p) is bytes for p in table.positions)


@pytest.mark.parametrize("a, packed", [(Q(255, 2), bytes), (Q(128), tuple),
                                       (Q(300), tuple)])
def test_per_ray_rows_are_tuples_past_256_candidates(a, packed):
    # 1/2(1,1) at (a, a): the nontrivial character has the 2a + 1
    # candidates -a..a, and past 256 a position does not fit in a byte
    group, ray = GroupData.cyclic(2, (1, 1)), Ray(1, (a, a))
    table = enumerate_per_ray(ray, group)
    assert max(map(len, table.values)) == 2 * a + 1
    assert {type(p) for p in table.positions} == {packed}
    assert set(table.rows) == brute_force_rows(ray, group)
    oracle = enumerate_per_ray_dfs(ray, group)
    assert tuple(map(tuple, table.positions)) == oracle.positions
    assert (table == oracle) is (packed is tuple)


def test_per_ray_packing_is_part_of_the_record(g8, fan8):
    table = enumerate_per_ray(fan8.rays[6], g8)
    unpacked = PerRayTable(table.ray_label, table.characters, table.values,
                           tuple(map(tuple, table.positions)))
    assert unpacked.rows == table.rows
    assert unpacked != table
    assert hash(table) == hash(enumerate_per_ray(fan8.rays[6], g8))


def test_per_ray_reflection_closure(g8, fan8):
    # reflection acts rowwise; every table must be closed under it
    chars = g8.characters()
    idx = {c: i for i, c in enumerate(chars)}
    for ray in fan8.rays:
        rows = rows_of(fan8, g8, ray.label)
        for row in rows:
            mirrored = tuple(-row[idx[c.inverse()]] for c in chars)
            assert mirrored in rows


def test_per_ray_small_groups(g2, fan2, g3, fan3, g31, fan31):
    half = {(Q(0), Q(1, 2)), (Q(0), Q(-1, 2))}
    assert rows_of(fan2, g2, 3) == half
    third = {(0, Q(1, 3), Q(2, 3)), (0, Q(1, 3), Q(-1, 3)),
             (0, Q(-2, 3), Q(-1, 3))}
    assert rows_of(fan3, g3, 3) == third
    mirror = {(0, Q(2, 3), Q(1, 3)), (0, Q(-1, 3), Q(1, 3)),
              (0, Q(-1, 3), Q(-2, 3))}
    assert rows_of(fan3, g3, 4) == mirror
    assert rows_of(fan31, g31, 4) == third


def test_per_ray_brute_force_small(g2, fan2, g3, fan3, g31, fan31, g4, fan4):
    for g, fan in ((g2, fan2), (g3, fan3), (g31, fan31), (g4, fan4)):
        for ray in fan.rays:
            assert rows_of(fan, g, ray.label) == brute_force_rows(ray, g)



def test_per_ray_rejects_ray_off_the_lattice(g2):
    # (1/3, 0) is not in L for 1/2(1,1): the step bound along x_1 from
    # chi_0 to chi_1 is 1/3, so the candidate grids are not congruent
    with pytest.raises(ValueError, match="not congruent"):
        enumerate_per_ray(Ray(9, (Q(1, 3), Q(0))), g2)


# full enumeration -------------------------------------------------------

def test_enumeration_counts(g2, fan2, g3, fan3, g31, fan31, g4, fan4,
                            g1, fan1):
    assert enumerate_normalized(fan2, g2).count == 2
    assert enumerate_normalized(fan3, g3).count == 9
    assert enumerate_normalized(fan31, g31).count == 3
    assert enumerate_normalized(fan4, g4).count == 8
    assert enumerate_normalized(fan1, g1).count == 1


def test_enumeration_count_is_product_of_tables(g8, fan8):
    enum = enumerate_normalized(fan8, g8)
    sizes = [len(t.rows) for t in enum.tables]
    assert sizes == [1, 1, 1, 8, 12, 2, 8]
    assert enum.count == 1536


def test_enumeration_streams_valid_sets(g3, fan3):
    enum = enumerate_normalized(fan3, g3)
    sets = list(enum.sets())
    assert len(sets) == enum.count
    keys = {tuple(d.entries for d in s.divisors) for s in sets}
    assert len(keys) == enum.count
    for s in sets:
        assert s.is_normalized
        assert check_reductor(s, fan3, g3).passed
        assert bounds_check(s, fan3, g3).passed


def test_enumeration_limit(g8, fan8):
    enum = enumerate_normalized(fan8, g8)
    firsts = list(enum.sets(limit=5))
    assert len(firsts) == 5
    assert all(check_reductor(s, fan8, g8).passed for s in firsts)
    assert list(enum.sets(limit=0)) == []


def test_enumeration_trivial_group(g1, fan1):
    (only,) = list(enumerate_normalized(fan1, g1).sets())
    assert only.is_normalized
    assert all(not d.entries for d in only.divisors)
    # no nonzero coefficient: the column map is empty and the rows that
    # reflect and lambda_shift read have no columns to transpose
    assert only.scaled == (1, {})
    assert reflect(only) == only
    assert lambda_shift(only, g1.trivial_character) == only


def test_enumeration_of_a_fan_without_rays(g8):
    # no tables: the product has one empty combination, and every
    # character still gets its divisor, with no entries
    fan = make_fan(build_lattice(g8), [], [])
    enumeration = enumerate_normalized(fan, g8)
    assert enumeration.count == 1
    (only,) = list(enumeration.sets())
    assert only.divisors == tuple(GWeilDivisor(c, ())
                                  for c in g8.characters())
    # the text cells of the JSONL stream: no cell for any character
    (cells,) = list(enumeration.cells(lambda label, q: f"E{label}"))
    assert [list(filter(None, c)) for c in cells] == [[]] * g8.order


def test_sets_build_divisors_on_first_read(g8, fan8, monkeypatch):
    built = []
    trusted = GWeilDivisor._trusted

    def counted(cls, character, entries):
        built.append(character)
        return trusted(character, entries)

    monkeypatch.setattr(GWeilDivisor, "_trusted", classmethod(counted))
    sets = list(enumerate_normalized(fan8, g8).sets())
    assert len(sets) == 1536 and not built
    reads = (attrgetter("divisors"), attrgetter("characters"),
             attrgetter("scaled"), hash, repr, lambda s: s == s)
    for family, read in zip(sets, reads):
        built.clear()
        read(family)
        read(family)
        assert built == g8.characters()
    assert all(type(s) is ReductorSet for s in sets)


@pytest.mark.parametrize("case", ["c8_125", "labels out of fan order"])
def test_lazy_sets_equal_the_fraction_sets(case, g8, fan8):
    group, fan = (g8, fan8) if case == "c8_125" else LABELS_OUT_OF_FAN_ORDER
    enumeration = enumerate_normalized(fan, group)
    # four copies of each set, so that each comparison is its first read
    copies = (enumeration.sets(limit=60) for _ in range(4))
    for a, b, c, d, oracle in zip(*copies, sets_fraction(enumeration, 60)):
        assert a == oracle and oracle == b
        assert hash(c) == hash(oracle)
        assert repr(d) == repr(oracle)


def test_canonical_is_enumerated(g8, fan8):
    enum = enumerate_normalized(fan8, g8)
    target = tuple(d.entries for d in canonical_family(fan8, g8).divisors)
    assert any(
        tuple(d.entries for d in s.divisors) == target for s in enum.sets()
    )


# shifts / reflection ----------------------------------------------------

def test_lambda_shift_requires_normalized(g8, fan8):
    fam = canonical_family(fan8, g8)
    offset = principal_divisor((1, 1, 1), fan8, g8)
    shifted = ReductorSet.from_divisors([d + offset for d in fam.divisors])
    with pytest.raises(ValueError):
        lambda_shift(shifted, g8.character((1,)))


def test_lambda_shift_identity_and_characters(g8, fan8):
    fam = canonical_family(fan8, g8)
    assert lambda_shift(fam, g8.trivial_character) == fam
    out = lambda_shift(fam, g8.character((3,)))
    assert out.characters == fam.characters
    assert out.is_normalized


def test_lambda_shift_permutes_small_enumerations(g2, fan2, g3, fan3,
                                                  g31, fan31):
    for g, fan in ((g2, fan2), (g3, fan3), (g31, fan31)):
        sets = list(enumerate_normalized(fan, g).sets())
        keys = {tuple(d.entries for d in s.divisors) for s in sets}
        for lam in g.characters():
            image = {
                tuple(d.entries for d in lambda_shift(s, lam).divisors)
                for s in sets
            }
            assert image == keys


def test_lambda_shift_composition(g3, fan3):
    fam = canonical_family(fan3, g3)
    a, b = g3.character((1,)), g3.character((2,))
    assert lambda_shift(lambda_shift(fam, a), b) == lambda_shift(fam, a * b)


@pytest.mark.parametrize("kind", PERTURBATIONS)
@SHORT
@given(data=st.data())
def test_reductor_set_scaled_form(kind, data):
    group, _, family = data.draw(perturbed_sets(kind))
    cold = ReductorSet(family.divisors)
    scale, columns = family.scaled
    coeffs = [d.as_map() for d in family.divisors]
    assert scale == lcm(*(c.denominator for cm in coeffs for c in cm.values()))
    assert list(columns) == sorted(
        {label for cm in coeffs for label, c in cm.items() if c})
    for label, column in columns.items():
        assert len(column) == len(coeffs)
        assert all(type(n) is int for n in column)
        assert [Q(n, scale) for n in column] == [cm.get(label, 0)
                                                 for cm in coeffs]
    # the operations give the same set whether or not scaled was read first
    assert "scaled" not in vars(cold)
    assert _outcome(reflect, cold) == _outcome(reflect, family)
    for lam in group.characters():
        assert _outcome(lambda_shift, ReductorSet(family.divisors), lam) == (
            _outcome(lambda_shift, family, lam))


def test_reflect_involution_and_permutation(g3, fan3, g8, fan8):
    sets3 = list(enumerate_normalized(fan3, g3).sets())
    keys3 = {tuple(d.entries for d in s.divisors) for s in sets3}
    image = {
        tuple(d.entries for d in reflect(s).divisors) for s in sets3
    }
    assert image == keys3
    fam = canonical_family(fan8, g8)
    assert reflect(reflect(fam)) == fam
    # reflecting the canonical family gives the lower envelope -M_{chi^-1}
    mirror = reflect(maximal_shift_family(fan8, g8))
    shifts = {r.label: shortest_paths(g8, r.scaled) for r in fan8.rays}
    for d in mirror.divisors:
        inverse = g8.index[d.character.inverse()]
        for label, coeff in d.entries:
            assert coeff == -shifts[label][inverse]


@pytest.mark.parametrize("kind", ["none", "off_grid"])
@SHORT
@given(data=st.data())
def test_derived_sets_share_one_value_pool(kind, data):
    group, _, family = data.draw(perturbed_sets(kind))
    chars = group.characters()
    reflected = reflect(family)
    derived = [reflected, reflect(reflected)] + [
        _outcome(lambda_shift, family, lam) for lam in chars]
    assert derived == [reflect_fraction(family),
                       reflect_fraction(reflect_fraction(family))] + [
        _outcome(lambda_shift_fraction, family, lam) for lam in chars]
    # every value n / D of the sets derived from one set is one object
    seen = {}
    sets = [s for s in derived if isinstance(s, ReductorSet)]
    for d in itertools.chain(*(s.divisors for s in sets)):
        for _, q in d.entries:
            assert type(q) is Fraction and seen.setdefault(q, q) is q


def test_derived_sets_read_the_pool_of_their_own_denominator(g8, fan8, g4,
                                                            fan4):
    # every set of one enumeration has one D, since a character's
    # coefficient at a ray has a fixed fractional part, and a derivation
    # keeps it; here the pool of derived D = 8 sets is handed to a D = 4
    # set, whose derived sets must still read n / 4 and not n / 8
    source = next(enumerate_normalized(fan8, g8).sets())
    for lam in g8.characters():
        lambda_shift(reflect(source), lam)
    quarters = canonical_family(fan4, g4)
    quarters.__dict__["_pool"] = source.__dict__["_pool"]
    assert (source.scaled[0], quarters.scaled[0]) == (8, 4)
    assert reflect(quarters) == reflect_fraction(quarters)
    for lam in g4.characters():
        assert lambda_shift(quarters, lam) == lambda_shift_fraction(quarters,
                                                                    lam)


def test_derivations_refuse_two_divisors_of_one_character(g8, fan8):
    fam = canonical_family(fan8, g8)
    odd = GWeilDivisor(fam.divisors[3].character, ((4, Q(1, 3)),))
    source = ReductorSet(fam.divisors[:3] + (odd,) + fam.divisors[3:])
    (message,) = check_reductor(source, fan8, g8).structure_errors
    with pytest.raises(ValueError, match=re.escape(message)):
        reflect(source)
    for lam in g8.characters():
        with pytest.raises(ValueError, match=re.escape(message)):
            lambda_shift(source, lam)


def _one_object_per_value(group, fan, limit):
    """The enumeration's tables equal enumerate_per_ray's, equal
    candidates of any two tables are one object, a zero one is the zero
    coefficient() returns, and every nonzero coefficient of a streamed set
    and of its reflection and shifts is the table's candidate object, the
    sets equalling their Fraction oracles."""
    enumeration = enumerate_normalized(fan, group)
    chars = group.characters()
    zero = GWeilDivisor(group.trivial_character, ()).coefficient(1)
    seen = {zero: zero}
    candidates = {}
    for ray, table in zip(fan.rays, enumeration.tables):
        assert table == enumerate_per_ray(ray, group)
        for char, values in zip(table.characters, table.values):
            candidates[table.ray_label, char] = {v: v for v in values}
            assert all(seen.setdefault(v, v) is v for v in values)
    for family, oracle in zip(enumeration.sets(limit),
                              sets_fraction(enumeration, limit)):
        derived = [reflect(family)] + [lambda_shift(family, lam)
                                       for lam in chars]
        assert [family] + derived == [oracle, reflect_fraction(oracle)] + [
            lambda_shift_fraction(oracle, lam) for lam in chars]
        for d in itertools.chain(*(s.divisors for s in [family] + derived)):
            for label, q in d.entries:
                assert candidates[label, d.character][q] is q


@pytest.mark.parametrize("problem", sorted(PROBLEMS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_one_object_per_value_per_enumeration(problem):
    group, fan, _ = load_problem(problem)
    _one_object_per_value(group, fan, 200)


@SHORT
@given(group_and_fan())
def test_one_object_per_value_on_generated_fans(case):
    _one_object_per_value(*case, 30)


def test_bounds_check_reports(g8, fan8):
    fam = canonical_family(fan8, g8)
    divisors = list(fam.divisors)
    old = divisors[1]
    divisors[1] = GWeilDivisor.from_map(
        old.character, {**old.as_map(), 4: old.coefficient(4) + 1})
    report = bounds_check(ReductorSet(tuple(divisors)), fan8, g8)
    assert (g8.character((1,)), 4, "upper") in report.violations
    assert not report.passed
    low = list(fam.divisors)
    # canonical value 1/8 sits one unit above the floor of -7/8
    low[1] = GWeilDivisor.from_map(
        old.character, {**old.as_map(), 4: old.coefficient(4) - 2})
    report = bounds_check(ReductorSet(tuple(low)), fan8, g8)
    assert (g8.character((1,)), 4, "lower") in report.violations


def test_bounds_check_rejects_unnormalized(g8, fan8):
    fam = canonical_family(fan8, g8)
    offset = principal_divisor((1, 1, 1), fan8, g8)
    shifted = ReductorSet.from_divisors([d + offset for d in fam.divisors])
    report = bounds_check(shifted, fan8, g8)
    assert not report.normalized
    assert not report.passed


@PROPERTIES
@given(data=st.data())
def test_reductor_condition_implies_bounds(data):
    # q_chi0 = 0 and each Cayley step meets the reductor condition, so a
    # path chi0 -> chi gives q_chi <= M(chi) and a path chi -> chi0 gives
    # q_chi >= -M(chi^-1); gcon check relies on this
    group, fan, family = data.draw(perturbed_sets("none"))
    coeffs = [d.as_map() for d in family.divisors]
    moves = data.draw(st.lists(st.tuples(
        st.integers(1, max(1, len(coeffs) - 1)),
        st.sampled_from([r.label for r in fan.rays]),
        st.sampled_from((-1, 1))), min_size=1, max_size=4))
    for c, label, step in moves:
        if c < len(coeffs):
            coeffs[c][label] = coeffs[c].get(label, 0) + step
    family = ReductorSet(tuple(GWeilDivisor.from_map(d.character, cm)
                               for d, cm in zip(family.divisors, coeffs)))
    assert family.is_normalized
    if check_reductor(family, fan, group).passed:
        assert bounds_check(family, fan, group).passed


# chart pieces and quivers ------------------------------------------------

def cone_by_labels(fan, labels):
    return next(c for c in fan.cones if set(c.labels) == set(labels))


def test_reductor_piece_goldens(g8, fan8):
    fam = canonical_family(fan8, g8)
    piece = reductor_piece(fam, cone_by_labels(fan8, (5, 6, 7)), fan8, g8)
    assert {monomial_string(m) for m in piece.exponents} == {
        "1", "x", "y", "xy", "x/z", "z", "xy/z", "yz"}
    piece2 = reductor_piece(fam, cone_by_labels(fan8, (4, 5, 6)), fan8, g8)
    assert {monomial_string(m) for m in piece2.exponents} == {
        "1", "x", "y", "xy", "z/x", "z", "yz/x", "yz"}
    # generators carry their character's weight
    for char, m in zip(piece2.characters, piece2.exponents):
        assert g8.weight(m) == char


def test_reductor_piece_valuations_match_divisors(g8, fan8):
    fam = maximal_shift_family(fan8, g8)
    for cone in fan8.cones:
        piece = reductor_piece(fam, cone, fan8, g8)
        for char, m in zip(piece.characters, piece.exponents):
            for ray in cone.rays:
                assert pairing(ray, m) == {
                    d.character: d for d in fam.divisors}[char].coefficient(
                    ray.label)


def test_reductor_piece_shifted_family(g8, fan8):
    fam = lambda_shift(canonical_family(fan8, g8), g8.character((4,)))
    piece = reductor_piece(fam, cone_by_labels(fan8, (4, 5, 6)), fan8, g8)
    exps = {c.residues[0]: m for c, m in zip(piece.characters,
                                             piece.exponents)}
    # shifting by chi_4 divides the canonical chart basis by z/x
    assert exps[0] == (0, 0, 0)
    assert exps[1] == (1, 0, 0)
    assert exps[2] == (0, 1, 0)
    assert exps[3] == (1, 1, 0)
    assert exps[4] == (1, 0, -1)
    assert exps[5] == (2, 0, -1)
    assert exps[6] == (1, 1, -1)
    assert exps[7] == (2, 1, -1)


def test_one_column_map_per_set(g8, fan8, monkeypatch):
    made = []
    scaled_coefficients = family_module.scaled_coefficients

    def counted(divisors):
        made.append(divisors)
        return scaled_coefficients(divisors)

    monkeypatch.setattr(family_module, "scaled_coefficients", counted)
    fam, other = canonical_family(fan8, g8), maximal_shift_family(fan8, g8)
    for members in (fam, other):
        check_reductor(members, fan8, g8)
        bounds_check(members, fan8, g8)
        for cone in fan8.cones:
            reductor_piece(members, cone, fan8, g8)
            quiver(members, cone, fan8, g8)
    equivalence_witness(fam, other, fan8, g8)
    assert made == [fam.divisors, other.divisors]


def test_foreign_cone_rejected_by_name(g8, fan8):
    fam = canonical_family(fan8, g8)
    cone = fan8.cones[0]
    # a fan cone with its rays reordered is not one of the fan's cones
    foreign = Cone(cone.rays[::-1])
    for build in (reductor_piece, quiver):
        with pytest.raises(ValueError, match=re.escape(
                f"cone {foreign.labels} is not a cone of the fan")):
            build(fam, foreign, fan8, g8)


def test_quiver_structure_and_goldens(g8, fan8):
    fam = canonical_family(fan8, g8)
    cone = cone_by_labels(fan8, (4, 5, 6))
    rep = quiver(fam, cone, fan8, g8)
    assert len(rep.vertices) == 8
    assert len(rep.arrows) == 24
    by_key = {(a.source.residues[0], a.coordinate): a for a in rep.arrows}
    x_out_of_zero = by_key[(0, 1)]
    assert x_out_of_zero.exponent == (0, 0, 0)
    assert x_out_of_zero.target == g8.character((1,))
    z_out_of_three = by_key[(3, 3)]
    assert z_out_of_three.exponent == (1, 1, 1)
    assert z_out_of_three.cone_coordinates == (Q(1), Q(1), Q(1))
    # arrow labels never have negative chart coordinates
    for arrow in rep.arrows:
        assert all(c >= 0 for c in arrow.cone_coordinates)


def test_quiver_to_dot(g8, fan8):
    fam = canonical_family(fan8, g8)
    rep = quiver(fam, cone_by_labels(fan8, (4, 5, 6)), fan8, g8)
    dot = quiver_to_dot(rep)
    assert dot.startswith("digraph")
    assert dot.count("->") == 24
    assert '"chi_0" -> "chi_1" [label="x: 1 (0,0,0)"];' in dot
    assert quiver_to_dot(rep) == dot


def test_quiver_to_dot_names_four_coordinates():
    group = GroupData.cyclic(1, (0, 0, 0, 0))
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    fan = make_fan(build_lattice(group), units, [(1, 2, 3, 4)])
    rep = quiver(canonical_family(fan, group), fan.cones[0], fan, group)
    labels = [line.split('label="')[1] for line in
              quiver_to_dot(rep).splitlines() if "->" in line]
    assert labels == ['x1: x1 (1,0,0,0)"];', 'x2: x2 (0,1,0,0)"];',
                      'x3: x3 (0,0,1,0)"];', 'x4: x4 (0,0,0,1)"];']


@pytest.mark.parametrize("problem", sorted(PROBLEMS.glob("*.json")),
                         ids=lambda path: path.stem)
def test_chart_layer_matches_pairings(problem):
    # the quiver's cone coordinates must agree with the pairings of the
    # arrow labels, and the pieces from chart_monomial with the per-divisor
    # Cartier data
    group, fan, _ = load_problem(str(problem))
    families = [canonical_family(fan, group), maximal_shift_family(fan, group)]
    families += itertools.islice(enumerate_normalized(fan, group).sets(), 32)
    for fam in families:
        cartier = [weil_to_cartier(d, fan, group).exponents
                   for d in fam.divisors]
        for k, cone in enumerate(fan.cones):
            piece = reductor_piece(fam, cone, fan, group)
            assert list(piece.exponents) == [m[k] for m in cartier]
            for arrow in quiver(fam, cone, fan, group).arrows:
                assert arrow.cone_coordinates == tuple(
                    pairing(ray, arrow.exponent) for ray in cone.rays)


# equivalence -------------------------------------------------------------

def test_equivalence_witness_isomorphic(g8, fan8):
    fam = canonical_family(fan8, g8)
    # xyz is invariant, so adding its divisor keeps every character
    offset = principal_divisor((1, 1, 1), fan8, g8)
    other = ReductorSet.from_divisors([d + offset for d in fam.divisors])
    res = equivalence_witness(fam, other, fan8, g8)
    assert res.equivalent
    assert res.isomorphic
    assert res.monomial == (1, 1, 1)
    assert res.difference is not None
    assert res.difference.character.is_trivial


def test_equivalence_witness_inequivalent(g8, fan8):
    res = equivalence_witness(canonical_family(fan8, g8),
                              maximal_shift_family(fan8, g8), fan8, g8)
    assert not res.equivalent
    assert res.to_json()["difference"] is None


def test_equivalence_witness_equivalent_not_isomorphic(g8, fan8):
    fam = canonical_family(fan8, g8)
    offset = GWeilDivisor.from_map(g8.trivial_character, {4: Q(1)})
    other = ReductorSet.from_divisors([d + offset for d in fam.divisors])
    res = equivalence_witness(fam, other, fan8, g8)
    assert res.equivalent
    assert not res.isomorphic
    assert res.monomial is None


def test_equivalence_witness_rejects_different_groups(g8, fan8, g3, fan3):
    with pytest.raises(ValueError, match="different character groups"):
        equivalence_witness(canonical_family(fan8, g8),
                            canonical_family(fan3, g3), fan8, g8)


def test_equivalence_witness_rejects_empty_sets(g8, fan8):
    empty = ReductorSet(())
    with pytest.raises(ValueError, match="^need exactly one divisor per "):
        equivalence_witness(empty, empty, fan8, g8)


def test_equivalence_self(g8, fan8):
    fam = canonical_family(fan8, g8)
    res = equivalence_witness(fam, fam, fan8, g8)
    assert res.equivalent
    assert res.isomorphic
    assert res.monomial == (0, 0, 0)


def test_label_off_the_fan_fails_charts_and_isomorphism(g8, fan8):
    fam = canonical_family(fan8, g8)
    offset = GWeilDivisor(g8.trivial_character, ((99, Q(5)),))
    other = ReductorSet.from_divisors([d + offset for d in fam.divisors])
    assert not check_reductor(other, fan8, g8).passed
    text = r"^coefficients on rays \[99\], which are not in the fan$"
    for cone in fan8.cones:
        with pytest.raises(CongruenceViolationError, match=text):
            reductor_piece(other, cone, fan8, g8)
        with pytest.raises(CongruenceViolationError, match=text):
            quiver(other, cone, fan8, g8)
    # the common difference E99 is no divisor of a monomial on the fan
    res = equivalence_witness(fam, other, fan8, g8)
    assert res.equivalent
    assert not res.isomorphic
    assert res == equivalence_witness_fraction(fam, other, fan8, g8)


def test_reductor_piece_finds_an_equal_cone_built_elsewhere(g8, fan8):
    fam = canonical_family(fan8, g8)
    for cone in fan8.cones:
        copy = Cone(tuple(cone.rays))
        assert copy is not cone and copy == cone
        assert reductor_piece(fam, copy, fan8, g8) == reductor_piece(
            fam, cone, fan8, g8)


# serialization -----------------------------------------------------------

def test_reductor_set_json_round_trip(g8, fan8):
    fam = maximal_shift_family(fan8, g8)
    blob = reductor_set_to_json(fam)
    assert len(blob["divisors"]) == 8
    back = reductor_set_from_json(blob, fan8, g8)
    assert back == fam


def test_reductor_set_from_json_rejects_duplicates(g8, fan8):
    blob = {"divisors": [{"char": [0], "coeffs": {}},
                         {"char": [0], "coeffs": {}}]}
    with pytest.raises(ValueError):
        reductor_set_from_json(blob, fan8, g8)
    with pytest.raises(ValueError):
        reductor_set_from_json({}, fan8, g8)
