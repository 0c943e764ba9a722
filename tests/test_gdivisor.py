"""Equivariant Weil divisors, Cartier data, linear equivalence."""

import random
from fractions import Fraction as Q

import pytest

from gconstellations import (
    Character,
    CongruenceViolationError,
    GCartierDivisor,
    GluingViolationError,
    GWeilDivisor,
    ReductorSet,
    bounds_check,
    cartier_to_weil,
    chart_monomial,
    check_reductor,
    divisor_from_json,
    divisor_to_json,
    linear_equivalence_witness,
    monomial_string,
    pairing,
    weil_to_cartier,
)
from gconstellations.gdivisor import (
    incongruent_rays,
    parse_character,
    scaled_coefficients,
)
from oracles import frac
from strategies import principal_divisor, shortest_paths


def chi(g, k):
    return g.character((k,))


def incongruent(divisor, fan, group):
    """The divisor's labels by the one integer congruence test, on its own
    scaled form."""
    return incongruent_rays(scaled_coefficients((divisor,)), 0,
                            group.index[divisor.character], fan, group)


def frac_val(ray, char, group):
    """Fractional valuation of weight-char monomials along the ray: the
    fractional part of the maximal shift, as in canonical_family."""
    return frac(shortest_paths(group, ray.scaled)[group.index[char]])


def test_monomial_string_low_dim():
    assert monomial_string((0, 0, 0)) == "1"
    assert monomial_string((1, 0, 0)) == "x"
    assert monomial_string((1, 1, 0)) == "xy"
    assert monomial_string((1, 0, -1)) == "x/z"
    assert monomial_string((-3, 1, 3)) == "yz^3/x^3"
    assert monomial_string((0, 2)) == "y^2"
    assert monomial_string((2,)) == "x^2"


def test_monomial_string_high_dim():
    assert monomial_string((1, 0, 0, 2)) == "x1*x4^2"
    assert monomial_string((0, -1, 0, 0)) == "1/x2"


def test_weil_divisor_normal_form(g8):
    d = GWeilDivisor.from_map(chi(g8, 1), {4: Q(1, 8), 7: Q(0), 5: Q(2, 8)})
    assert d.entries == ((4, Q(1, 8)), (5, Q(2, 8)))
    assert d.coefficient(7) == 0
    assert d.coefficient(4) == Q(1, 8)
    assert d.as_map() == {4: Q(1, 8), 5: Q(2, 8)}
    assert d.entries
    assert not GWeilDivisor.from_map(chi(g8, 0), {}).entries


@pytest.mark.parametrize("bad", [0.1, 0.5, True, False, "1/8", None])
def test_weil_divisor_rejects_inexact_coefficients(g8, bad):
    # Fraction(0.1) would store 3602879701896397/36028797018963968 and
    # Fraction(True) would store 1
    with pytest.raises(ValueError, match="int or Fraction"):
        GWeilDivisor(chi(g8, 1), ((4, bad),))
    with pytest.raises(ValueError, match="int or Fraction"):
        GWeilDivisor.from_map(chi(g8, 1), {4: Q(1, 8), 5: bad})


def test_weil_divisor_takes_ints_as_fractions(g8):
    d = GWeilDivisor(chi(g8, 1), ((4, 2), (5, Q(1, 8)), (6, 0)))
    assert d.entries == ((4, Q(2)), (5, Q(1, 8)))
    assert all(type(c) is Q for _, c in d.entries)


def test_weil_divisor_arithmetic(g8):
    a = GWeilDivisor.from_map(chi(g8, 1), {4: Q(1, 8), 5: Q(1, 4)})
    b = GWeilDivisor.from_map(chi(g8, 2), {4: Q(3, 8), 6: Q(1, 2)})
    s = a + b
    assert s.character == chi(g8, 3)
    assert s.as_map() == {4: Q(1, 2), 5: Q(1, 4), 6: Q(1, 2)}
    n = -a
    assert n.character == chi(g8, 7)
    assert n.coefficient(4) == -Q(1, 8)
    dd = s - b
    assert dd.character == a.character
    assert dd.as_map() == a.as_map()


def test_frac_val_goldens(g8, fan8):
    e4, e6, e7 = fan8.rays[3], fan8.rays[5], fan8.rays[6]
    assert frac_val(e4, chi(g8, 1), g8) == Q(1, 8)
    assert frac_val(e7, chi(g8, 1), g8) == Q(5, 8)
    assert frac_val(e6, chi(g8, 5), g8) == Q(4, 8)
    assert frac_val(e6, chi(g8, 4), g8) == 0
    assert frac_val(e4, chi(g8, 0), g8) == 0


def test_frac_val_representative_independent(g8, fan8):
    rng = random.Random(99)
    rays = fan8.rays
    for _ in range(200):
        ray = rng.choice(rays)
        m = tuple(rng.randint(0, 16) for _ in range(3))
        char = g8.weight(m)
        assert frac(pairing(ray, m)) == frac_val(ray, char, g8)


def test_principal_divisor(g8, fan8):
    d = principal_divisor((1, 0, 0), fan8, g8)
    assert d.character == chi(g8, 1)
    assert d.as_map() == {1: Q(1), 4: Q(1, 8), 5: Q(2, 8), 6: Q(4, 8),
                          7: Q(5, 8)}
    assert incongruent(d, fan8, g8) == []
    inv = principal_divisor((1, 1, 1), fan8, g8)
    assert inv.character.is_trivial
    # invariant monomials pair integrally with every lattice ray
    assert all(c.denominator == 1 for _, c in inv.entries)


def test_congruence_violations(g8, fan8):
    ok = GWeilDivisor.from_map(chi(g8, 6), {4: Q(7, 4), 5: Q(1, 2),
                                            7: Q(-1, 4)})
    assert incongruent(ok, fan8, g8) == []
    bad = GWeilDivisor.from_map(chi(g8, 6), {4: Q(1, 3)})
    assert 4 in incongruent(bad, fan8, g8)
    phantom = GWeilDivisor.from_map(chi(g8, 0), {9: Q(1)})
    assert 9 in incongruent(phantom, fan8, g8)


def test_weil_to_cartier_golden(g8, fan8):
    d = GWeilDivisor.from_map(chi(g8, 6), {4: Q(7, 4), 5: Q(1, 2),
                                           7: Q(-1, 4)})
    cartier = weil_to_cartier(d, fan8, g8)
    assert cartier.character == chi(g8, 6)
    k456 = next(k for k, c in enumerate(fan8.cones)
                if set(c.labels) == {4, 5, 6})
    assert cartier.exponents[k456] == (-3, 1, 3)
    assert monomial_string(cartier.exponents[k456]) == "yz^3/x^3"
    assert cartier_to_weil(cartier, fan8, g8) == d
    # every exponent carries the divisor's weight
    assert all(g8.weight(m) == chi(g8, 6) for m in cartier.exponents)


def test_weil_to_cartier_builds_without_the_public_checks(g8, fan8,
                                                           monkeypatch):
    d = GWeilDivisor.from_map(chi(g8, 6), {4: Q(7, 4), 5: Q(1, 2),
                                           7: Q(-1, 4)})
    expected = GCartierDivisor(d.character, weil_to_cartier(
        d, fan8, g8).exponents)

    def refuse(self, character, exponents):
        raise AssertionError("weil_to_cartier re-checked its exponents")

    monkeypatch.setattr(GCartierDivisor, "__init__", refuse)
    cartier = weil_to_cartier(d, fan8, g8)
    assert type(cartier) is GCartierDivisor and cartier == expected
    assert hash(cartier) == hash(expected) and repr(cartier) == repr(expected)
    assert type(cartier.exponents) is tuple
    assert all(type(m) is tuple and all(type(x) is int for x in m)
               for m in cartier.exponents)


@pytest.mark.parametrize("bad", [Q(4), Q(1, 2), 1.0, True, "1"])
def test_cartier_divisor_rejects_non_int_exponents(g8, bad):
    with pytest.raises(ValueError, match="exponents must be integers"):
        GCartierDivisor(chi(g8, 0), [[0, bad, 0]])
    # lists of ints are copied into tuples
    cartier = GCartierDivisor(chi(g8, 0), [[0, 1, 7]])
    assert cartier.exponents == ((0, 1, 7),)


def test_weil_to_cartier_rejects_congruence_violation(g8, fan8):
    bad = GWeilDivisor.from_map(chi(g8, 6), {4: Q(1, 3)})
    with pytest.raises(CongruenceViolationError):
        weil_to_cartier(bad, fan8, g8)
    # right denominators, wrong congruence class on E4
    off = GWeilDivisor.from_map(chi(g8, 6), {4: Q(5, 8)})
    with pytest.raises(CongruenceViolationError):
        weil_to_cartier(off, fan8, g8)


@pytest.mark.parametrize("k", [0, -1, 9])
def test_chart_monomial_rejects_cone_index_out_of_range(g8, fan8, k):
    d = GWeilDivisor.from_map(chi(g8, 6), {4: Q(7, 4), 5: Q(1, 2),
                                           7: Q(-1, 4)})
    with pytest.raises(ValueError,
                       match=rf"^cone index {k} out of range 1\.\.8$"):
        chart_monomial(d, k, fan8, g8)


@pytest.mark.parametrize("k", [True, False, 1.0, Q(1), "1", None])
def test_chart_monomial_rejects_non_int_cone_index(g8, fan8, k):
    # True would pick cone 1, 1.0 would raise TypeError on the index
    d = GWeilDivisor.from_map(chi(g8, 6), {4: Q(7, 4), 5: Q(1, 2),
                                           7: Q(-1, 4)})
    with pytest.raises(ValueError, match=r"^cone index .* out of range"):
        chart_monomial(d, k, fan8, g8)


def test_cartier_round_trip(g8, fan8):
    d = GWeilDivisor.from_map(chi(g8, 3), {4: Q(3, 8), 5: Q(6, 8),
                                           6: Q(4, 8), 7: Q(7, 8)})
    back = cartier_to_weil(weil_to_cartier(d, fan8, g8), fan8, g8)
    assert back.character == d.character
    assert back.as_map() == d.as_map()


def test_cartier_to_weil_rejects_bad_gluing(g8, fan8):
    # constant exponents except on one cone: valuations jump across walls
    mons = [(0, 0, 0)] * len(fan8.cones)
    mons[0] = (1, 1, 1)
    cartier = GCartierDivisor(chi(g8, 0), tuple(mons))
    with pytest.raises(GluingViolationError,
                       match=r"disagree along shared rays \[1, 2, 7\]$"):
        cartier_to_weil(cartier, fan8, g8)


def test_cartier_to_weil_rejects_wrong_weight(g8, fan8):
    mons = [(1, 0, 0)] * len(fan8.cones)
    cartier = GCartierDivisor(chi(g8, 2), tuple(mons))
    with pytest.raises(CongruenceViolationError):
        cartier_to_weil(cartier, fan8, g8)


def test_cartier_to_weil_checks_cone_count(g8, fan8):
    with pytest.raises(ValueError):
        cartier_to_weil(GCartierDivisor(chi(g8, 0), ((0, 0, 0),)), fan8, g8)


def test_linear_equivalence_witness_found(g8, fan8):
    base = GWeilDivisor.from_map(chi(g8, 3), {4: Q(3, 8), 5: Q(6, 8),
                                              6: Q(4, 8), 7: Q(7, 8)})
    shifted = base + principal_divisor((1, 1, 0), fan8, g8)
    m = linear_equivalence_witness(base, shifted, fan8, g8)
    assert m == (1, 1, 0)
    assert linear_equivalence_witness(base, base, fan8, g8) == (0, 0, 0)


def test_linear_equivalence_witness_absent(g8, fan8):
    a = GWeilDivisor.from_map(chi(g8, 4), {4: Q(4, 8), 7: Q(4, 8)})
    b = GWeilDivisor.from_map(chi(g8, 4), {4: Q(4, 8), 5: Q(1), 7: Q(4, 8)})
    assert linear_equivalence_witness(a, b, fan8, g8) is None


def test_linear_equivalence_witness_incongruent(g8, fan8):
    # the trivial character needs integer coefficients; 1/8 at E7 is not
    a = GWeilDivisor.from_map(chi(g8, 0), {})
    b = GWeilDivisor.from_map(chi(g8, 0), {7: Q(1, 8)})
    assert incongruent(b, fan8, g8) == [7]
    assert linear_equivalence_witness(a, b, fan8, g8) is None


def test_label_off_the_fan_is_refused(g8, fan8):
    # E99 is no ray of the fan, so no chart monomial carries its coefficient
    d = GWeilDivisor.from_map(chi(g8, 3), {4: Q(3, 8), 5: Q(6, 8),
                                           6: Q(4, 8), 7: Q(7, 8)})
    bad = GWeilDivisor(chi(g8, 3), d.entries + ((99, Q(5)),))
    assert incongruent(bad, fan8, g8) == [99]
    text = r"^coefficients on rays \[99\], which are not in the fan$"
    with pytest.raises(CongruenceViolationError, match=text):
        weil_to_cartier(bad, fan8, g8)
    for k in range(1, len(fan8.cones) + 1):
        with pytest.raises(CongruenceViolationError, match=text):
            chart_monomial(bad, k, fan8, g8)
    assert linear_equivalence_witness(d, bad, fan8, g8) is None
    assert linear_equivalence_witness(d, d, fan8, g8) == (0, 0, 0)


def test_character_of_another_group_is_no_key_error(g8, fan8):
    # Z/4 is not the group of the fan: no exponent is of this weight, and
    # the character has no position among the group's
    d = GWeilDivisor(Character((1,), (4,)), ((1, Q(1, 3)),))
    text = "^characters of different groups$"
    assert check_reductor(ReductorSet((d,)), fan8, g8).structure_errors == (
        "need exactly one divisor per character, sorted by residues",)
    with pytest.raises(ValueError, match=text):
        bounds_check(ReductorSet((d,)), fan8, g8)
    assert 1 in fan8.cones[0].labels
    with pytest.raises(CongruenceViolationError,
                       match=r"cone 1 exponent is non-integral$"):
        chart_monomial(d, 1, fan8, g8)
    with pytest.raises(CongruenceViolationError,
                       match=r"cone 1 exponent is non-integral$"):
        weil_to_cartier(d, fan8, g8)
    for k in range(1, len(fan8.cones) + 1):
        with pytest.raises(CongruenceViolationError, match=f"cone {k} "):
            chart_monomial(d, k, fan8, g8)


def test_weil_divisor_rejects_duplicate_label(g8):
    with pytest.raises(ValueError, match="duplicate ray label in divisor"):
        GWeilDivisor(chi(g8, 1), ((4, Q(1, 8)), (4, Q(9, 8))))


def test_divisor_json_round_trip(g8, fan8):
    d = GWeilDivisor.from_map(chi(g8, 6), {4: Q(7, 4), 5: Q(1, 2),
                                           7: Q(-1, 4)})
    blob = divisor_to_json(d)
    assert blob == {"char": [6], "coeffs": {"E4": "7/4", "E5": "1/2",
                                            "E7": "-1/4"}}
    back = divisor_from_json(blob, fan8, g8)
    assert back == d


def test_divisor_from_json_rejects_garbage(g8, fan8):
    with pytest.raises(ValueError):
        divisor_from_json({"coeffs": {}}, fan8, g8)
    with pytest.raises(ValueError):
        divisor_from_json({"char": [0], "coeffs": {"E9": "1"}}, fan8, g8)


def test_parse_character(g8):
    assert parse_character(6, g8) == chi(g8, 6)
    assert parse_character([3], g8) == chi(g8, 3)
    with pytest.raises(ValueError):
        parse_character(True, g8)
    with pytest.raises(ValueError):
        parse_character("six", g8)
    from gconstellations import GroupData
    h = GroupData((2, 2), ((1, 0), (0, 1)))
    assert parse_character([1, 0], h) == h.character((1, 0))
    with pytest.raises(ValueError):
        parse_character(1, h)
    with pytest.raises(ValueError):
        parse_character([1], h)
