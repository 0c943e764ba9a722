"""Exact rational linear algebra kernel."""

import random
from fractions import Fraction

import pytest

from gconstellations.exact import (
    det_inverse,
    hermite_normal_form,
)
from gconstellations.toric import discrepancy
from oracles import mat_mul


def _det(matrix):
    return det_inverse(matrix)[0]


def test_det_small_goldens():
    assert _det([[Fraction(1)]]) == 1
    assert _det([[1, 2], [3, 4]]) == -2
    assert _det([[0, 1], [1, 0]]) == -1
    # row swap path: zero pivot forces an exchange
    assert _det([[0, 2, 1], [1, 0, 0], [0, 0, 3]]) == -6
    assert _det([[1, 2], [2, 4]]) == 0


def test_invert_golden():
    d, inv = det_inverse([[Fraction(1, 4), Fraction(1, 2)], [0, 1]])
    assert d == Fraction(1, 4)
    assert inv == ((Fraction(4), Fraction(-2)), (Fraction(0), Fraction(1)))


def test_det_inverse_singular_returns_none():
    assert det_inverse([[1, 2], [2, 4]]) == (0, None)
    assert det_inverse([[0, 0, 1], [0, 1, 0], [0, 2, 0]]) == (0, None)


def test_det_inverse_rejects_non_square():
    for bad in ([], [[1, 2]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            det_inverse(bad)


def test_invert_random_round_trip():
    rng = random.Random(7)
    done = 0
    while done < 120:
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for _ in range(n)] for _ in range(n)]
        d, inv = det_inverse(m)
        if d == 0:
            assert inv is None
            continue
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert mat_mul(m, inv) == eye
        assert mat_mul(inv, m) == eye
        assert _det(inv) == 1 / d
        done += 1


def test_hermite_normal_form_golden():
    # ZZ^2 + ZZ*(1,2)/4, scaled by 4
    rows = [[4, 0], [0, 4], [1, 2]]
    assert hermite_normal_form(rows) == [[1, 2], [0, 4]]
    assert hermite_normal_form([]) == []


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]]])
def test_hermite_normal_form_rejects_ragged_rows(rows):
    with pytest.raises(ValueError, match="ragged"):
        hermite_normal_form(rows)


@pytest.mark.parametrize("helper", [
    lambda x: det_inverse([[x]]),
    lambda x: hermite_normal_form([[x, 0], [0, 1]]),
    lambda x: discrepancy((x, Fraction(1, 2))),
], ids=["det_inverse", "hermite_normal_form", "discrepancy"])
@pytest.mark.parametrize("bad", [0.1, 1.9, True, "1/8"])
def test_helpers_reject_inexact_entries(helper, bad):
    # Fraction() and int() would read a float at its binary value or
    # truncated, True as 1 and a string as a rational
    with pytest.raises(ValueError):
        helper(bad)


def test_hermite_normal_form_properties():
    rng = random.Random(23)
    for _ in range(80):
        k = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)]
        h = hermite_normal_form(rows)
        # staircase with positive pivots, entries above reduced
        pivots = []
        for row in h:
            assert any(row)
            j = next(i for i, x in enumerate(row) if x)
            assert row[j] > 0
            pivots.append(j)
        assert pivots == sorted(set(pivots))
        for a, row in enumerate(h):
            j = pivots[a]
            for above in h[:a]:
                assert 0 <= above[j] < row[j]


def test_hermite_preserves_row_lattice():
    # membership is invariant: every original row reduces to zero against HNF
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h = hermite_normal_form(rows)

    def reduces_to_zero(vec):
        v = list(vec)
        for row in h:
            j = next(i for i, x in enumerate(row) if x)
            if v[j] % row[j] == 0:
                q = v[j] // row[j]
                v = [a - q * b for a, b in zip(v, row)]
        return not any(v)

    assert all(reduces_to_zero(r) for r in rows)
    assert not reduces_to_zero([1, 0, 0])

