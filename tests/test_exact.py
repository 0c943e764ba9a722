"""The Fraction Gauss-Jordan oracle `det_inverse` and the inexact-entry
checks of the exact helpers."""

import random
from fractions import Fraction

import pytest

from gconstellations.toric import discrepancy
from oracles import det_inverse, mat_mul


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


@pytest.mark.parametrize("helper", [
    lambda x: det_inverse([[x]]),
    lambda x: discrepancy((x, Fraction(1, 2))),
], ids=["det_inverse", "discrepancy"])
@pytest.mark.parametrize("bad", [0.1, 1.9, True, "1/8"])
def test_helpers_reject_inexact_entries(helper, bad):
    # Fraction() would read a float at its binary value, True as 1 and a
    # string as a rational
    with pytest.raises(ValueError):
        helper(bad)
