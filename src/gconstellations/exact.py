"""Exact rational arithmetic and small dense linear algebra.

Every value at an interface of this package is a `fractions.Fraction` or
an int, and no floating point appears anywhere. Inside, the hot loops run
on ints: shortest paths, the reductor-set operations and the chart layer
(chart exponents, ray pairings and quiver coordinates) scale their values
by a common denominator and turn results back into Fractions.

Matrices are plain sequences of row sequences, kept small (n x n for the
ambient dimension n). One Gauss-Jordan elimination, `det_inverse`, gives
both the determinant and the inverse; callers keep its result instead of
eliminating the same matrix again.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def rational(x, what: str) -> Fraction:
    """x as a Fraction; ValueError unless x is a Fraction or an int other
    than a bool, since Fraction() would take a float at its binary value,
    True as 1 and a string of any length."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise ValueError(f"{what} must be int or Fraction, not {x!r}")
    return x if type(x) is Fraction else Fraction(x)


def det_inverse(
    matrix: Sequence[Sequence[Fraction]],
) -> tuple[Fraction, Optional[tuple[tuple[Fraction, ...], ...]]]:
    """Exact determinant and inverse from one Gauss-Jordan elimination.

    The inverse is None exactly when the determinant is zero.
    """
    rows = [[rational(x, "matrix entry") for x in row] for row in matrix]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square and non-empty")
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    determinant = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            determinant = -determinant
        pv = aug[col][col]
        determinant *= pv
        aug[col] = [a / pv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return determinant, tuple(tuple(row[n:]) for row in aug)


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of an integer matrix.

    Returns only the nonzero rows: pivots positive, strictly to the right as
    the row index grows, and entries above each pivot reduced into [0, pivot).
    The output rows generate the same integer row lattice as the input.
    """
    # int() would truncate 1.9 and read True as 1
    if any(type(x) is not int for row in rows for x in row):
        raise ValueError("Hermite normal form needs int entries")
    m = [list(row) for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    r = 0
    for c in range(ncols):
        # gcd-reduce column c below row r until one nonzero entry remains
        while True:
            live = [i for i in range(r, len(m)) if m[i][c] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(m[i][c]))
            m[r], m[i0] = m[i0], m[r]
            done = True
            for i in range(r + 1, len(m)):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if r < len(m) and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-a for a in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[r])]
            r += 1
            if r == len(m):
                break
    return [row for row in m if any(row)]

