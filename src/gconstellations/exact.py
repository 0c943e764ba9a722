"""Exact rational arithmetic and small dense linear algebra.

Every value at an interface of this package is a `fractions.Fraction` or
an int, and no floating point appears anywhere. Inside, the hot loops run
on ints: shortest paths, the reductor-set operations and the chart layer
(chart exponents, ray pairings and quiver coordinates) scale their values
by a common denominator and turn results back into Fractions.

Matrices are plain sequences of row sequences, kept small (n x n for the
ambient dimension n). One Gauss-Jordan elimination, `det_inverse`, the
only one in the package, gives both the determinant and the inverse;
callers keep its result instead of eliminating the same matrix again.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction


def rational(x, what: str) -> Fraction:
    """x as a Fraction; ValueError unless x is a Fraction or an int other
    than a bool, since Fraction() would take a float at its binary value,
    True as 1 and a string of any length."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise ValueError(f"{what} must be int or Fraction, not {x!r}")
    return x if type(x) is Fraction else Fraction(x)


def det_inverse(
    matrix: Sequence[Sequence[Fraction]],
) -> tuple[Fraction, tuple[tuple[Fraction, ...], ...] | None]:
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
