"""Brute-force reference helpers that only the tests use.

`mat_mul` multiplies exact matrices to check inverses; `monomials_of_weight`
lists every monomial of a given weight in a bounded grid, the oracle for
the maximal-shift values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Sequence

from gconstellations import Character, GroupData
from gconstellations.exact import dot


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]
            ) -> list[list[Fraction]]:
    bt = list(zip(*b))
    return [[dot(row, col) for col in bt] for row in a]


def monomials_of_weight(group: GroupData, char: Character,
                        bound: int) -> Iterator[tuple[int, ...]]:
    """All m with 0 <= m_i <= bound and weight(m) = char."""
    for m in itertools.product(range(bound + 1), repeat=group.dim):
        if group.weight(m) == char:
            yield m
