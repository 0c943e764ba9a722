"""Brute-force reference helpers that only the tests use.

`mat_mul` multiplies exact matrices to check inverses; `monomials_of_weight`
lists every monomial of a given weight in a bounded grid, the oracle for
the maximal-shift values; `representative_monomial` finds one monomial of
each weight by breadth-first search, the oracle for frac_val.
"""

from __future__ import annotations

import itertools
from collections import deque
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


def representative_monomial(group: GroupData,
                            char: Character) -> tuple[int, ...]:
    """Some m >= 0 with weight(m) = char, of least degree; entries are at
    most |G| because search paths are shorter than |G|.

    Raises ValueError when the weight map misses char (action not faithful).
    """
    start = (0,) * group.dim
    table = {group.trivial_character: start}
    queue = deque([(group.trivial_character, start)])
    while queue:
        current, mono = queue.popleft()
        for j in range(group.dim):
            bumped = tuple(e + int(i == j) for i, e in enumerate(mono))
            nxt = group.weight(bumped)
            if nxt not in table:
                table[nxt] = bumped
                queue.append((nxt, bumped))
    try:
        return table[char]
    except KeyError:
        raise ValueError(f"{char.name} is not hit by the weight map") from None
