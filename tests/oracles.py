"""Brute-force reference helpers that only the tests use.

`mat_mul` multiplies exact matrices to check inverses; `monomials_of_weight`
lists every monomial of a given weight in a bounded grid, the oracle for
the maximal-shift values; `representative_monomial` finds one monomial of
each weight by breadth-first search, the oracle for frac_val;
`enumerate_per_ray_dfs` is the recursive per-ray search, the oracle for
`enumerate_per_ray`.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from typing import Iterator, Sequence

from gconstellations import Character, GroupData, PerRayTable, Ray
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


def enumerate_per_ray_dfs(ray: Ray, group: GroupData) -> PerRayTable:
    """Depth-first search over the finite per-ray coefficient grid.

    Candidates for q_chi run through the congruence class of the fractional
    valuation inside [-M(chi^-1), M(chi)] in unit steps; the trivial
    character is pinned to 0, which the bounds enforce on their own. Partial
    assignments are pruned against every inequality whose two endpoints are
    already assigned, and rows come out in lexicographic order.
    """
    chars = group.characters()
    shifts = group.shortest_paths(ray.vector)
    count = len(chars)

    candidates: list[list[Fraction]] = []
    for high, inverse in zip(shifts, group.inverses):
        low = -shifts[inverse]
        span = high - low
        assert span.denominator == 1, "bounds must be congruent"
        candidates.append([low + k for k in range(int(span) + 1)])

    # edges (source index, target index, step cost), grouped by the larger
    # endpoint so each is checked as soon as both ends are assigned
    pending: list[list[tuple[int, int, Fraction]]] = [[] for _ in chars]
    for i, row in enumerate(group.steps):
        for target, cost in zip(row, ray.vector):
            pending[max(i, target)].append((i, target, cost))

    rows: list[tuple[Fraction, ...]] = []
    assignment: list[Fraction] = [Fraction(0)] * count

    def extend(position: int) -> None:
        if position == count:
            rows.append(tuple(assignment))
            return
        for value in candidates[position]:
            assignment[position] = value
            if all(
                assignment[s] + cost - assignment[t] >= 0
                for s, t, cost in pending[position]
            ):
                extend(position + 1)

    extend(0)
    return PerRayTable(ray.label, tuple(chars), tuple(rows))
