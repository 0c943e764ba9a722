"""Finite abelian groups acting diagonally on C^n and their characters.

A group is presented as a product of cyclic factors of orders d_1..d_k
together with a k x n weight matrix: column i is the character by which the
coordinate x_i transforms. The weight map sends a Laurent exponent m to the
character of the monomial x^m; its kernel is the sublattice of invariant
monomials.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Sequence


@dataclass(frozen=True)
class Character:
    """A character of a finite abelian group, as residues per cyclic factor."""

    residues: tuple[int, ...]
    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.residues) != len(self.orders):
            raise ValueError("residues and orders must have equal length")
        if any(d < 1 for d in self.orders):
            raise ValueError("cyclic orders must be >= 1")
        reduced = tuple(r % d for r, d in zip(self.residues, self.orders))
        object.__setattr__(self, "residues", reduced)

    def __mul__(self, other: "Character") -> "Character":
        if self.orders != other.orders:
            raise ValueError("characters of different groups")
        return Character(
            tuple(a + b for a, b in zip(self.residues, other.residues)),
            self.orders,
        )

    def inverse(self) -> "Character":
        return Character(tuple(-r for r in self.residues), self.orders)

    @property
    def is_trivial(self) -> bool:
        return all(r == 0 for r in self.residues)

    @property
    def name(self) -> str:
        if len(self.orders) == 1:
            return f"chi_{self.residues[0]}"
        return "chi_(" + ",".join(str(r) for r in self.residues) + ")"

    def to_json(self) -> list[int]:
        return list(self.residues)


@dataclass(frozen=True)
class GroupData:
    """A finite abelian group with a diagonal action on C^n.

    orders: the cyclic factor orders d_1..d_k.
    weights: k rows of n integers; weights[j][i] is the weight of x_i in the
        j-th factor, stored reduced mod d_j.
    """

    orders: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        orders = tuple(int(d) for d in self.orders)
        if not orders or any(d < 1 for d in orders):
            raise ValueError("need at least one cyclic factor, orders >= 1")
        if len(self.weights) != len(orders):
            raise ValueError("one weight row per cyclic factor required")
        widths = {len(row) for row in self.weights}
        if len(widths) != 1 or widths == {0}:
            raise ValueError("weight rows must share a positive length")
        weights = tuple(
            tuple(int(w) % d for w in row)
            for row, d in zip(self.weights, orders)
        )
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def cyclic(cls, order: int, weights: Sequence[int]) -> "GroupData":
        """The cyclic group 1/order(a_1, ..., a_n)."""
        return cls((order,), (tuple(weights),))

    @property
    def order(self) -> int:
        return prod(self.orders)

    @property
    def dim(self) -> int:
        return len(self.weights[0])

    @property
    def is_special_linear(self) -> bool:
        """True when every group element has determinant 1 on C^n."""
        return all(sum(row) % d == 0 for row, d in zip(self.weights, self.orders))

    def character(self, residues: Sequence[int]) -> Character:
        return Character(tuple(residues), self.orders)

    @property
    def trivial_character(self) -> Character:
        return self.character((0,) * len(self.orders))

    def generator_character(self, j: int) -> Character:
        """Weight of the coordinate x_{j+1} (0-based j)."""
        return self.character(tuple(row[j] for row in self.weights))

    def characters(self) -> list[Character]:
        """All |G| characters, sorted by residue tuple (trivial one first)."""
        return [
            self.character(res)
            for res in itertools.product(*(range(d) for d in self.orders))
        ]

    def weight(self, m: Sequence[int]) -> Character:
        """Character of the Laurent monomial with exponent m."""
        if len(m) != self.dim:
            raise ValueError(f"exponent must have length {self.dim}")
        return self.character(
            tuple(sum(w * e for w, e in zip(row, m)) % d
                  for row, d in zip(self.weights, self.orders))
        )

    def representative_monomial(self, char: Character) -> tuple[int, ...]:
        """Some m >= 0 with weight(m) = char; entries bounded by |G|."""
        try:
            return self._representative_table[char]
        except KeyError:
            raise ValueError(
                f"{char.name} is not hit by the weight map; action not faithful"
            ) from None

    def validate(self) -> None:
        """Raise ValueError unless the weight map is surjective."""
        missing = self.order - len(self._representative_table)
        if missing:
            raise ValueError(
                f"weight map is not surjective ({missing} of {self.order} "
                "characters unreachable); the weight matrix does not define a "
                "faithful diagonal action"
            )

    @cached_property
    def _representative_table(self) -> dict[Character, tuple[int, ...]]:
        """Breadth-first search over monomials: one representative per
        character.

        Paths in the search have length < |G|, so every entry is <= |G|.
        """
        start = (0,) * self.dim
        table = {self.trivial_character: start}
        queue = deque([(self.trivial_character, start)])
        gens = [self.generator_character(j) for j in range(self.dim)]
        while queue:
            char, mono = queue.popleft()
            for j, gen in enumerate(gens):
                nxt = char * gen
                if nxt not in table:
                    bumped = tuple(
                        e + 1 if i == j else e for i, e in enumerate(mono)
                    )
                    table[nxt] = bumped
                    queue.append((nxt, bumped))
        return table
