"""Finite abelian groups acting diagonally on C^n and their characters.

A group is presented as a product of cyclic factors of orders d_1..d_k
together with a k x n weight matrix: column i is the character by which the
coordinate x_i transforms. The weight map sends a Laurent exponent m to the
character of the monomial x^m; its kernel is the sublattice of invariant
monomials.

Each group builds its Cayley graph once: characters are indexed in residue
order, and a step along x_j moves from chi to chi * weight(x_j). Shortest
paths on that graph give the maximal shifts along a ray. They run on the
ray's scaled form (D, ints) from Ray.scaled, are kept under that key and
stay integers: the i-th distance n stands for the shift n / D.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence
from functools import cached_property
from math import prod
from operator import mul

from .record import Record


class Character(Record):
    """A character of a finite abelian group, as residues per cyclic factor."""

    residues: tuple[int, ...]
    orders: tuple[int, ...]

    def __init__(self, residues: Sequence[int],
                 orders: Sequence[int]) -> None:
        orders = tuple(orders)
        if any(type(x) is not int for x in (*residues, *orders)):
            raise ValueError("residues and orders must be integers")
        if len(residues) != len(orders):
            raise ValueError("residues and orders must have equal length")
        if any(d < 1 for d in orders):
            raise ValueError("cyclic orders must be >= 1")
        self._fill(tuple(r % d for r, d in zip(residues, orders)), orders)

    def _fill(self, residues: tuple[int, ...],
              orders: tuple[int, ...]) -> None:
        # characters key dicts throughout; hash them once
        self.__dict__.update(residues=residues, orders=orders,
                             _hash=hash((residues, orders)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def _reduced(cls, residues: tuple[int, ...],
                 orders: tuple[int, ...]) -> "Character":
        """A character from residues already reduced mod valid orders."""
        char = object.__new__(cls)
        char._fill(residues, orders)
        return char

    def __mul__(self, other: "Character") -> "Character":
        if self.orders != other.orders:
            raise ValueError("characters of different groups")
        return Character._reduced(
            tuple((a + b) % d for a, b, d
                  in zip(self.residues, other.residues, self.orders)),
            self.orders,
        )

    def inverse(self) -> "Character":
        return Character._reduced(
            tuple(-r % d for r, d in zip(self.residues, self.orders)),
            self.orders,
        )

    @property
    def is_trivial(self) -> bool:
        return not any(self.residues)

    @property
    def name(self) -> str:
        if len(self.orders) == 1:
            return f"chi_{self.residues[0]}"
        return "chi_(" + ",".join(str(r) for r in self.residues) + ")"

    def to_json(self) -> list[int]:
        return list(self.residues)


class GroupData(Record):
    """A finite abelian group with a diagonal action on C^n.

    orders: the cyclic factor orders d_1..d_k.
    weights: k rows of n integers; weights[j][i] is the weight of x_i in the
        j-th factor, stored reduced mod d_j.
    """

    orders: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]

    def __init__(self, orders: Sequence[int],
                 weights: Sequence[Sequence[int]]) -> None:
        orders = tuple(orders)
        for x in itertools.chain(orders, *weights):
            if type(x) is not int:
                raise ValueError(f"orders and weights must be integers: {x!r}")
        if not orders or any(d < 1 for d in orders):
            raise ValueError("need at least one cyclic factor, orders >= 1")
        if len(weights) != len(orders):
            raise ValueError("one weight row per cyclic factor required")
        widths = {len(row) for row in weights}
        if len(widths) != 1 or widths == {0}:
            raise ValueError("weight rows must share a positive length")
        weights = tuple(tuple(w % d for w in row)
                        for row, d in zip(weights, orders))
        # scaled distances, keyed by a ray's scaled form (D, ints)
        self.__dict__.update(orders=orders, weights=weights, _paths={})

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
        return list(self.index)

    @cached_property
    def index(self) -> dict[Character, int]:
        """Position of each character in characters()."""
        residues = itertools.product(*map(range, self.orders))
        return {Character._reduced(res, self.orders): i
                for i, res in enumerate(residues)}

    @cached_property
    def steps(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley graph of the weights: steps[i][j] is the index of
        characters()[i] * weight(x_{j+1})."""
        gens = [self.generator_character(j) for j in range(self.dim)]
        return tuple(tuple(self.index[char * gen] for gen in gens)
                     for char in self.index)

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        """inverses[i] is the index of the inverse of characters()[i]."""
        return tuple(self.index[char.inverse()] for char in self.index)

    def weight(self, m: Sequence[int]) -> Character:
        """Character of the Laurent monomial with exponent m."""
        if len(m) != self.dim:
            raise ValueError(f"exponent must have length {self.dim}")
        if not {int}.issuperset(map(type, m)):  # no bool, no float
            raise ValueError(f"exponent entries must be ints, not {m!r}")
        return Character._reduced(
            tuple(sum(map(mul, row, m)) % d
                  for row, d in zip(self.weights, self.orders)),
            self.orders,
        )

    def scaled_paths(self, scaled: tuple[int, tuple[int, ...]]
                     ) -> tuple[int, ...]:
        """dist[i] is the cheapest path from the trivial character to the
        i-th character, when a step along x_{j+1} costs ints[j] >= 0.

        scaled is a ray's Ray.scaled pair (D, ints), so dist / D are the
        maximal shifts along the ray. Results are kept on this instance
        under that pair; a negative cost raises ValueError.
        """
        if scaled in self._paths:
            return self._paths[scaled]
        costs = scaled[1]
        if any(cost < 0 for cost in costs):
            raise ValueError(f"step costs must be >= 0, not {scaled}")
        dist: list[int | None] = [None] * self.order
        dist[0] = 0
        heap = [(0, 0)]
        steps = self.steps
        while heap:
            d, i = heapq.heappop(heap)
            if d > dist[i]:
                continue
            for cost, target in zip(costs, steps[i]):
                nd = d + cost
                if dist[target] is None or nd < dist[target]:
                    dist[target] = nd
                    heapq.heappush(heap, (nd, target))
        if None in dist:
            raise ValueError("weight map is not surjective; the weight matrix "
                             "does not define a faithful diagonal action")
        self._paths[scaled] = paths = tuple(dist)
        return paths
