"""Seeded generator of benchmark problem files (stdlib only).

Builds crepant fans for abelian subgroups G of SL(3) and the minimal
resolutions of the n = 2 chains 1/r(1, r-1), and writes them as problem
files in the README format. The program under test only ever sees those
files; nothing here imports it.

SL(3) fans: the junior points of G are the lattice points of the junior
triangle x + y + z = 1, x, y, z >= 0. Inserting them one at a time and
splitting every triangle that contains the new point (both neighbours when
it lies on an edge) gives a triangulation that uses every lattice point, so
each triangle has normalized area 1: every cone is basic and the fan is
crepant. The insertion order, chosen by the seed, picks the triangulation.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import prod

Point = tuple[Fraction, ...]


class Group:
    """A finite abelian group acting diagonally: cyclic factor orders and
    one row of weights per factor."""

    def __init__(self, orders, weights):
        self.orders = tuple(orders)
        self.weights = tuple(tuple(w % d for w in row)
                             for row, d in zip(weights, self.orders))
        self.dim = len(self.weights[0])

    @property
    def order(self) -> int:
        return prod(self.orders)

    def to_json(self) -> dict:
        if len(self.orders) == 1:
            return {"cyclic": {"order": self.orders[0],
                               "weights": list(self.weights[0])}}
        return {"abelian": {"orders": list(self.orders),
                            "weight_matrix": [list(r) for r in self.weights]}}

    def label(self) -> str:
        if len(self.orders) == 1:
            return f"1/{self.orders[0]}({','.join(map(str, self.weights[0]))})"
        factors = "x".join(f"Z{d}" for d in self.orders)
        rows = ";".join(",".join(map(str, r)) for r in self.weights)
        return f"{factors}[{rows}]"

    def points(self) -> list[Point]:
        """The image of every group element in [0, 1)^n."""
        seen = set()
        for residues in itertools.product(*(range(d) for d in self.orders)):
            seen.add(tuple(
                sum((Fraction(r * row[i], d) for r, row, d
                     in zip(residues, self.weights, self.orders)),
                    Fraction(0)) % 1
                for i in range(self.dim)
            ))
        return sorted(seen)


def permuted(group: Group, rng: random.Random) -> Group:
    """The same group with its coordinates in an order drawn from rng."""
    order = list(range(group.dim))
    rng.shuffle(order)
    return Group(group.orders,
                 [[row[i] for i in order] for row in group.weights])


def _barycentric(p: Point, tri) -> tuple[Fraction, Fraction, Fraction]:
    # p = a*A + b*B + c*C with a + b + c = 1 on the plane x + y + z = 1;
    # Cramer's rule on the first two coordinates plus the affine condition
    (a0, a1, _), (b0, b1, _), (c0, c1, _) = tri
    det = (b0 - a0) * (c1 - a1) - (c0 - a0) * (b1 - a1)
    beta = ((p[0] - a0) * (c1 - a1) - (c0 - a0) * (p[1] - a1)) / det
    gamma = ((b0 - a0) * (p[1] - a1) - (p[0] - a0) * (b1 - a1)) / det
    return 1 - beta - gamma, beta, gamma


def crepant_fan_sl3(group: Group, rng: random.Random) -> dict:
    """Problem dict for a crepant fan of C^3/G, G in SL(3)."""
    if group.dim != 3 or any(sum(r) % d for r, d in
                             zip(group.weights, group.orders)):
        raise ValueError(f"{group.label()} is not a subgroup of SL(3)")
    units = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    junior = [p for p in group.points() if sum(p) == 1]
    rays = units + junior
    order = list(range(3, len(rays)))
    rng.shuffle(order)
    triangles = [(0, 1, 2)]
    for k in order:
        p = rays[k]
        split = []
        for tri in triangles:
            coords = _barycentric(p, [rays[i] for i in tri])
            if min(coords) < 0:
                split.append(tri)
                continue
            for slot, weight in enumerate(coords):
                if weight > 0:
                    child = list(tri)
                    child[slot] = k
                    split.append(tuple(child))
        triangles = split
    if len(triangles) != group.order:
        raise ValueError(f"{group.label()}: {len(triangles)} triangles, "
                         f"expected {group.order}")
    return _problem(group, rays, triangles)


def crepant_chain(group: Group) -> dict:
    """Problem dict for the minimal resolution of C^2/G, G cyclic in SL(2):
    the junior points in order along the segment x + y = 1."""
    if group.dim != 2 or sum(group.weights[0]) % group.orders[0]:
        raise ValueError(f"{group.label()} is not a cyclic subgroup of SL(2)")
    units = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    junior = [p for p in group.points() if sum(p) == 1]
    rays = units + junior
    path = sorted(range(len(rays)), key=lambda i: rays[i][0])
    return _problem(group, rays, list(zip(path, path[1:])))


def _problem(group: Group, rays, cones) -> dict:
    return {
        "comment": f"generated: {group.label()}, {len(rays)} rays, "
                   f"{len(cones)} cones",
        "group": group.to_json(),
        "fan": {
            "rays": [[str(x) for x in ray] for ray in rays],
            "cones": [[i + 1 for i in cone] for cone in cones],
        },
    }


def write_problem(problem: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(problem, handle, indent=1)
        handle.write("\n")

