"""Overlattices, fans of basic cones, dual bases and toric valuations.

The quotient construction embeds the dual of Z^n into an overlattice L with
index |G|. Exceptional divisor data lives on the rays of a fan of basic
cones inside the positive orthant of L; the valuation of a monomial x^m along
the divisor of a ray e is the plain dot product e(m).

Rays are stored in standard coordinates (denominators dividing |G|), so every
pairing is a direct dot product. Everything below the boundary runs on
integers: each ray keeps its vector scaled by its common denominator, and one
fraction-free elimination, `det_adjugate`, gives the determinant and adjugate
of the lattice's scaled basis and of each cone's scaled ray matrix. Fractions
are made only for values a caller reads.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul

from .group import GroupData
from .record import Record

Vector = tuple[Fraction, ...]


class NotBasicError(ValueError):
    """A cone whose rays do not form a lattice basis was used as a chart."""


def rational(x, what: str) -> Fraction:
    """x as a Fraction; ValueError unless x is a Fraction or an int other
    than a bool, since Fraction() would take a float at its binary value,
    True as 1 and a string of any length."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise ValueError(f"{what} must be int or Fraction, not {x!r}")
    return x if type(x) is Fraction else Fraction(x)


def _vec(values: Sequence) -> Vector:
    return tuple(rational(v, "coordinates") for v in values)


def det_adjugate(rows: Sequence[Sequence[int]]
                 ) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
    """(det, adj) of a square int matrix A, A·adj == det·I, from one
    fraction-free Gauss-Jordan elimination of [A | I] (Bareiss, Math. Comp.
    22, 1968); adj is None exactly when det is zero. Each entry is a minor
    of the row-swapped [A | I], so every division is exact, and the end is
    [c·I | c·A^-1] with c the determinant up to the sign of the swaps."""
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square and non-empty")
    aug = [[*row, *(int(i == j) for j in range(n))]
           for i, row in enumerate(rows)]
    sign, previous = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if aug[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            aug[k], aug[pivot], sign = aug[pivot], aug[k], -sign
        top = aug[k]
        aug = [row if row is top else [(top[k] * a - row[k] * b) // previous
                                       for a, b in zip(row, top)]
               for row in aug]
        previous = top[k]
    return sign * previous, tuple(tuple(sign * x for x in row[n:])
                                  for row in aug)


class LatticeL(Record):
    """An overlattice of the dual of Z^n, given by basis rows. Inside, the
    rows are ints over their common denominator S with determinant d and
    adjugate adj: the basis has determinant d / S^n and inverse S·adj / d."""

    basis: tuple[Vector, ...]

    def __init__(self, basis: Sequence[Sequence]) -> None:
        basis = tuple(_vec(row) for row in basis)
        scale = lcm(*(x.denominator for row in basis for x in row))
        d, adj = det_adjugate([[x.numerator * (scale // x.denominator)
                                for x in row] for row in basis])
        if adj is None:
            raise ValueError("lattice basis is singular")
        index, remainder = divmod(scale ** len(basis), abs(d))  # 1/|det|
        if remainder:
            raise ValueError(
                "basis does not generate an overlattice of the dual of Z^n "
                f"(1/|det| = {Fraction(scale ** len(basis), abs(d))} is not "
                "an integer)")
        columns = tuple(tuple(scale * a for a in c) for c in zip(*adj))
        # L contains Z^n exactly when the unit vectors' coordinates are ints
        if any(a % d for column in columns for a in column):
            raise ValueError("basis does not generate an overlattice of the "
                             "dual of Z^n (the inverse basis is not integral)")
        self.__dict__.update(basis=basis, _columns=columns, _det=d,
                             _index=index)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def index(self) -> int:
        """Index of the dual of Z^n inside this lattice (= |G|)."""
        return self._index  # type: ignore[attr-defined]

    @property
    def covolume(self) -> Fraction:
        return Fraction(1, self.index)

    def scaled_coordinates(self, scale: int, ints: Sequence[int]
                           ) -> tuple[list[int], int]:
        """(numerators, denominator): the coefficients in the basis rows of
        the vector ints / scale are the numerators over the denominator."""
        columns = self._columns  # type: ignore[attr-defined]
        return ([sum(map(mul, ints, column)) for column in columns],
                scale * self._det)  # type: ignore[attr-defined]


def build_lattice(group: GroupData) -> LatticeL:
    """The overlattice generated by the dual of Z^n and the weight rows /d_j.

    Its basis is the row-style Hermite form of S*L, S = lcm(d_j), built mod S
    (Cohen, A Course in Computational Algebraic Number Theory, 2.4): each
    row (S/d_j)*w_j joins S*I by Euclid's algorithm, column by column."""
    n = group.dim
    scale = lcm(*group.orders)
    basis = [[scale * int(i == j) for j in range(n)] for i in range(n)]
    for order, row in zip(group.orders, group.weights):
        v = [(scale // order) * w for w in row]
        for i in range(n):
            # S*e_j for j >= i lies in the rows from j on, which v has not
            # changed; mod S keeps v[i] >= 0, so every pivot stays positive
            v = [x % scale for x in v]
            while v[i]:
                q = basis[i][i] // v[i]
                basis[i], v = v, [a - q * b for a, b in zip(basis[i], v)]
    for i, j in itertools.combinations(range(n), 2):
        q = basis[i][j] // basis[j][j]
        basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]
    lattice = LatticeL(tuple(tuple(Fraction(x, scale) for x in row)
                             for row in basis))
    if lattice.index != group.order:
        raise ValueError(
            f"lattice index {lattice.index} != |G| = {group.order}; "
            "the weight map is not surjective"
        )
    return lattice


class Ray(Record):
    """A fan ray: primitive lattice generator of an exceptional divisor."""

    label: int
    vector: Vector

    def __init__(self, label: int, vector: Sequence) -> None:
        if type(label) is not int:
            raise ValueError(f"ray labels must be integers: {label!r}")
        super().__init__(label, _vec(vector))

    @property
    def name(self) -> str:
        return f"E{self.label}"

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """(D, ints): D is the common denominator of the vector and ints is
        D times the vector."""
        scale = lcm(*(x.denominator for x in self.vector))
        return scale, tuple(x.numerator * (scale // x.denominator)
                            for x in self.vector)


class Cone(Record):
    """A simplicial cone spanned by n fan rays (a chart of the resolution)."""

    rays: tuple[Ray, ...]

    @cached_property
    def labels(self) -> tuple[int, ...]:
        return tuple(r.label for r in self.rays)

    @cached_property
    def scale(self) -> int:
        """The product of the rays' denominators D_i, kept on the cone."""
        return prod(ray.scaled[0] for ray in self.rays)

    @cached_property
    def det_adjugate(self) -> tuple[int, tuple[tuple[int, ...], ...] | None]:
        """(d, adj) of the scaled ray matrix, whose rows are the rays'
        Ray.scaled ints, eliminated on first use and kept on the cone. The
        ray matrix has determinant d / scale and inverse entries
        adj[r][c]·D_c / d."""
        return det_adjugate([ray.scaled[1] for ray in self.rays])

    @cached_property
    def dual_basis(self) -> tuple[tuple[int, ...], ...]:
        """The columns of the inverse ray matrix as integer vectors, built
        on first use and kept on the cone; NotBasicError if not integral."""
        d, adj = self.det_adjugate
        if adj is not None:
            columns = [[a * ray.scaled[0] for a in column]
                       for column, ray in zip(zip(*adj), self.rays)]
            if not any(x % d for column in columns for x in column):
                return tuple(tuple(x // d for x in column)
                             for column in columns)
        raise NotBasicError(f"cone {self.labels}: dual basis is not integral")

    @cached_property
    def dual_columns(self) -> tuple[tuple[int, ...], ...]:
        """dual_columns[c][r] is dual_basis[r][c], kept on the cone."""
        return tuple(zip(*self.dual_basis))


class Fan(Record):
    """An overlattice together with rays and maximal basic cones."""

    lattice: LatticeL
    rays: tuple[Ray, ...]
    cones: tuple[Cone, ...]

    def __init__(self, lattice: LatticeL, rays: tuple[Ray, ...],
                 cones: tuple[Cone, ...]) -> None:
        if any(len(r.vector) != lattice.dim for r in rays):
            raise ValueError(f"every ray needs {lattice.dim} coordinates")
        labels = [r.label for r in rays]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate ray labels")
        known = {r.label: r for r in rays}
        for cone in cones:
            if len(cone.rays) != lattice.dim:
                raise ValueError(
                    f"cone {cone.labels} must have exactly "
                    f"{lattice.dim} rays"
                )
            for ray in cone.rays:
                if known.get(ray.label) != ray:
                    raise ValueError(f"cone uses unknown ray {ray.label}")
        super().__init__(lattice, rays, cones)

    @property
    def dim(self) -> int:
        return self.lattice.dim


def make_fan(
    lattice: LatticeL,
    ray_vectors: Sequence[Sequence],
    cone_indices: Sequence[Sequence[int]],
) -> Fan:
    """Assemble a Fan from raw vectors and 1-based ray index lists."""
    rays = tuple(Ray(i + 1, vec) for i, vec in enumerate(ray_vectors))
    ray_of = {r.label: r for r in rays}
    cones = []
    for indices in cone_indices:
        if any(type(i) is not int for i in indices):
            raise ValueError(f"cone {list(indices)} needs integer ray indices")
        try:
            cones.append(Cone(tuple(ray_of[i] for i in indices)))
        except KeyError as exc:
            raise ValueError(f"cone {list(indices)} references unknown ray "
                             f"{exc.args[0]}") from None
    return Fan(lattice, rays, tuple(cones))


def pairing(ray: Ray, m: Sequence) -> Fraction:
    """Valuation of the monomial x^m along the divisor of the ray: the dot
    product e(m) of the ray's vector with the int or Fraction entries of m,
    summed on the ray's scaled ints."""
    scale, ints = ray.scaled
    if len(m) != len(ints):
        raise ValueError(f"length mismatch: {len(ints)} vs {len(m)}")
    if not {int, Fraction}.issuperset(map(type, m)):
        raise ValueError(f"exponent entries must be ints or Fractions, "
                         f"not {m!r}")
    return Fraction(sum(map(mul, ints, m)), scale)


def junior_simplex(group: GroupData) -> tuple[Vector, ...]:
    """All points of L with coordinates >= 0 summing to 1.

    Unit vectors come first, then the interior-wall points in ascending
    lexicographic order. These points index the crepant exceptional divisors.
    The group element with exponents k_j in the cyclic factors is the point
    sum_j k_j w_j / d_j mod 1, listed on ints over S = lcm(d_j).
    """
    n = group.dim
    scale = lcm(*group.orders)
    steps = [[w * (scale // d) for w in row]
             for d, row in zip(group.orders, group.weights)]
    # an odometer over the factors, in memory independent of |G|: d_j steps
    # of factor j bring the point back, so a carry needs no correction
    point, counts, interior = [0] * n, [0] * len(steps), set()
    while True:
        if sum(point) == scale:
            interior.add(tuple(point))
        for j, step in enumerate(steps):
            point = [(x + s) % scale for x, s in zip(point, step)]
            counts[j] = (counts[j] + 1) % group.orders[j]
            if counts[j]:
                break
        else:
            break
    units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    return tuple(units) + tuple(
        tuple(Fraction(x, scale) for x in point) for point in sorted(interior))


def discrepancy(v: Sequence) -> Fraction:
    """Coordinate sum minus 1; zero exactly on junior points."""
    return sum((rational(x, "coordinates") for x in v), Fraction(0)) - 1


def x_valuation_on_X(lattice: LatticeL, axis: int) -> Fraction:
    """Valuation of the coordinate x_axis along the image of its hyperplane.

    axis is 1-based. Returns the least c > 0 with c * (unit vector) in the
    lattice; values below 1 witness ramification of the quotient map over
    that hyperplane.
    """
    if type(axis) is not int or not 1 <= axis <= lattice.dim:
        raise ValueError(f"axis {axis!r} must be an int in 1..{lattice.dim}")
    # the unit vector has coordinates row / d, and c * row / d is integral
    row, d = lattice.scaled_coordinates(
        1, [int(i == axis - 1) for i in range(lattice.dim)])
    return Fraction(abs(d), gcd(*row))  # exactly for c in |d| / gcd(row) * Z


class FanValidationReport(Record):
    """Diagnostics from validate_fan; passed is the overall verdict."""

    ray_errors: tuple[str, ...]
    cone_determinants: tuple[Fraction, ...]
    nonbasic_cones: tuple[int, ...]           # 1-based cone indices
    face_violations: tuple[tuple[int, int], ...]  # 1-based cone index pairs
    crepant: bool
    coverage: bool | None                     # None = not checked
    warnings: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not (self.ray_errors or self.nonbasic_cones
                    or self.face_violations) and self.coverage is not False

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "ray_errors": list(self.ray_errors),
            "cone_determinants": [str(d) for d in self.cone_determinants],
            "nonbasic_cones": list(self.nonbasic_cones),
            "face_violations": [list(p) for p in self.face_violations],
            "crepant": self.crepant,
            "coverage": self.coverage,
            "warnings": list(self.warnings),
        }


def validate_fan(fan: Fan) -> FanValidationReport:
    """Diagnostic sweep: ray sanity, basic cones, facet adjacency, crepancy
    and coverage of the positive orthant.

    The cones cover the orthant exactly once when they form a pseudo-manifold
    (De Loera, Rambau & Santos, Triangulations): two cones sharing a facet
    lie on opposite sides of it, and a facet of only one cone lies on a
    coordinate hyperplane. These local conditions make the covering degree
    constant, and the cross-sections with sum(x) = 1 have normalized volumes
    summing to that degree, so a volume sum of 1 certifies coverage.
    """
    lattice = fan.lattice
    n = fan.dim
    ray_errors = []
    for ray in fan.rays:
        scale, ints = ray.scaled
        coords, denominator = lattice.scaled_coordinates(scale, ints)
        if any(x < 0 for x in ints):
            ray_errors.append(f"{ray.name} has a negative coordinate")
        elif any(c % denominator for c in coords):
            ray_errors.append(f"{ray.name} is not a lattice point")
        elif gcd(*(c // denominator for c in coords)) != 1:
            ray_errors.append(f"{ray.name} is not primitive in the lattice")
    used = {label for cone in fan.cones for label in cone.labels}
    warnings = [f"{ray.name} does not occur in any maximal cone"
                for ray in fan.rays if ray.label not in used]

    # a cone's determinant is d / scale: basic when |d| / scale is 1 / index
    is_basic = [abs(cone.det_adjugate[0]) * lattice.index == cone.scale
                for cone in fan.cones]
    nonbasic = [k for k, b in enumerate(is_basic, start=1) if not b]
    basic = [k for k, b in enumerate(is_basic, start=1) if b]

    # facet (labels of n-1 rays) -> (1-based cone index, position of apex)
    facets: dict[frozenset[int], list[tuple[int, int]]] = {}
    for k in basic:
        labels = fan.cones[k - 1].labels
        for apex, label in enumerate(labels):
            facets.setdefault(frozenset(labels) - {label}, []).append(
                (k, apex))
    violations = set()
    for sharing in facets.values():
        for (a, i), (b, j) in itertools.combinations(sharing, 2):
            # b's apex has a positive coordinate ints·adj[:, i]·D_i / (d·D)
            # along a's apex (same side) when ints·adj[:, i]·d > 0
            d, adj = fan.cones[a - 1].det_adjugate
            ints = fan.cones[b - 1].rays[j].scaled[1]
            if sum(x * row[i] for x, row in zip(ints, adj)) * d > 0:
                violations.add((a, b))
    face_violations = sorted(violations)

    # on a passing fan each junior point is a sum of the rays of its basic
    # cone with int weights >= 0 summing to 1, so the rays are all of them
    crepant = not (ray_errors or any(sum(r.scaled[1]) != r.scaled[0]
                                     for r in fan.rays))
    coverage: bool | None = None
    if ray_errors or nonbasic or face_violations:
        warnings.append("support coverage not checked (earlier failures)")
    else:
        vectors = {r.label: r.scaled[1] for r in fan.rays}
        boundary_on_walls = all(
            any(all(vectors[label][i] == 0 for label in facet)
                for i in range(n))
            for facet, sharing in facets.items() if len(sharing) == 1
        )
        # a cone's volume |det| / prod(sum(vector)) is |d| / prod(sum(ints))
        volumes = [(abs(cone.det_adjugate[0]),
                    prod(sum(ray.scaled[1]) for ray in cone.rays))
                   for cone in fan.cones]
        common = lcm(*(v for _, v in volumes))
        coverage = boundary_on_walls and sum(
            d * (common // v) for d, v in volumes) == common
    determinants = tuple(Fraction(cone.det_adjugate[0], cone.scale)
                         for cone in fan.cones)
    return FanValidationReport(
        tuple(ray_errors), determinants, tuple(nonbasic),
        tuple(face_violations), crepant, coverage, tuple(warnings))
