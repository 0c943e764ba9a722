"""Brute-force reference helpers that only the tests use.

`dot` and `mat_mul` multiply exact vectors and matrices, the second to
check inverses; `lattice_coordinates` reads a vector's coefficients in a
lattice's basis rows; `ray_matrix` is a cone's Fraction ray matrix;
`det_inverse` is the Fraction Gauss-Jordan elimination, the oracle for
`det_adjugate`, and `validate_fan_fraction` the Fraction `validate_fan`
built on it; `hermite_normal_form` is the general row-style Hermite
normal form of an integer matrix, the oracle for `build_lattice`; `frac`
is the fractional part of a rational;
`junior_by_closure` closes the lattice basis under addition mod 1, the
oracle for `junior_simplex`; `crepant_by_junior_set` compares the rays
with every junior point of L / Z^n, the oracle for
`FanValidationReport.crepant`;
`monomials_of_weight` lists every monomial of a given weight in a bounded
grid, the oracle for the maximal-shift values; `representative_monomial`
finds one monomial of each weight by breadth-first search, the oracle for
the fractional valuations (the fractional parts of the maximal shifts);
`enumerate_per_ray_dfs` is the recursive per-ray search, the oracle for
`enumerate_per_ray`.

The rest are the Fraction versions of the operations that now run on
scaled integers: `shortest_paths_fraction` (Dijkstra on Fraction costs),
`check_reductor_fraction`, `bounds_check_fraction`, `lambda_shift_fraction`,
`reflect_fraction` and `sets_fraction`, the oracles for
`GroupData.scaled_paths`, `check_reductor`, `bounds_check`,
`lambda_shift`, `reflect` and `NormalizedEnumeration.sets`. They build
divisors through the validating constructors and use only Fraction
arithmetic. The chart layer has three more: `pairing_fraction` (the
`dot` of a ray's Fraction vector), `chart_exponents_fraction` (Fraction
sums of the columns of the inverse ray matrix) and
`quiver_fraction` (cone coordinates q_s + e_j - q_t read from the set's
coefficients), the oracles for `pairing`, `chart_monomial` and `quiver`.
`cartier_to_weil_fraction` (Character weights, and ray valuations as
Fractions gathered in sets) and `equivalence_witness_fraction` (every
difference b - a made by divisor arithmetic) are the earlier library
`cartier_to_weil` and `equivalence_witness`, kept as they were, errors
included.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from gconstellations import (
    BoundsReport,
    Character,
    Cone,
    CongruenceViolationError,
    EquivalenceResult,
    Fan,
    FanValidationReport,
    GCartierDivisor,
    GluingViolationError,
    GroupData,
    GWeilDivisor,
    LatticeL,
    NormalizedEnumeration,
    PerRayTable,
    QuiverRep,
    Ray,
    ReductorReport,
    ReductorSet,
    linear_equivalence_witness,
    pairing,
)
from gconstellations.family import QuiverArrow
from gconstellations.toric import Vector, rational


def dot(u: Sequence, v: Sequence) -> Fraction:
    """The exact dot product of two equally long vectors."""
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def lattice_coordinates(lattice: LatticeL, v: Sequence) -> Vector:
    """Coefficients of v in the lattice's basis rows, from its
    scaled_coordinates; ValueError on an entry that is not an int or
    Fraction, or on a length other than the lattice's."""
    w = tuple(rational(x, "coordinates") for x in v)
    if len(w) != lattice.dim:
        raise ValueError(f"length mismatch: {lattice.dim} vs {len(w)}")
    scale = math.lcm(*(x.denominator for x in w))
    numerators, d = lattice.scaled_coordinates(
        scale, [x.numerator * (scale // x.denominator) for x in w])
    return tuple(Fraction(x, d) for x in numerators)


def ray_matrix(cone: Cone) -> tuple[Vector, ...]:
    """The cone's ray vectors as the rows of a Fraction matrix."""
    return tuple(ray.vector for ray in cone.rays)


def det_inverse(
    matrix: Sequence[Sequence[Fraction]],
) -> tuple[Fraction, tuple[tuple[Fraction, ...], ...] | None]:
    """Exact determinant and inverse from one Gauss-Jordan elimination on
    Fractions, the oracle for `det_adjugate`. The inverse is None exactly
    when the determinant is zero.
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


def frac(q: Fraction) -> Fraction:
    """Fractional part of q, always in [0, 1); q - frac(q) is an integer."""
    return Fraction(q.numerator % q.denominator, q.denominator)


def junior_by_closure(lattice: LatticeL) -> tuple[Vector, ...]:
    """All lattice points with coordinates >= 0 summing to 1.

    Unit vectors come first, then the interior-wall points in ascending
    lexicographic order. These points index the crepant exceptional divisors.
    """
    n = lattice.dim
    units = [
        tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
    ]
    # close the basis rows under addition mod 1 to list L / dual(Z^n)
    seen: set[Vector] = {tuple(Fraction(0) for _ in range(n))}
    queue = [next(iter(seen))]
    gens = [tuple(frac(x) for x in row) for row in lattice.basis]
    while queue:
        current = queue.pop()
        for g in gens:
            candidate = tuple(frac(a + b) for a, b in zip(current, g))
            if candidate not in seen:
                seen.add(candidate)
                queue.append(candidate)
    interior = sorted(v for v in seen if sum(v) == 1)
    return tuple(units) + tuple(interior)


def crepant_by_junior_set(fan: Fan) -> bool:
    """Whether the ray vectors are exactly the junior points of L / Z^n,
    all |G| points of which are listed."""
    return {r.vector for r in fan.rays} == set(junior_by_closure(fan.lattice))


def validate_fan_fraction(fan: Fan) -> FanValidationReport:
    """The earlier library validate_fan, on Fraction inverses from
    `det_inverse`: lattice coordinates, determinants, the facet side test
    and the volume sum all in Fraction arithmetic."""
    _, lattice_inverse = det_inverse(fan.lattice.basis)
    covolume = Fraction(1, fan.lattice.index)
    ray_errors = []
    for ray in fan.rays:
        coords = [dot(ray.vector, column) for column in zip(*lattice_inverse)]
        if any(x < 0 for x in ray.vector):
            ray_errors.append(f"{ray.name} has a negative coordinate")
        elif any(c.denominator != 1 for c in coords):
            ray_errors.append(f"{ray.name} is not a lattice point")
        elif math.gcd(*(c.numerator for c in coords)) != 1:
            ray_errors.append(f"{ray.name} is not primitive in the lattice")
    used = {label for cone in fan.cones for label in cone.labels}
    warnings = [f"{ray.name} does not occur in any maximal cone"
                for ray in fan.rays if ray.label not in used]
    eliminated = [det_inverse(ray_matrix(cone)) for cone in fan.cones]
    determinants = tuple(d for d, _ in eliminated)
    nonbasic = tuple(k for k, d in enumerate(determinants, start=1)
                     if abs(d) != covolume)
    facets: dict[frozenset[int], list[tuple[int, int]]] = {}
    for k, cone in enumerate(fan.cones, start=1):
        if k not in nonbasic:
            for apex, label in enumerate(cone.labels):
                facets.setdefault(frozenset(cone.labels) - {label},
                                  []).append((k, apex))
    violations = set()
    for sharing in facets.values():
        for (a, i), (b, j) in itertools.combinations(sharing, 2):
            column = [row[i] for row in eliminated[a - 1][1]]
            if dot(fan.cones[b - 1].rays[j].vector, column) > 0:
                violations.add((a, b))
    crepant = not (ray_errors or any(sum(r.vector) != 1 for r in fan.rays))
    coverage = None
    if ray_errors or nonbasic or violations:
        warnings.append("support coverage not checked (earlier failures)")
    else:
        vectors = {r.label: r.vector for r in fan.rays}
        boundary_on_walls = all(
            any(all(vectors[label][i] == 0 for label in facet)
                for i in range(fan.dim))
            for facet, sharing in facets.items() if len(sharing) == 1)
        volume = sum((abs(d) / math.prod(sum(v) for v in ray_matrix(cone))
                      for d, cone in zip(determinants, fan.cones)),
                     Fraction(0))
        coverage = boundary_on_walls and volume == 1
    return FanValidationReport(
        tuple(ray_errors), determinants, nonbasic, tuple(sorted(violations)),
        crepant, coverage, tuple(warnings))


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]
            ) -> list[list[Fraction]]:
    bt = list(zip(*b))
    return [[dot(row, col) for col in bt] for row in a]


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
    shifts = shortest_paths_fraction(group, ray.vector)
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

    # each row is kept as the index of each value in its candidate list
    rows: list[tuple[int, ...]] = []
    assignment: list[Fraction] = [Fraction(0)] * count
    indices: list[int] = [0] * count

    def extend(position: int) -> None:
        if position == count:
            rows.append(tuple(indices))
            return
        for index, value in enumerate(candidates[position]):
            assignment[position] = value
            indices[position] = index
            if all(
                assignment[s] + cost - assignment[t] >= 0
                for s, t, cost in pending[position]
            ):
                extend(position + 1)

    extend(0)
    return PerRayTable(ray.label, tuple(chars),
                       tuple(map(tuple, candidates)), tuple(rows))


def shortest_paths_fraction(group: GroupData, costs: Sequence[Fraction]
                            ) -> tuple[Fraction, ...]:
    """Dijkstra from the trivial character on Fraction costs, by index."""
    if any(cost < 0 for cost in costs):
        raise ValueError(f"step costs must be >= 0, not {costs}")
    dist: list[Optional[Fraction]] = [None] * group.order
    dist[0] = Fraction(0)
    heap = [(dist[0], 0)]
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue
        for cost, target in zip(costs, group.steps[i]):
            nd = d + cost
            if dist[target] is None or nd < dist[target]:
                dist[target] = nd
                heapq.heappush(heap, (nd, target))
    if None in dist:
        raise ValueError("weight map is not surjective")
    return tuple(dist)


def check_reductor_fraction(family: ReductorSet, fan: Fan,
                            group: GroupData) -> ReductorReport:
    chars = family.characters
    if list(chars) != group.characters():
        return ReductorReport(
            ("need exactly one divisor per character, sorted by residues",),
            (), (),
        )
    incongruent: list[list[int]] = [[] for _ in chars]
    condition = []
    coeff_maps = [d.as_map() for d in family.divisors]
    for ray in fan.rays:
        label = ray.label
        costs = ray.vector
        shifts = shortest_paths_fraction(group, costs)
        q = [cm.get(label, Fraction(0)) for cm in coeff_maps]
        for i, row in enumerate(group.steps):
            if (q[i] - shifts[i]).denominator != 1:
                incongruent[i].append(label)
            for j, target in enumerate(row):
                if q[i] + costs[j] - q[target] < 0:
                    condition.append((chars[i], j + 1, label))
    labels = {ray.label for ray in fan.rays}
    for bad, cm in zip(incongruent, coeff_maps):
        bad.extend(sorted(set(cm) - labels))
    congruence = tuple(
        (char, label) for char, bad in zip(chars, incongruent) for label in bad
    )
    return ReductorReport((), congruence, tuple(condition))


def bounds_check_fraction(family: ReductorSet, fan: Fan,
                          group: GroupData) -> BoundsReport:
    if not family.is_normalized:
        return BoundsReport(False, ())
    violations = []
    for ray in fan.rays:
        shifts = shortest_paths_fraction(group, ray.vector)
        for divisor in family.divisors:
            q = divisor.coefficient(ray.label)
            char = divisor.character
            i = group.index[char]
            if q > shifts[i]:
                violations.append((char, ray.label, "upper"))
            if q < -shifts[group.inverses[i]]:
                violations.append((char, ray.label, "lower"))
    return BoundsReport(True, tuple(violations))


def lambda_shift_fraction(family: ReductorSet,
                          lam: Character) -> ReductorSet:
    if not family.is_normalized:
        raise ValueError("lambda_shift expects a normalized set")
    by_char = {d.character: d for d in family.divisors}
    lam_inv_char = lam.inverse()
    lam_inv = by_char[lam_inv_char]
    return ReductorSet.from_divisors([
        by_char[char * lam_inv_char] - lam_inv for char in family.characters
    ])


def reflect_fraction(family: ReductorSet) -> ReductorSet:
    by_char = {d.character: d for d in family.divisors}
    return ReductorSet.from_divisors([
        -by_char[char.inverse()] for char in family.characters
    ])


def sets_fraction(enumeration: NormalizedEnumeration,
                  limit: Optional[int] = None) -> Iterator[ReductorSet]:
    chars = enumeration.group.characters()
    labels = [t.ray_label for t in enumeration.tables]
    combos = itertools.product(*(t.rows for t in enumeration.tables))
    for combo in itertools.islice(combos, limit):
        yield ReductorSet(tuple(
            GWeilDivisor.from_map(
                char, {label: row[c] for label, row in zip(labels, combo)})
            for c, char in enumerate(chars)
        ))


def pairing_fraction(ray: Ray, m: Sequence) -> Fraction:
    """e(m) as the exact dot product of the ray's Fraction vector."""
    return dot(ray.vector, m)


def chart_exponents_fraction(cone: Cone, lattice: LatticeL,
                             rows: Sequence[Sequence[Fraction]]
                             ) -> list[Optional[tuple[int, ...]]]:
    """Per row of coefficients at the cone's rays, the coefficient-weighted
    Fraction sum of the columns of the inverse ray matrix, or None if it is
    not integral. The matrix is inverted once per call; the cone must be
    basic."""
    _, inverse = det_inverse(ray_matrix(cone))
    exponents = []
    for coefficients in rows:
        m = [Fraction(0)] * lattice.dim
        for c, dual in zip(coefficients, zip(*inverse)):
            if c:
                m = [a + c * d for a, d in zip(m, dual)]
        exponents.append(None if any(x.denominator != 1 for x in m)
                         else tuple(int(x) for x in m))
    return exponents


def quiver_fraction(family: ReductorSet, cone: Cone, fan: Fan,
                    group: GroupData) -> QuiverRep:
    """The quiver with labels p_s + u_j - p_t from chart_exponents_fraction
    and cone coordinates q_s(e) + e_j - q_t(e) from the coefficients."""
    chars = group.characters()
    by_char = {d.character: d for d in family.divisors}
    exponents = dict(zip(by_char, chart_exponents_fraction(
        cone, fan.lattice, [[d.coefficient(ray.label) for ray in cone.rays]
                            for d in by_char.values()])))
    arrows = []
    for d in family.divisors:
        source = d.character
        for j, step in enumerate(group.steps[group.index[source]]):
            target = chars[step]
            label = tuple(s + int(i == j) - t for i, (s, t) in enumerate(
                zip(exponents[source], exponents[target])))
            coords = tuple(
                d.coefficient(ray.label) + ray.vector[j]
                - by_char[target].coefficient(ray.label)
                for ray in cone.rays
            )
            arrows.append(QuiverArrow(source, target, j + 1, label, coords))
    return QuiverRep(cone, family.characters, tuple(arrows))


def cartier_to_weil_fraction(cartier: GCartierDivisor, fan: Fan,
                             group: GroupData) -> GWeilDivisor:
    """Read off ray coefficients from any cone containing each ray."""
    if len(cartier.exponents) != len(fan.cones):
        raise ValueError("one exponent per maximal cone required")
    for k, m in enumerate(cartier.exponents, start=1):
        if group.weight(m) != cartier.character:
            raise CongruenceViolationError(
                f"cone {k} exponent {m} does not have weight "
                f"{cartier.character.name}"
            )
    # each ray's valuations of the exponents of the cones containing it
    values: dict[int, set[Fraction]] = {ray.label: set() for ray in fan.rays}
    for cone, m in zip(fan.cones, cartier.exponents):
        for ray in cone.rays:
            values[ray.label].add(pairing(ray, m))
    bad = [label for label, seen in values.items() if len(seen) > 1]
    if bad:
        raise GluingViolationError(
            f"exponents disagree along shared rays {bad}"
        )
    return GWeilDivisor.from_map(cartier.character, {
        label: seen.pop() for label, seen in values.items() if seen
    })


def equivalence_witness_fraction(a: ReductorSet, b: ReductorSet, fan: Fan,
                                 group: GroupData) -> EquivalenceResult:
    """The two families differ by tensoring iff D'_chi - D_chi is constant.

    When the constant divisor is principal (monomial witness) the families
    are isomorphic as sheaves of modules, not just equivalent.
    """
    if a.characters != b.characters:
        raise ValueError("families live over different character groups")
    differences = [db - da for da, db in zip(a.divisors, b.divisors)]
    first = differences[0]
    if any(d.entries != first.entries for d in differences[1:]):
        return EquivalenceResult(None, None, False)
    zero = GWeilDivisor(group.trivial_character, ())
    witness = linear_equivalence_witness(zero, first, fan, group)
    return EquivalenceResult(first, witness, witness is not None)
