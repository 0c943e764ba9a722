"""Families of G-constellations as reductor sets, and their classification.

A reductor set picks one chi-divisor per character such that multiplication
by any coordinate stays regular: q_{chi,i} + e_i(x_j) - q_{chi*w(x_j),i} >= 0
for every ray e_i and coordinate x_j. Checking the n coordinates suffices;
general monomials follow by telescoping.

The inequalities couple coefficients at a single ray only, so normalized
sets factor as a Cartesian product of finite per-ray tables. The canonical
family (fractional valuations) and the maximal-shift family (cheapest
weight-chi monomial per ray) are distinguished members; every normalized set
sits coefficientwise between the maximal shifts and their reflection, which
is what makes the tables finite.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import attrgetter, getitem, mod, mul, neg, sub

from .gdivisor import (
    _ZERO,
    GWeilDivisor,
    Scaled,
    chart_exponents,
    divisor_from_json,
    divisor_to_json,
    incongruent_rays,
    linear_equivalence_witness,
    monomial_string,
    scaled_coefficients,
)
from .group import Character, GroupData
from .record import Record
from .toric import Cone, Fan, Ray


_residues = attrgetter("character.residues")


class ReductorSet(Record):
    """One chi-divisor per character, sorted by residue tuple. A set that
    NormalizedEnumeration.sets() yields holds its cells until divisors is read."""

    divisors: tuple[GWeilDivisor, ...]

    @classmethod
    def from_divisors(cls, divisors) -> "ReductorSet":
        return cls(tuple(sorted(divisors, key=_residues)))

    @cached_property
    def divisors(self) -> tuple[GWeilDivisor, ...]:
        return tuple(GWeilDivisor._trusted(char, tuple(filter(None, c)))
                     for char, c in self.__dict__.pop("_cells"))

    @cached_property
    def characters(self) -> tuple[Character, ...]:
        return tuple(d.character for d in self.divisors)

    @cached_property
    def is_normalized(self) -> bool:
        return all(not d.entries or not d.character.is_trivial
                   for d in self.divisors)

    @cached_property
    def scaled(self) -> Scaled:
        """The divisors' scaled_coefficients (D, label -> column)."""
        return scaled_coefficients(self.divisors)

    @cached_property
    def _rows(self) -> dict[tuple, tuple[int, ...]]:
        """Each divisor's scaled row by its character's (residues, orders),
        empty when no label holds a coefficient; ValueError when two
        divisors share a character."""
        columns = self.scaled[1].values()
        rows = {(c.residues, c.orders): row for c, row in zip(
            self.characters, list(zip(*columns)) or itertools.repeat(()))}
        if len(rows) != len(self.characters):
            raise ValueError(_STRUCTURE_ERROR)
        return rows


class ReductorReport(Record):
    """Outcome of check_reductor; empty tuples everywhere means a pass."""

    structure_errors: tuple[str, ...]
    congruence_violations: tuple[tuple[Character, int], ...]
    condition_violations: tuple[tuple[Character, int, int], ...]
    # condition triples are (character, coordinate index j (1-based), ray label)

    @property
    def passed(self) -> bool:
        return not (
            self.structure_errors
            or self.congruence_violations
            or self.condition_violations
        )

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "structure_errors": list(self.structure_errors),
            "congruence_violations": [
                {"char": c.to_json(), "ray": f"E{label}"}
                for c, label in self.congruence_violations
            ],
            "condition_violations": [
                {"char": c.to_json(), "coordinate": j, "ray": f"E{label}"}
                for c, j, label in self.condition_violations
            ],
        }


_STRUCTURE_ERROR = "need exactly one divisor per character, sorted by residues"


def _ray_columns(family: ReductorSet, fan: Fan):
    """(ray, D, q) per fan ray: D is the set's common denominator and q[k]
    is D * D_e times the k-th divisor's coefficient at the ray, for the
    ray's D_e, so q compares as ints with D times the ray's scaled values."""
    scale, columns = family.scaled
    zeros = (0,) * len(family.characters)
    for ray in fan.rays:
        d_e = ray.scaled[0]
        yield ray, scale, [n * d_e for n in columns.get(ray.label, zeros)]


def check_reductor(family: ReductorSet, fan: Fan,
                   group: GroupData) -> ReductorReport:
    """Verify structure, congruences and the multiplication inequalities,
    all on the set's scaled form (D, label -> column) as ints."""
    chars = family.characters
    if list(chars) != group.characters():
        return ReductorReport((_STRUCTURE_ERROR,), (), ())
    congruence = tuple(
        (char, label) for k, char in enumerate(chars)
        for label in incongruent_rays(family.scaled, k, k, fan, group)
    )
    condition = []
    for ray, scale, q in _ray_columns(family, fan):
        costs = [cost * scale for cost in ray.scaled[1]]
        for i, row in enumerate(group.steps):
            for j, target in enumerate(row):
                if q[i] + costs[j] < q[target]:
                    condition.append((chars[i], j + 1, ray.label))
    return ReductorReport((), congruence, tuple(condition))


def _family_of_shifts(fan: Fan, group: GroupData, value) -> ReductorSet:
    """D_chi has coefficient value(n, D) at each ray, for the ray's maximal
    shifts n / D. Each distinct value at a ray is made once."""
    per_ray = []
    for ray in sorted(fan.rays, key=attrgetter("label")):
        shifts = group.scaled_paths(ray.scaled)
        exact = {n: value(n, ray.scaled[0]) for n in set(shifts)}
        per_ray.append((ray.label, [exact[n] for n in shifts]))
    return ReductorSet(tuple(GWeilDivisor._trusted(char, tuple(
        (label, values[i]) for label, values in per_ray if values[i]))
        for i, char in enumerate(group.characters())))


def canonical_family(fan: Fan, group: GroupData) -> ReductorSet:
    """The fractional-valuation family: D_chi = sum_i v(E_i, chi) E_i, where
    v(E_i, chi) is the fractional part of the maximal shift."""
    return _family_of_shifts(fan, group, lambda n, d: Fraction(n % d, d))


def maximal_shift_family(fan: Fan, group: GroupData) -> ReductorSet:
    """The family of divisors of cheapest weight-chi monomials per ray."""
    return _family_of_shifts(fan, group, Fraction)


class PerRayTable(Record):
    """All admissible coefficient rows at one ray, in lexicographic order,
    kept as positions: a row p gives the k-th character the coefficient
    values[k][p[k]], where values[k] lists its candidates from low to high.
    A row is bytes when every values[k] has at most 256 entries, else a
    tuple of ints; both index alike. In enumerate_normalized's tables each
    candidate is the enumeration's one object of its value."""

    ray_label: int
    characters: tuple[Character, ...]
    values: tuple[tuple[Fraction, ...], ...]
    positions: tuple[bytes | tuple[int, ...], ...]

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as Fractions, made on first read."""
        return tuple(tuple(map(getitem, self.values, p))
                     for p in self.positions)


def enumerate_per_ray(ray: Ray, group: GroupData) -> PerRayTable:
    """Every admissible coefficient row at one ray, in lexicographic order.

    q_chi = low_chi + c_chi with low_chi = -M(chi^-1) and an integer position
    0 <= c_chi <= M(chi) - low_chi; the trivial character has only 0. Along
    x_j from s to t, q_s + e_j - q_t >= 0 reads c_t <= c_s + b with
    b = low_s + e_j - low_t. The bounds are scaled by the common denominator
    D of the ray, and only the candidate values q_chi become Fractions. One
    loop assigns the characters in order; each row is kept as its positions,
    packed as bytes when every character has at most 256 candidates.
    """
    chars = group.characters()
    count = len(chars)
    scale, costs = ray.scaled
    shifts = group.scaled_paths(ray.scaled)
    lows = [-shifts[inverse] for inverse in group.inverses]
    spans = [high - low for high, low in zip(shifts, lows)]
    edges = [(s, t, lows[s] + cost - lows[t])
             for s, row in enumerate(group.steps)
             for t, cost in zip(row, costs)]
    if any(n % scale for n in spans + [b for _, _, b in edges]):
        raise ValueError(f"{ray.name}: the per-ray bounds are not congruent")
    candidates = tuple(tuple(Fraction(low + k * scale, scale)
                             for k in range(span // scale + 1))
                       for low, span in zip(lows, spans))
    # uppers[t] holds (s, b) for s < t: c_t <= c_s + b; lowers[s] holds
    # (t, b) for t < s: c_s >= c_t - b; a loop holds since costs are >= 0
    uppers: list[list[tuple[int, int]]] = [[] for _ in chars]
    lowers: list[list[tuple[int, int]]] = [[] for _ in chars]
    for s, t, b in edges:
        if s < t:
            uppers[t].append((s, b // scale))
        elif t < s:
            lowers[s].append((t, b // scale))
    pack = bytes if all(len(v) <= 256 for v in candidates) else tuple
    positions: list[bytes | tuple[int, ...]] = []
    c = [0] * count    # current position per character
    top = [0] * count  # largest admissible position given the earlier ones
    k = 0
    while k >= 0:
        if k == count:
            positions.append(pack(c))
        else:
            lo, hi = 0, len(candidates[k]) - 1
            for t, b in lowers[k]:
                if c[t] - b > lo:
                    lo = c[t] - b
            for s, b in uppers[k]:
                if c[s] + b < hi:
                    hi = c[s] + b
            if lo <= hi:
                c[k], top[k] = lo, hi
                k += 1
                continue
        # back up to the last character with a larger position left
        k -= 1
        while k >= 0 and c[k] == top[k]:
            k -= 1
        if k >= 0:
            c[k] += 1
            k += 1
    return PerRayTable(ray.label, tuple(chars), candidates,
                       tuple(positions))


class NormalizedEnumeration(Record):
    """Per-ray tables and their count; sets() and cells() stream the sets."""

    group: GroupData
    tables: tuple[PerRayTable, ...]
    count: int

    def cells(self, cell, limit: int | None = None) -> Iterator[zip]:
        """The sets in stream order, each as a zip over the characters of
        cell(label, q) per table in increasing ray label, None where q is 0.
        The product runs over the tables in fan order and reads them in
        label order. cell must return a true value; it is called once per
        table, character and position, and a table row's tuple of cells is
        made on the row's first visit."""
        order = sorted(range(len(self.tables)),
                       key=lambda k: self.tables[k].ray_label)
        cells = [[tuple(cell(t.ray_label, q) if q else None for q in v)
                  for v in t.values] for t in self.tables]
        made = [[None] * len(t.positions) for t in self.tables]
        no_rays = [(None,) * self.group.order]  # for a fan without rays

        def make(k: int, i: int) -> tuple:
            made[k][i] = row = tuple(map(getitem, cells[k],
                                         self.tables[k].positions[i]))
            return row

        combos = itertools.product(*(range(len(m)) for m in made))
        if limit is not None:
            combos = itertools.islice(combos, max(limit, 0))
        for combo in combos:
            yield zip(*[made[k][combo[k]] or make(k, combo[k])
                        for k in order] or no_rays)

    def sets(self, limit: int | None = None) -> Iterator[ReductorSet]:
        """The sets in stream order, each making its divisors on first read.
        They hold the tables' candidates and the enumeration's value pool,
        which the sets derived from them read: one object per value per
        enumeration."""
        chars = self.group.characters()
        pool = self.__dict__.setdefault("_pool", _value_pool())
        for cells in self.cells(lambda label, q: (label, q), limit):
            lazy = object.__new__(ReductorSet)
            lazy.__dict__.update(_cells=zip(chars, cells), _pool=pool)
            yield lazy


def _value_pool() -> tuple[dict, dict]:
    """An empty value pool (by_scale, values): by_scale[D][n] is its one
    Fraction n / D and values maps the value's as_integer_ratio() to that
    object; its zero is the one coefficient() returns for a missing label."""
    return {}, {(0, 1): _ZERO}


def enumerate_normalized(fan: Fan, group: GroupData) -> NormalizedEnumeration:
    """Complete classification: Cartesian product of the per-ray tables,
    whose candidates come from the enumeration's value pool."""
    pool = _value_pool()
    values = pool[1]
    tables = []
    for ray in fan.rays:  # each table made alone, its candidates then pooled
        table = enumerate_per_ray(ray, group)
        tables.append(PerRayTable(
            table.ray_label, table.characters,
            tuple(tuple(values.setdefault(v.as_integer_ratio(), v)
                        for v in candidates)
                  for candidates in table.values), table.positions))
    count = prod(len(t.positions) for t in tables)
    enumeration = NormalizedEnumeration(group, tuple(tables), count)
    enumeration.__dict__["_pool"] = pool
    return enumeration


def _unscaled(family: ReductorSet, rows: list[list[int]]) -> ReductorSet:
    """The family's characters with coefficients rows / D at its labels,
    each n / D the one object of its value in the family's pool, which the
    derived set keeps: a set of sets() and all derived from it read one pool
    per enumeration, and a miss on (D, n) finds an equal value there."""
    scale, columns = family.scaled
    held = family.__dict__
    if "_pool" not in held:  # a set made otherwise starts a pool of its own
        held["_pool"] = _value_pool()
    pool = held["_pool"]
    by_scale, values = pool
    exact = by_scale.setdefault(scale, {})
    for n in set().union(*rows).difference(exact):
        value = Fraction(n, scale)
        exact[n] = values.setdefault(value.as_integer_ratio(), value)
    derived = ReductorSet.from_divisors([
        GWeilDivisor._trusted(char, tuple(zip(
            itertools.compress(columns, row),
            map(exact.__getitem__, filter(None, row)))))
        for char, row in zip(family.characters, rows)
    ])
    derived.__dict__["_pool"] = pool
    return derived


def lambda_shift(family: ReductorSet, lam: Character) -> ReductorSet:
    """Tensor the family by the lambda eigenspace: D'_{chi*lam} = D_chi - D_{lam^-1}.

    The result at chi is D_{chi*lam^-1} - D_{lam^-1}, of character chi,
    subtracted on the coefficients scaled by their common denominator and
    found by (residues, orders), the fields that make characters equal.
    KeyError when lam^-1 or some chi*lam^-1 has no divisor, ValueError
    when a character is of another group than lam or has two divisors.
    """
    if not family.is_normalized:
        raise ValueError("lambda_shift expects a normalized set")
    by_char = family._rows
    shift, orders = lam.residues, lam.orders
    lam_inv = by_char[tuple(map(mod, map(neg, shift), orders)), orders]
    shifted = []
    for c in family.characters:
        if c.orders != orders:
            raise ValueError("characters of different groups")
        shifted.append(list(map(sub, by_char[tuple(map(
            mod, map(sub, c.residues, shift), orders)), orders], lam_inv)))
    return _unscaled(family, shifted)


def reflect(family: ReductorSet) -> ReductorSet:
    """The dual family D'_chi = -D_{chi^-1}; an involution, negated on the
    coefficients scaled by their common denominator and found as in
    lambda_shift. KeyError when some chi^-1 has no divisor, ValueError
    when a character has two."""
    by_char = family._rows
    return _unscaled(family, [
        list(map(neg, by_char[tuple(map(mod, map(neg, c.residues),
                                        c.orders)), c.orders]))
        for c in family.characters
    ])


class BoundsReport(Record):
    """Coefficientwise comparison against the maximal-shift envelope."""

    normalized: bool
    violations: tuple[tuple[Character, int, str], ...]
    # (character, ray label, which bound failed: 'upper' or 'lower')

    @property
    def passed(self) -> bool:
        return self.normalized and not self.violations

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "normalized": self.normalized,
            "violations": [
                {"char": c.to_json(), "ray": f"E{label}", "bound": side}
                for c, label, side in self.violations
            ],
        }


def bounds_check(family: ReductorSet, fan: Fan,
                 group: GroupData) -> BoundsReport:
    """Check M_chi >= D_chi >= -M_{chi^-1} coefficientwise (normalized sets),
    on ints over each ray's common denominator; ValueError when a character
    is of another group."""
    if not family.is_normalized:
        return BoundsReport(False, ())
    if any(c.orders != group.orders for c in family.characters):
        raise ValueError("characters of different groups")
    violations = []
    for ray, scale, q in _ray_columns(family, fan):
        shifts = [n * scale for n in group.scaled_paths(ray.scaled)]
        for char, qk in zip(family.characters, q):
            i = group.index[char]
            if qk > shifts[i]:
                violations.append((char, ray.label, "upper"))
            if qk < -shifts[group.inverses[i]]:
                violations.append((char, ray.label, "lower"))
    return BoundsReport(True, tuple(violations))


class ReductorPiece(Record):
    """Per-chart monomial generators of a family, one exponent per character."""

    cone: Cone
    characters: tuple[Character, ...]
    exponents: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "cone": list(self.cone.labels),
            "generators": [
                {
                    "char": c.to_json(),
                    "exponent": list(m),
                    "monomial": monomial_string(m),
                }
                for c, m in zip(self.characters, self.exponents)
            ],
        }


def reductor_piece(family: ReductorSet, cone: Cone, fan: Fan,
                   group: GroupData) -> ReductorPiece:
    """Chart generators p_chi: the chart monomial of each D_chi on the cone."""
    # identity first, since Record equality compares the cones ray by ray
    k = next((k for k, known in enumerate(fan.cones, 1) if known is cone), 0)
    if not k and cone not in fan.cones:
        raise ValueError(f"cone {cone.labels} is not a cone of the fan")
    k = k or fan.cones.index(cone) + 1
    return ReductorPiece(cone, family.characters, chart_exponents(
        family.characters, family.scaled, (k,), fan, group))


class QuiverArrow(Record):
    source: Character
    target: Character
    coordinate: int            # 1-based index of the acting coordinate
    exponent: tuple[int, ...]  # Laurent exponent of the arrow label
    cone_coordinates: tuple[Fraction, ...]  # label in the cone's dual basis

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "coordinate": self.coordinate,
            "exponent": list(self.exponent),
            "monomial": monomial_string(self.exponent),
            "cone_coordinates": [str(c) for c in self.cone_coordinates],
        }


class QuiverRep(Record):
    """The McKay quiver of the family on one chart: |G| vertices, n arrows
    out of each, labeled by invariant monomials with nonnegative chart
    coordinates."""

    cone: Cone
    vertices: tuple[Character, ...]
    arrows: tuple[QuiverArrow, ...]

    def to_json(self) -> dict:
        return {
            "cone": list(self.cone.labels),
            "vertices": [c.to_json() for c in self.vertices],
            "arrows": [a.to_json() for a in self.arrows],
        }


def quiver(family: ReductorSet, cone: Cone, fan: Fan,
           group: GroupData) -> QuiverRep:
    """Arrows chi -> chi * weight(x_j) labeled p_chi + u_j - p_target.

    A ray e of the cone pairs with the label to e(p_chi) + e_j - e(p_target),
    made on the ray's scaled ints for all characters at once, step by step;
    each distinct value at a ray becomes a Fraction once. ValueError unless
    the set has one divisor per character, in residue order.
    """
    if list(family.characters) != group.characters():
        raise ValueError(_STRUCTURE_ERROR)
    piece = reductor_piece(family, cone, fan, group)
    chars, exponents = piece.characters, piece.exponents
    steps = list(zip(*group.steps))  # steps[j][i] is group.steps[i][j]
    # per ray, [j][i] is its coordinate of the arrow from i along x_{j+1}
    per_ray = []
    for scale, ints in (ray.scaled for ray in cone.rays):
        dots = [sum(map(mul, ints, m)) for m in exponents]
        values = [[s + e - dots[t] for s, t in zip(dots, targets)]
                  for e, targets in zip(ints, steps)]
        exact = {v: Fraction(v, scale) for v in set().union(*values)}
        per_ray.append([list(map(exact.__getitem__, v)) for v in values])
    arrows = [[] for _ in chars]  # arrows[i]: the arrows out of character i
    for j, targets in enumerate(steps):
        labels = zip(*([s - column[t] + (c == j) for s, t in zip(
            column, targets)] for c, column in enumerate(zip(*exponents))))
        coordinates = zip(*(at_ray[j] for at_ray in per_ray))
        for out, char, t, label, coords in zip(
                arrows, chars, targets, labels, coordinates):
            out.append(QuiverArrow._trusted(char, chars[t], j + 1, label,
                                            coords))
    return QuiverRep(cone, chars, tuple(itertools.chain(*arrows)))


def quiver_to_dot(rep: QuiverRep) -> str:
    """Deterministic DOT rendering, one digraph per chart."""
    lines = [
        "digraph mckay_quiver {",
        f'  label="chart {list(rep.cone.labels)}";',
        "  rankdir=LR;",
    ]
    for vertex in rep.vertices:
        lines.append(f'  "{vertex.name}";')
    for arrow in rep.arrows:
        gen = monomial_string(tuple(int(j == arrow.coordinate) for j
                                    in range(1, len(arrow.exponent) + 1)))
        coords = ",".join(str(c) for c in arrow.cone_coordinates)
        lines.append(
            f'  "{arrow.source.name}" -> "{arrow.target.name}" '
            f'[label="{gen}: {monomial_string(arrow.exponent)} ({coords})"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


class EquivalenceResult(Record):
    """Common difference of two families, when one exists."""

    difference: GWeilDivisor | None
    monomial: tuple[int, ...] | None
    isomorphic: bool

    @property
    def equivalent(self) -> bool:
        return self.difference is not None

    def to_json(self) -> dict:
        return {
            "equivalent": self.equivalent,
            "difference": (
                divisor_to_json(self.difference)
                if self.difference is not None else None
            ),
            "isomorphic": self.isomorphic,
            "monomial": list(self.monomial) if self.monomial else None,
        }


def equivalence_witness(a: ReductorSet, b: ReductorSet, fan: Fan,
                        group: GroupData) -> EquivalenceResult:
    """The two families differ by tensoring iff D'_chi - D_chi is constant.

    When the constant divisor is principal (monomial witness) the families
    are isomorphic as sheaves of modules, not just equivalent.
    """
    if a.characters != b.characters:
        raise ValueError("families live over different character groups")
    if not a.divisors:
        raise ValueError(_STRUCTURE_ERROR)
    first = b.divisors[0] - a.divisors[0]
    # the others as ints over D_a * D_b: b - a is constant along each label
    (da, ca), (db, cb) = a.scaled, b.scaled
    zeros = (0,) * len(a.divisors)
    if any(len({y * da - x * db for x, y in zip(ca.get(label, zeros),
                                                cb.get(label, zeros))}) > 1
           for label in ca.keys() | cb.keys()):
        return EquivalenceResult(None, None, False)
    zero = GWeilDivisor(group.trivial_character, ())
    witness = linear_equivalence_witness(zero, first, fan, group)
    return EquivalenceResult(first, witness, witness is not None)


def reductor_set_to_json(family: ReductorSet) -> dict:
    return {"divisors": [divisor_to_json(d) for d in family.divisors]}


def reductor_set_from_json(obj: Mapping, fan: Fan,
                           group: GroupData) -> ReductorSet:
    if not isinstance(obj, Mapping) or "divisors" not in obj:
        raise ValueError("reductor set object needs a 'divisors' list")
    divisors = [
        divisor_from_json(item, fan, group) for item in obj["divisors"]
    ]
    chars = [d.character for d in divisors]
    if len(set(chars)) != len(chars):
        raise ValueError("duplicate character in reductor set")
    return ReductorSet.from_divisors(divisors)
