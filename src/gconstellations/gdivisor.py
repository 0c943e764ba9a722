"""Rational Weil divisors twisted by a character, and their Cartier form.

A chi-divisor assigns to each fan ray a rational coefficient congruent mod Z
to the fractional valuation of weight-chi monomials along that ray. On a
smooth toric chart such a divisor is cut out by a single Laurent monomial,
and the per-chart exponents glue along shared rays; converting back and
forth between the two presentations is exact linear algebra over the cone's
dual basis.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul

from .group import Character, GroupData
from .record import Record
from .toric import Fan, NotBasicError, pairing, rational

_ZERO = Fraction(0)

Scaled = tuple[int, dict[int, tuple[int, ...]]]


class CongruenceViolationError(ValueError):
    """Divisor coefficients incompatible with their character's valuations."""


class GluingViolationError(ValueError):
    """Per-cone exponents that disagree along a shared ray."""


def monomial_string(exponent: Sequence[int]) -> str:
    """Human form of a Laurent exponent: (1,1,-1) -> 'xy/z'.

    Uses x, y, z for up to three variables, x1..xn beyond that.
    """
    n = len(exponent)
    if n <= 3:
        names = ["x", "y", "z"][:n]
        joiner = ""
    else:
        names = [f"x{i}" for i in range(1, n + 1)]
        joiner = "*"

    def side(pairs: list[tuple[str, int]]) -> str:
        return joiner.join(
            name if e == 1 else f"{name}^{e}" for name, e in pairs
        )

    num = [(name, e) for name, e in zip(names, exponent) if e > 0]
    den = [(name, -e) for name, e in zip(names, exponent) if e < 0]
    if not num and not den:
        return "1"
    result = side(num) if num else "1"
    if den:
        result += "/" + side(den)
    return result


class GWeilDivisor(Record):
    """A character plus rational ray coefficients (zeros omitted).

    entries are (ray label, coefficient) pairs, sorted by label; the divisor
    is valid on a fan when each coefficient is congruent mod Z to the
    fractional valuation of its character along that ray.
    """

    character: Character
    entries: tuple[tuple[int, Fraction], ...]

    def __init__(self, character: Character,
                 entries: Sequence[tuple[int, Fraction]]) -> None:
        cleaned = []
        for label, c in entries:
            if type(label) is not int:
                raise ValueError(f"ray labels must be integers: {label!r}")
            c = rational(c, "coefficients")
            if c:
                cleaned.append((label, c))
        cleaned.sort()
        labels = [label for label, _ in cleaned]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate ray label in divisor")
        super().__init__(character, tuple(cleaned))

    @classmethod
    def from_map(cls, character: Character,
                 coeffs: Mapping[int, Fraction]) -> "GWeilDivisor":
        return cls(character, tuple(coeffs.items()))

    def coefficient(self, label: int) -> Fraction:
        for lab, c in self.entries:
            if lab == label:
                return c
        return _ZERO

    def as_map(self) -> dict[int, Fraction]:
        return dict(self.entries)

    def __add__(self, other: "GWeilDivisor") -> "GWeilDivisor":
        coeffs = self.as_map()
        for label, c in other.entries:
            coeffs[label] = coeffs.get(label, Fraction(0)) + c
        return GWeilDivisor.from_map(self.character * other.character, coeffs)

    def __neg__(self) -> "GWeilDivisor":
        return GWeilDivisor(
            self.character.inverse(),
            tuple((label, -c) for label, c in self.entries),
        )

    def __sub__(self, other: "GWeilDivisor") -> "GWeilDivisor":
        return self + -other


class GCartierDivisor(Record):
    """Per-cone Laurent exponents, aligned with the fan's cone order."""

    character: Character
    exponents: tuple[tuple[int, ...], ...]

    def __init__(self, character: Character,
                 exponents: Sequence[Sequence[int]]) -> None:
        exponents = tuple(tuple(m) for m in exponents)
        if any(type(x) is not int for m in exponents for x in m):
            raise ValueError(f"exponents must be integers: {exponents}")
        super().__init__(character, exponents)


def incongruent_rays(scaled: Scaled, k: int, i: int, fan: Fan,
                     group: GroupData) -> list[int]:
    """Labels of fan rays where the k-th divisor of the scaled form (D,
    columns) has a coefficient not congruent mod Z to the maximal shift of
    the group's i-th character (as every weight-chi valuation is), then the
    labels not in the fan where that divisor has a coefficient."""
    scale, columns = scaled
    off_fan = dict(columns)
    bad = []
    for ray in fan.rays:
        d_e = ray.scaled[0]
        n = group.scaled_paths(ray.scaled)[i]
        column = off_fan.pop(ray.label, None)
        q = column[k] if column else 0
        # q / D - n / D_e is an integer iff q * D_e - n * D is 0 mod D * D_e
        if (q * d_e - n * scale) % (scale * d_e):
            bad.append(ray.label)
    return bad + [label for label, column in off_fan.items() if column[k]]


def scaled_coefficients(divisors: Sequence[GWeilDivisor]) -> Scaled:
    """(D, columns): D is the lcm of the coefficients' denominators and
    columns[label] is D times each divisor's coefficient at that label, for
    the labels holding a nonzero coefficient, in increasing order."""
    entries = [d.entries for d in divisors]
    scale = lcm(*(c.denominator for e in entries for _, c in e))
    columns = {label: [0] * len(entries)
               for label in sorted({label for e in entries for label, _ in e})}
    for k, e in enumerate(entries):
        for label, c in e:
            columns[label][k] = c.numerator * (scale // c.denominator)
    return scale, {label: tuple(column) for label, column in columns.items()}


def chart_exponents(chars: Sequence[Character], scaled: Scaled,
                    ks: Sequence[int], fan: Fan,
                    group: GroupData) -> tuple[tuple[int, ...], ...]:
    """The chart monomial of each divisor on each k-th cone of ks (1-based),
    in cone order, then divisor order, from the divisors' characters and
    their scaled_coefficients (D, columns): the cone's dual basis weighted
    by the divisor's column entries at its rays, summed and divided by D,
    one dual column at a time over all (cone, divisor) pairs at once. Per
    cone, as from one call each: ValueError unless k is an int in
    1..len(fan.cones), NotBasicError unless the rays form a lattice basis,
    then a CongruenceViolationError naming a coefficient off the fan, or the
    first exponent that is not integral or not of its divisor's weight."""
    scale, columns = scaled
    foreign = sorted(set(columns).difference(ray.label for ray in fan.rays))
    cones = []
    try:
        for k in ks:
            if type(k) is not int or not 1 <= k <= len(fan.cones):
                raise ValueError(
                    f"cone index {k!r} out of range 1..{len(fan.cones)}")
            cone = fan.cones[k - 1]
            d = abs(cone.det_adjugate[0])  # basic at |det| = 1 / index
            if d * fan.lattice.index != cone.scale:
                raise NotBasicError(f"cone {cone.labels} is not basic: |det| "
                                    f"= {Fraction(d, cone.scale)}, expected "
                                    f"{fan.lattice.covolume}")
            if foreign:
                raise CongruenceViolationError(
                    f"coefficients on rays {foreign}, which are not in the fan")
            cones.append(cone)
    except ValueError:  # the exponents on the cones before raise theirs first
        chart_exponents(chars, scaled, ks[:len(cones)], fan, group)
        raise
    zeros = (0,) * len(chars)
    # per cone, D times each divisor's coefficients at the cone's rays;
    # sums[c] holds D times the c-th entry of every exponent
    at_rays = [list(zip(*map(columns.get, cone.labels, repeat(zeros))))
               for cone in cones]
    sums = [[sum(map(mul, q, column))
             for qs, column in zip(at_rays, dual) for q in qs]
            for dual in zip(*[cone.dual_columns for cone in cones])]
    exponents = tuple(zip(*([x // scale for x in s] for s in sums)))
    weights = [[sum(map(mul, w, m)) % d for m in exponents]
               for w, d in zip(group.weights, group.orders)]
    if (fan.dim != group.dim or any(x % scale for s in sums for x in s)
            or any(c.orders != group.orders for c in chars) or list(
                zip(*weights)) != [c.residues for c in chars] * len(cones)):
        pairs = zip(zip(*sums), exponents)
        for k, cone in zip(ks, cones):
            for j, (char, (m, exponent)) in enumerate(zip(chars, pairs)):
                if any(x % scale for x in m):
                    bad = char.orders == group.orders and incongruent_rays(
                        scaled, j, group.index[char], fan, group)
                    raise CongruenceViolationError(
                        f"coefficients violate the congruence invariant on "
                        f"rays {bad or cone.labels}; cone {k} exponent is "
                        "non-integral")
                weight = group.weight(exponent)
                if weight != char:
                    raise CongruenceViolationError(
                        f"cone {k} exponent {exponent} has weight "
                        f"{weight.name}, expected {char.name}")
    return exponents


def chart_monomial(divisor: GWeilDivisor, k: int, fan: Fan,
                   group: GroupData) -> tuple[int, ...]:
    """The Laurent exponent m that cuts out the divisor on the k-th cone
    (1-based), by chart_exponents and with its errors."""
    return chart_exponents((divisor.character,),
                           scaled_coefficients((divisor,)), (k,), fan, group)[0]


def weil_to_cartier(divisor: GWeilDivisor, fan: Fan,
                    group: GroupData) -> GCartierDivisor:
    """The chart monomial of the divisor on every cone, in cone order."""
    return GCartierDivisor._trusted(divisor.character, chart_exponents(
        (divisor.character,), scaled_coefficients((divisor,)),
        range(1, len(fan.cones) + 1), fan, group))


def cartier_to_weil(cartier: GCartierDivisor, fan: Fan,
                    group: GroupData) -> GWeilDivisor:
    """Read off ray coefficients from any cone containing each ray, on ints."""
    if len(cartier.exponents) != len(fan.cones):
        raise ValueError("one exponent per maximal cone required")
    char, exponents = cartier.character, cartier.exponents
    weights = [[sum(map(mul, w, m)) % d for m in exponents]
               for w, d in zip(group.weights, group.orders)]
    if (char.orders != group.orders or set(map(len, exponents)) - {group.dim}
            or weights != [[r] * len(exponents) for r in char.residues]):
        for k, m in enumerate(exponents, start=1):
            if group.weight(m) != char:  # ValueError on a wrong length
                raise CongruenceViolationError(
                    f"cone {k} exponent {m} does not have weight {char.name}")
    if fan.cones and fan.dim != group.dim:
        raise ValueError(f"length mismatch: {fan.dim} vs {group.dim}")
    # each ray's D_e times the valuations of the exponents of its cones
    values: dict[int, set[int]] = {ray.label: set() for ray in fan.rays}
    for cone, m in zip(fan.cones, exponents):
        for ray in cone.rays:
            values[ray.label].add(sum(map(mul, ray.scaled[1], m)))
    bad = [label for label, seen in values.items() if len(seen) > 1]
    if bad:
        raise GluingViolationError(
            f"exponents disagree along shared rays {bad}")
    return GWeilDivisor._trusted(char, tuple(sorted(
        (ray.label, Fraction(v, ray.scaled[0]))
        for ray in fan.rays for v in values[ray.label] if v)))


def linear_equivalence_witness(
    a: GWeilDivisor, b: GWeilDivisor, fan: Fan, group: GroupData
) -> tuple[int, ...] | None:
    """A monomial exponent m with div(x^m) = b - a on all fan rays, or None.

    The fan's rays span the ambient space, so the witness is unique if it
    exists: it is the chart monomial of b - a on the first cone, checked
    against every ray.
    """
    diff = b - a
    try:
        candidate = chart_monomial(diff, 1, fan, group)
    except CongruenceViolationError:
        return None
    for ray in fan.rays:
        if pairing(ray, candidate) != diff.coefficient(ray.label):
            return None
    return candidate


def divisor_to_json(divisor: GWeilDivisor) -> dict:
    return {
        "char": divisor.character.to_json(),
        "coeffs": {f"E{label}": str(c) for label, c in divisor.entries},
    }


def parse_character(raw, group: GroupData) -> Character:
    """Accept an int (cyclic groups) or a residue list."""
    if isinstance(raw, bool):
        raise ValueError("character must be an integer or residue list")
    if isinstance(raw, int):
        if len(group.orders) != 1:
            raise ValueError(
                "integer character shorthand only works for cyclic groups"
            )
        return group.character((raw,))
    if isinstance(raw, (list, tuple)):
        if len(raw) != len(group.orders):
            raise ValueError(
                f"character needs {len(group.orders)} residues, got {len(raw)}"
            )
        # int() would truncate 1.5 and read true as 1
        if any(type(x) is not int for x in raw):
            raise ValueError(f"character residues must be integers, not {raw!r}")
        return group.character(tuple(raw))
    raise ValueError(f"cannot parse character from {raw!r}")


def parse_rational(raw, what: str) -> Fraction:
    """An exact rational from a JSON integer or a string of ASCII digits,
    "-", "/" and "." such as "5/8". A JSON float such as 0.1 has no exact
    value, and Fraction would expand "1e9" in full, read "1_0" as 10 and
    "+1/8" or " 1/8" as 1/8, and on Python 3.12 and later "1 / 8" too: all
    of these are rejected, so every Python reads the same grammar."""
    if type(raw) is int or (isinstance(raw, str)
                            and set(raw) <= set("0123456789-/.")):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            pass  # "1/-8", "--1", "1/8/8", "", "." or "1/0"
    raise ValueError(f"{what} must be an exact rational: a JSON string or a "
                     f"JSON integer, not {raw!r}")


def divisor_from_json(obj: Mapping, fan: Fan,
                      group: GroupData) -> GWeilDivisor:
    if not isinstance(obj, Mapping) or "char" not in obj:
        raise ValueError("divisor object needs 'char' and 'coeffs'")
    character = parse_character(obj["char"], group)
    return GWeilDivisor.from_map(
        character, ray_coefficients(obj.get("coeffs", {}), fan)
    )


def ray_coefficients(raw: Mapping, fan: Fan) -> dict[int, Fraction]:
    """Exact coefficients keyed by ray name, exactly as "E4" for E4."""
    if not isinstance(raw, Mapping):
        raise ValueError("coefficients must be an object keyed by ray name")
    labels = {ray.name: ray.label for ray in fan.rays}
    coeffs = {}
    for key, value in raw.items():
        if key not in labels:
            raise ValueError(f"unknown ray label {key!r}")
        coeffs[labels[key]] = parse_rational(value, f"coefficient of {key}")
    return coeffs
