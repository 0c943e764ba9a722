"""Reference oracle for fan validation: the pairwise face search.

Every pair of basic cones is checked to meet exactly in their common face:
each extreme ray of the intersection is the kernel of n-1 of the 2n facet
functionals and must lie in the span of the shared rays. This is quadratic
in the cone count and independent of the facet-adjacency certificate in
`gconstellations.toric.validate_fan`, which the property tests compare
against it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from gconstellations.toric import Cone, Fan
from oracles import det_inverse, ray_matrix


def _kernel_vector(rows: Sequence[Sequence[Fraction]],
                   n: int) -> Optional[tuple[Fraction, ...]]:
    """A spanning vector of the kernel of (n-1) functionals, or None if the
    kernel is not one-dimensional."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        m[r] = [a / pv for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    if r != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    v = [Fraction(0)] * n
    v[free] = Fraction(1)
    for row_idx, c in enumerate(pivots):
        v[c] = -m[row_idx][free]
    return tuple(v)


def _cone_coords(inverse, v: Sequence[Fraction]) -> list[Fraction]:
    n = len(inverse)
    return [
        sum((v[i] * inverse[i][j] for i in range(n)), Fraction(0))
        for j in range(n)
    ]


def _faces_properly(cone_a: Cone, inv_a, cone_b: Cone, inv_b, n: int) -> bool:
    """Check that the two cones intersect exactly in their common face.

    Every extreme ray of the intersection is the kernel of n-1 of the 2n
    facet functionals; it must lie in the span of the shared rays.
    """
    shared = set(cone_a.labels) & set(cone_b.labels)
    functionals = [
        tuple(inv[i][j] for i in range(n))
        for inv in (inv_a, inv_b)
        for j in range(n)
    ]
    checked: set[tuple[Fraction, ...]] = set()
    for subset in itertools.combinations(functionals, n - 1):
        kv = _kernel_vector(subset, n)
        if kv is None:
            continue
        scale = next(x for x in kv if x)
        normalized = tuple(x / scale for x in kv)
        if normalized in checked:
            continue
        checked.add(normalized)
        for v in (normalized, tuple(-x for x in normalized)):
            coords_a = _cone_coords(inv_a, v)
            if any(c < 0 for c in coords_a):
                continue
            if any(c < 0 for c in _cone_coords(inv_b, v)):
                continue
            # v is in both cones; it must be a combination of shared rays
            for ray, coef in zip(cone_a.rays, coords_a):
                if coef != 0 and ray.label not in shared:
                    return False
    return True


def pairwise_face_violations(fan: Fan) -> list[tuple[int, int]]:
    """1-based index pairs of basic cones that do not meet in a common face."""
    n = fan.dim
    inverses = {}
    for k, cone in enumerate(fan.cones, start=1):
        d, inverse = det_inverse(ray_matrix(cone))
        if abs(d) == fan.lattice.covolume:
            inverses[k] = inverse
    face_violations = []
    indexed = [k for k in range(1, len(fan.cones) + 1) if k in inverses]
    for a, b in itertools.combinations(indexed, 2):
        cone_a, cone_b = fan.cones[a - 1], fan.cones[b - 1]
        if not _faces_properly(cone_a, inverses[a], cone_b, inverses[b], n):
            face_violations.append((a, b))
    return face_violations
