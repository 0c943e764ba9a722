"""The package's data classes are immutable values, and importing the
package loads only the standard-library modules it runs.

Every record is built twice, from two loads of problems/c8_125.json, so
each test compares equal objects that share no state.
"""

import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import gconstellations
from gconstellations import (
    Character,
    GroupData,
    GWeilDivisor,
    ReductorSet,
    bounds_check,
    canonical_family,
    check_reductor,
    enumerate_normalized,
    enumerate_per_ray,
    equivalence_witness,
    quiver,
    reductor_piece,
    validate_fan,
    weil_to_cartier,
)
from gconstellations.cli import load_problem
from gconstellations.record import Record

PROBLEM = Path(__file__).resolve().parent.parent / "problems" / "c8_125.json"

# each record's fields, in order, as its repr lists them
FIELDS = {
    "Character": ("residues", "orders"),
    "GroupData": ("orders", "weights"),
    "LatticeL": ("basis",),
    "Ray": ("label", "vector"),
    "Cone": ("rays",),
    "Fan": ("lattice", "rays", "cones"),
    "FanValidationReport": ("ray_errors", "cone_determinants",
                            "nonbasic_cones", "face_violations", "crepant",
                            "coverage", "warnings"),
    "GWeilDivisor": ("character", "entries"),
    "GCartierDivisor": ("character", "exponents"),
    "ReductorSet": ("divisors",),
    "ReductorReport": ("structure_errors", "congruence_violations",
                       "condition_violations"),
    "PerRayTable": ("ray_label", "characters", "values", "positions"),
    "NormalizedEnumeration": ("group", "tables", "count"),
    "BoundsReport": ("normalized", "violations"),
    "ReductorPiece": ("cone", "characters", "exponents"),
    "QuiverArrow": ("source", "target", "coordinate", "exponent",
                    "cone_coordinates"),
    "QuiverRep": ("cone", "vertices", "arrows"),
    "EquivalenceResult": ("difference", "monomial", "isomorphic"),
}


def build() -> dict:
    """One record of every class, keyed by class name."""
    group, fan, _ = load_problem(str(PROBLEM))
    family = canonical_family(fan, group)
    divisor = family.divisors[3]
    rep = quiver(family, fan.cones[1], fan, group)
    records = [
        group.characters()[3], group, fan.lattice, fan.rays[6], fan.cones[1],
        fan, validate_fan(fan), divisor, weil_to_cartier(divisor, fan, group),
        family, check_reductor(family, fan, group),
        enumerate_per_ray(fan.rays[6], group),
        enumerate_normalized(fan, group), bounds_check(family, fan, group),
        reductor_piece(family, fan.cones[1], fan, group), rep.arrows[5], rep,
        equivalence_witness(family, family, fan, group),
    ]
    return {type(record).__name__: record for record in records}


@pytest.fixture(scope="module")
def pairs():
    return build(), build()


def read_cached(record) -> None:
    """Read every cached property of the record."""
    for name, value in vars(type(record)).items():
        if isinstance(value, cached_property):
            getattr(record, name)


@pytest.mark.parametrize(
    "module", ["gconstellations", "gconstellations.cli"])
def test_import_loads_no_dataclasses_inspect_or_typing(module):
    # -S keeps site from loading modules of its own; the parent directory of
    # the package under test, src/ or site-packages, is the one path to it
    root = str(Path(gconstellations.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"import {module}, gconstellations\n"
        "print(gconstellations.__file__)\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code, root],
                            capture_output=True, text=True, check=True)
    source, loaded = result.stdout.splitlines()
    assert Path(source).resolve() == Path(gconstellations.__file__).resolve()
    assert loaded == "[]"


def test_every_record_class_is_built(pairs):
    classes = {cls.__name__ for cls in Record.__subclasses__()}
    assert classes == set(FIELDS) == set(pairs[0])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_equal_records_compare_and_hash_on_their_fields(pairs, name):
    a, b = pairs[0][name], pairs[1][name]
    assert a is not b
    # values kept on the side (cached properties) do not count
    read_cached(a)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(getattr(a, field) for field in FIELDS[name])


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_equality_reads_every_field(pairs, name):
    a = pairs[0][name]
    for field in FIELDS[name]:
        other = object.__new__(type(a))
        other.__dict__.update(vars(a), **{field: object()})
        assert other != a and a != other


def test_side_values_leave_records_equal(pairs):
    # build() checked the set, which read ReductorSet.scaled, and made the
    # canonical family, which filled GroupData._paths by Dijkstra
    family, group = pairs[0]["ReductorSet"], pairs[0]["GroupData"]
    fresh_family = ReductorSet(family.divisors)
    fresh_group = GroupData.cyclic(8, (1, 2, 5))
    assert "scaled" in vars(family) and "scaled" not in vars(fresh_family)
    assert group._paths and not fresh_group._paths
    assert family == fresh_family and hash(family) == hash(fresh_family)
    assert group == fresh_group and hash(group) == hash(fresh_group)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repr_lists_the_fields(pairs, name):
    a = pairs[0][name]
    fields = ", ".join(f"{field}={getattr(a, field)!r}"
                       for field in FIELDS[name])
    assert repr(a) == f"{name}({fields})"


def test_repr_examples(pairs):
    records = pairs[0]
    assert repr(records["Character"]) == "Character(residues=(3,), orders=(8,))"
    assert repr(records["GroupData"]) == (
        "GroupData(orders=(8,), weights=((1, 2, 5),))")
    assert repr(records["Ray"]) == (
        "Ray(label=7, vector=(Fraction(5, 8), Fraction(1, 4), "
        "Fraction(1, 8)))")
    assert repr(records["BoundsReport"]) == (
        "BoundsReport(normalized=True, violations=())")


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_records_are_immutable(pairs, name):
    a, b = pairs[0][name], pairs[1][name]
    for field in (*FIELDS[name], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == b


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_constructors_check_their_arity(pairs, name):
    cls = type(pairs[0][name])
    with pytest.raises(TypeError):
        cls()


# Character, GroupData and LatticeL keep values on the side from __init__
@pytest.mark.parametrize("name", sorted(
    set(FIELDS) - {"Character", "GroupData", "LatticeL"}))
def test_trusted_constructor_fills_the_fields_in_order(pairs, name):
    a, b = pairs[0][name], pairs[1][name]
    trusted = type(a)._trusted(*(getattr(b, field) for field in FIELDS[name]))
    assert type(trusted) is type(a)
    assert trusted == a and hash(trusted) == hash(a)
    assert repr(trusted) == repr(a)


def test_trusted_constructors_match_the_validating_ones(pairs):
    group = pairs[0]["GroupData"]
    for residues in ((0,), (3,), (7,)):
        reduced = Character._reduced(residues, (8,))
        for raw in (residues, (residues[0] + 8,), (residues[0] - 16,)):
            char = Character(raw, [8])
            assert char == reduced and hash(char) == hash(reduced)
            assert type(char.orders) is tuple
    char = group.character((5,))
    entries = ((2, Fraction(1, 4)), (5, Fraction(-3, 8)), (7, Fraction(1)))
    trusted = GWeilDivisor._trusted(char, entries)
    for raw in (entries, entries[::-1] + ((4, 0),), list(entries)):
        divisor = GWeilDivisor(char, raw)
        assert divisor == trusted and hash(divisor) == hash(trusted)
        assert repr(divisor) == repr(trusted)
