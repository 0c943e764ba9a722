"""Exact classification of deformation families of the generic orbit on
toric resolutions of abelian quotient singularities."""

from .family import (
    BoundsReport,
    EquivalenceResult,
    NormalizedEnumeration,
    PerRayTable,
    QuiverRep,
    ReductorPiece,
    ReductorReport,
    ReductorSet,
    bounds_check,
    canonical_family,
    check_reductor,
    count_normalized,
    enumerate_normalized,
    enumerate_per_ray,
    equivalence_witness,
    lambda_shift,
    maximal_shift_family,
    quiver,
    quiver_to_dot,
    reductor_piece,
    reductor_set_from_json,
    reductor_set_to_json,
    reflect,
)
from .gdivisor import (
    CongruenceViolationError,
    GCartierDivisor,
    GluingViolationError,
    GWeilDivisor,
    cartier_to_weil,
    chart_monomial,
    divisor_from_json,
    divisor_to_json,
    linear_equivalence_witness,
    monomial_string,
    weil_to_cartier,
)
from .group import Character, GroupData
from .toric import (
    Cone,
    Fan,
    FanValidationReport,
    LatticeL,
    NotBasicError,
    Ray,
    build_lattice,
    discrepancy,
    junior_simplex,
    make_fan,
    pairing,
    validate_fan,
    x_valuation_on_X,
)

__version__ = "0.1.0"
