"""Exact construction and certification of GHZ contradictions for qudits.

The library builds generalized GHZ states and covariantly rotated product
observables for N qudits of any dimension d, synthesizes the three
families of concurrent operators that exhibit quantum-versus-hidden-
variable contradictions, and certifies each contradiction by proving the
induced linear congruence system over Z_d unsolvable.  All core logic is
exact (rational turn fractions and integer linear algebra); floats appear
only in the numeric cross-check oracles.
"""

from .constructions import (
    Certificate,
    CertificationError,
    Construction,
    NoContradiction,
    RegimeCell,
    check_genuine_dimension,
    check_irreducible,
    classify,
    classify_plane,
    method1,
    method1_operator_set,
    method2,
    method2_operator_set,
    method3,
    verify_construction,
    witness_construction,
)
from .hidden_variables import (
    Constraint,
    FactorLabel,
    HVSystem,
    HVVerdict,
    InvarianceReport,
    Relation,
    brute_force_solve,
    forced_value,
    invariance_demo,
    satisfiable,
    solve,
    system_from_operators,
)
from .operators import (
    CapExceededError,
    DEFAULT_DENSE_CAP,
    MonomialOp,
    ProductOperator,
    make_rotated_x,
    make_rotation,
    make_x,
    make_z,
)
from .phases import PhaseParseError, RationalPhase, ZERO_PHASE
from .states import (
    Expectation,
    GhzState,
    InnerProduct,
    apply_rotations,
    dense_state,
    eigenvalue_exponent,
    expectation,
    inner_product,
    make_ghz,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceededError",
    "Certificate",
    "CertificationError",
    "Constraint",
    "Construction",
    "DEFAULT_DENSE_CAP",
    "Expectation",
    "FactorLabel",
    "GhzState",
    "HVSystem",
    "HVVerdict",
    "InnerProduct",
    "InvarianceReport",
    "MonomialOp",
    "NoContradiction",
    "PhaseParseError",
    "ProductOperator",
    "RationalPhase",
    "RegimeCell",
    "Relation",
    "ZERO_PHASE",
    "apply_rotations",
    "brute_force_solve",
    "check_genuine_dimension",
    "check_irreducible",
    "classify",
    "classify_plane",
    "dense_state",
    "eigenvalue_exponent",
    "expectation",
    "forced_value",
    "inner_product",
    "invariance_demo",
    "make_ghz",
    "make_rotated_x",
    "make_rotation",
    "make_x",
    "make_z",
    "method1",
    "method1_operator_set",
    "method2",
    "method2_operator_set",
    "method3",
    "satisfiable",
    "solve",
    "system_from_operators",
    "verify_construction",
    "witness_construction",
]
