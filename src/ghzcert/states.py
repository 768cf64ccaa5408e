"""GHZ states of N qudits at an exact collective rotation angle.

A rotated GHZ state lives on the d diagonal kets |nn...n> with amplitudes
exp(2*pi*i*(n - S)*Phi)/sqrt(d), where S = (d-1)/2 and Phi is the net
rotation in turns.  Only the amplitude phases are manipulated, exactly;
the common 1/sqrt(d) stays symbolic.  The net angle is all that matters:
rotating individual qudits through any angles with the same sum produces
the same state.  For even d the particles carry half-integer spin, so the
state returns to itself only after two full turns; Phi is therefore kept
modulo 2 turns (modulo 1 for odd d), and a net 2*pi rotation negates
every amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .operators import (
    DEFAULT_DENSE_CAP,
    CapExceededError,
    ProductOperator,
    _check_dim,
    _within,
)
from .phases import RationalPhase, as_turns

__all__ = [
    "Expectation",
    "GhzState",
    "InnerProduct",
    "apply_rotations",
    "dense_state",
    "eigenvalue_exponent",
    "expectation",
    "inner_product",
    "make_ghz",
]


@dataclass(frozen=True)
class GhzState:
    d: int
    n: int
    phi: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        _check_dim(self.d)
        if self.n < 1:
            raise ValueError("need at least one qudit")
        period = 1 if self.d % 2 else 2
        object.__setattr__(self, "phi", as_turns(self.phi) % period)

    @property
    def amplitude_phases(self) -> tuple[RationalPhase, ...]:
        """Phase of the amplitude on |kk...k>, for k = 0..d-1.

        The global factor exp(-2*pi*i*S*Phi) is kept, not dropped: it is
        what makes inner products between states at different angles real,
        and it carries the even-d sign flip under full turns.
        """
        spin = Fraction(self.d - 1, 2)
        return tuple(
            RationalPhase.from_fraction((k - spin) * self.phi) for k in range(self.d)
        )

    @property
    def circle_point(self) -> RationalPhase:
        """Where the state ray sits on the unit circle (Phi mod one turn)."""
        return RationalPhase.from_fraction(self.phi)


def make_ghz(d: int, n: int, phi: RationalPhase | Fraction | int = 0) -> GhzState:
    """GHZ state of n qudits rotated through a net angle of phi turns.

    phi = 0 gives the standard state (|00..0> + ... + |d-1 .. d-1>)/sqrt(d).
    """
    return GhzState(d, n, as_turns(phi))


def apply_rotations(
    state: GhzState, angles: Iterable[RationalPhase | Fraction | int]
) -> GhzState:
    """Rotate qudit k through angles[k]; only the exact net angle matters.

    Angles may be signed rationals (e.g. Fraction(-1, 9)) or RationalPhase
    circle points.  A net rotation summing to one full turn negates every
    amplitude when d is even.
    """
    turns = [as_turns(a) for a in angles]
    if len(turns) != state.n:
        raise ValueError(f"need {state.n} angles, got {len(turns)}")
    return GhzState(state.d, state.n, state.phi + sum(turns))


@dataclass(frozen=True)
class InnerProduct:
    """Exact zero-test plus machine-precision value of <a|b>."""

    is_zero: bool
    numeric: complex


def inner_product(a: GhzState, b: GhzState) -> InnerProduct:
    """<a|b>, which depends only on the net-angle difference.

    The overlap vanishes exactly iff the angles differ by a multiple of
    1/d that is not a whole turn; the d states at angles 0, 1/d, ...,
    (d-1)/d therefore form an orthonormal family.  The value is
    sin(pi*d*delta) / (d*sin(pi*delta)), real because the spin-S global
    phase cancels the midpoint phase of the geometric sum.
    """
    if (a.d, a.n) != (b.d, b.n):
        raise ValueError("states have different shapes")
    delta = b.phi - a.phi
    on_grid = (delta * a.d).denominator == 1
    whole_turns = delta.denominator == 1
    if on_grid and not whole_turns:
        return InnerProduct(True, 0j)
    if whole_turns:
        sign = -1.0 if ((a.d - 1) * int(delta)) % 2 else 1.0
        return InnerProduct(False, complex(sign))
    x = float(delta)
    value = math.sin(math.pi * a.d * x) / (a.d * math.sin(math.pi * x))
    return InnerProduct(False, complex(value))


def _check_shapes(state: GhzState, op: ProductOperator) -> None:
    if (state.d, state.n) != (op.d, op.n):
        raise ValueError("operator and state have different shapes")


def eigenvalue_exponent(state: GhzState, op: ProductOperator) -> Optional[RationalPhase]:
    """Exact eigenphase of a product observable on the diagonal subspace.

    Returns lambda with op|state> = exp(2*pi*i*lambda)|state> when the
    state is an eigenstate, else None.  The operator sends |kk..k> to
    |k+1 .. k+1> adding its collective angle Phi_op on every ket except
    the wrap-around ket, which gets (1-d)*Phi_op; the state's amplitude
    phases climb in constant steps of Phi.  So the ray is preserved iff
    d*(Phi_op - Phi) is a whole number of turns, with eigenphase
    Phi_op - Phi.  Only the collective angles enter: on the unrotated
    state, operators at nu/d give exactly nu/d; on the state at mu/d they
    give (nu - mu)/d.
    """
    _check_shapes(state, op)
    delta = op.collective_angle - state.circle_point
    if not delta.is_multiple_of_unit(state.d):
        return None
    return delta


@dataclass(frozen=True)
class Expectation:
    """Exact per-ket phase list and the numeric mean <state|op|state>."""

    phases: tuple[RationalPhase, ...]
    numeric: complex


def expectation(state: GhzState, op: ProductOperator) -> Expectation:
    """<state|op|state> as an exact phase average.

    The value is (1/d) * sum_k exp(2*pi*i*e_k) where e_k is the phase
    picked up by ket k minus the amplitude-phase step to ket k+1; with
    delta = Phi_op - Phi that is delta on d-1 kets and (1-d)*delta on the
    wrap-around ket.  Only the relative collective angle enters, never N,
    so N-body expectation values reduce to the one-body curve.
    """
    _check_shapes(state, op)
    d = state.d
    delta = op.collective_angle - state.circle_point
    terms = (delta,) * (d - 1) + (delta * (1 - d),)
    value = sum(t.to_complex() for t in terms) / d
    return Expectation(terms, value)


def dense_state(state: GhzState) -> np.ndarray:
    """Full d^N amplitude vector (numeric oracle); refuses above DEFAULT_DENSE_CAP."""
    if not _within(state.d, state.n, DEFAULT_DENSE_CAP):
        raise CapExceededError(
            f"dense state would have d^N = {state.d}^{state.n} entries, "
            f"cap is {DEFAULT_DENSE_CAP}"
        )
    vec = np.zeros(state.d**state.n, dtype=complex)
    stride = (vec.size - 1) // (state.d - 1)  # index of |kk...k> is k * stride
    norm = 1.0 / math.sqrt(state.d)
    for k, phase in enumerate(state.amplitude_phases):
        vec[k * stride] = norm * phase.to_complex()
    return vec
