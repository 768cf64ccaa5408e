"""One-qudit monomial operators and N-qudit products of rotated shifts.

A monomial operator has exactly one unit-modulus entry in every row and
column, so it is fully determined by a cyclic shift and one phase per
basis column.  The clock operator Z, the shift operator X, axis rotations
R(phi) and the rotated observables X(phi) are all of this form, and their
products compose exactly in (shift, phases) coordinates.  Dense matrices
exist only as a bridge to numeric cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
import numpy as np

from .phases import RationalPhase, ZERO_PHASE, as_turns

__all__ = [
    "CapExceededError",
    "DEFAULT_DENSE_CAP",
    "MonomialOp",
    "ProductOperator",
    "make_rotated_x",
    "make_rotation",
    "make_x",
    "make_z",
]

DEFAULT_DENSE_CAP = 4096


class CapExceededError(ValueError):
    """A dense or enumerative cross-check would exceed its configured cap."""


def _check_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")


def _check_cell(d: int, n: int) -> None:
    """Reject a (d, N) cell outside d >= 2, N >= 3."""
    _check_dim(d)
    if n < 3:
        raise ValueError(f"GHZ contradictions need at least three qudits, got N = {n}")


def _json_object(data: object, what: str) -> dict:
    """Validate one parsed JSON value as an object."""
    if not isinstance(data, dict):
        kind = type(data).__name__
        raise ValueError(f"expected a JSON object for {what}, got {kind}")
    return data


def _json_list(value: object, what: str) -> list:
    """Validate one parsed JSON value as an array."""
    if not isinstance(value, list):
        kind = type(value).__name__
        raise ValueError(f"expected a JSON array for {what}, got {kind}")
    return value


def _json_int(value: object, what: str) -> int:
    """Validate one parsed JSON value as an integer (not a float or bool)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class MonomialOp:
    """d x d operator mapping |n> to exp(2*pi*i*phases[n]) |n+shift mod d>."""

    d: int
    shift: int
    phases: tuple[RationalPhase, ...]

    def __post_init__(self) -> None:
        _check_dim(self.d)
        if len(self.phases) != self.d:
            raise ValueError("need exactly one phase per basis column")
        object.__setattr__(self, "shift", self.shift % self.d)
        object.__setattr__(self, "phases", tuple(self.phases))

    @classmethod
    def identity(cls, d: int) -> "MonomialOp":
        return cls(d, 0, (ZERO_PHASE,) * d)

    def __matmul__(self, other: "MonomialOp") -> "MonomialOp":
        """Exact matrix product self @ other (self applied second)."""
        if not isinstance(other, MonomialOp):
            return NotImplemented
        if self.d != other.d:
            raise ValueError("dimension mismatch in composition")
        d = self.d
        phases = tuple(
            other.phases[n] + self.phases[(n + other.shift) % d] for n in range(d)
        )
        return MonomialOp(d, self.shift + other.shift, phases)

    def adjoint(self) -> "MonomialOp":
        d = self.d
        phases = tuple(-self.phases[(m - self.shift) % d] for m in range(d))
        return MonomialOp(d, -self.shift, phases)

    def rotated(self, phi: RationalPhase | Fraction | int) -> "MonomialOp":
        """Covariant rotation R(phi) @ self @ R(phi)^dagger."""
        r = make_rotation(self.d, phi)
        return r @ self @ r.adjoint()

    def to_dense(self) -> np.ndarray:
        mat = np.zeros((self.d, self.d), dtype=complex)
        for n in range(self.d):
            mat[(n + self.shift) % self.d, n] = self.phases[n].to_complex()
        return mat


def make_z(d: int) -> MonomialOp:
    """Clock operator: diagonal with entries omega^n, omega = exp(2*pi*i/d)."""
    return MonomialOp(d, 0, tuple(RationalPhase(n, d) for n in range(d)))


def make_x(d: int) -> MonomialOp:
    """Cyclic raising operator |n> -> |n+1>, with |d> identified with |0>."""
    return MonomialOp(d, 1, (ZERO_PHASE,) * d)


def make_rotated_x(d: int, phi: RationalPhase | Fraction | int) -> MonomialOp:
    """The rotated observable X(phi) = R(phi) X R(phi)^dagger in closed form.

    Every column carries phase phi except the wrap-around column, which
    carries (1-d)*phi.  Advancing phi by 1/d therefore multiplies the
    whole operator by omega, so X(phi) spans one period per 1/d turn.
    """
    angle = RationalPhase.from_fraction(as_turns(phi))
    return MonomialOp(d, 1, (angle,) * (d - 1) + (angle * (1 - d),))


def make_rotation(d: int, phi: RationalPhase | Fraction | int) -> MonomialOp:
    """Axis rotation exp(-i*S_z*phi) as a diagonal monomial operator.

    ``phi`` is a turn fraction; signed/whole-turn rationals are accepted so
    that a full turn stays distinguishable from no rotation, which matters
    for half-integer spin (even d), where a 2*pi rotation equals -1.
    """
    turns = as_turns(phi)
    spin = Fraction(d - 1, 2)
    phases = tuple(
        RationalPhase.from_fraction((n - spin) * turns) for n in range(d)
    )
    return MonomialOp(d, 0, phases)


@dataclass(frozen=True)
class ProductOperator:
    """Tensor product of rotated shift observables, one factor per qudit.

    Only the defining angles are stored; the collective angle and any
    matrix form are derived on demand.  Constructions reason about angles
    (periods, circle points), never about matrices.
    """

    d: int
    angles: tuple[RationalPhase, ...]

    def __post_init__(self) -> None:
        _check_dim(self.d)
        if len(self.angles) < 1:
            raise ValueError("need at least one factor")
        object.__setattr__(self, "angles", tuple(self.angles))

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def collective_angle(self) -> RationalPhase:
        """Sum of the factor angles, mod one turn.

        Over D = lcm(factor denominators) each angle num/den is the
        integer num*(D/den), so the sum is one integer sum over D.
        """
        common = math.lcm(*(a.den for a in self.angles))
        total = sum(a.num * (common // a.den) for a in self.angles)
        return RationalPhase(total, common)

    def factor(self, k: int) -> MonomialOp:
        return make_rotated_x(self.d, self.angles[k])

    def dense(self, cap: int = DEFAULT_DENSE_CAP) -> np.ndarray:
        """Full d^N x d^N matrix (numeric oracle); refuses above the cap."""
        size = self.d**self.n
        if size > cap:
            raise CapExceededError(
                f"dense matrix would be {size} x {size}, cap is {cap}"
            )
        return reduce(np.kron, (self.factor(k).to_dense() for k in range(self.n)))

    def apply_dense(self, vec: np.ndarray) -> np.ndarray:
        """Apply the operator to a full d^N vector in one monomial step.

        Equivalent to ``self.dense() @ vec`` but without materializing the
        matrix.  Every factor is a monomial operator, so the product sends
        the basis ket |n_1 ... n_N> to the product of the factors' column
        phases times |n_1+s_1 ... n_N+s_N>.  The phases and target indices
        of all d^N kets are built factor by factor as outer products (in
        ``np.kron``'s order: the first factor is the most significant
        digit), then the vector is multiplied once and scattered once.
        Factors with equal angles are equal, so each distinct angle's
        factor is built once.
        """
        d = self.d
        phase = np.ones(1, dtype=complex)
        target = np.zeros(1, dtype=np.intp)
        columns = np.arange(d)
        entries = {}  # angle -> (column phases, row of each column) of its factor
        for k, angle in enumerate(self.angles):
            if angle not in entries:
                f = self.factor(k)
                column_phases = np.array([p.to_complex() for p in f.phases])
                entries[angle] = column_phases, (columns + f.shift) % d
            column_phases, rows = entries[angle]
            phase = np.multiply.outer(phase, column_phases).ravel()
            target = np.add.outer(target * d, rows).ravel()
        image = np.empty(phase.size, dtype=complex)
        image[target] = phase * np.asarray(vec, dtype=complex).reshape(phase.size)
        return image


def _with_angles(d: int, n: int, placed: dict[int, RationalPhase]) -> ProductOperator:
    """N-qudit product with the given angles at 0-based positions, 0 elsewhere."""
    angles = [ZERO_PHASE] * n
    for pos, a in placed.items():
        angles[pos] = a
    return ProductOperator(d, tuple(angles))
