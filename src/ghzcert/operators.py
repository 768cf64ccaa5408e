"""One-qudit monomial operators and N-qudit products of rotated shifts.

A monomial operator has exactly one unit-modulus entry in every row and
column, so it is fully determined by a cyclic shift and one phase per
basis column.  The clock operator Z, the shift operator X, axis rotations
R(phi) and the rotated observables X(phi) are all of this form, and their
products compose exactly in (shift, phases) coordinates.  Dense arrays
exist only as a bridge to numeric cross-checks: ``MonomialOp.to_dense``
for one qudit, and ``ProductOperator.apply_dense`` on a ``_DenseTables``
for the image of a full d^N vector under an N-qudit product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

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
_JSON_CAP = 2**22  # most angle entries, N per operator, in a construction's JSON


class CapExceededError(ValueError):
    """A dense or enumerative cross-check would exceed its configured cap."""


def _within(base: int, exponent: int, cap: int) -> bool:
    """base**exponent <= cap for base >= 2, without a power above cap."""
    power = 1
    for _ in range(exponent):
        power *= base
        if power > cap:
            return False
    return True


def _check_dim(d: int) -> None:
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")


def _check_cell(d: int, n: int) -> None:
    """Reject a (d, N) cell outside d >= 2, N >= 3."""
    _check_dim(d)
    if n < 3:
        raise ValueError(f"GHZ contradictions need at least three qudits, got N = {n}")


def _check_json_size(n: int, count: int, what: str = "a construction of") -> None:
    """Refuse a family of count operators on n qudits: N*count over _JSON_CAP."""
    if n * count > _JSON_CAP:
        raise ValueError(
            f"{what} {count} operators on N = {n} qudits has "
            f"{n * count} angle entries, over the limit of {_JSON_CAP}"
        )


def _json_object(data: object, what: str, *keys: str) -> dict:
    """Validate one parsed JSON value as an object holding every key in keys."""
    if not isinstance(data, dict):
        kind = type(data).__name__
        raise ValueError(f"expected a JSON object for {what}, got {kind}")
    for key in keys:
        if key not in data:
            raise ValueError(f"missing key {key!r} in {what}")
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


def _json_phase_reader() -> Callable[[object, str], RationalPhase]:
    """A reader of one JSON document's phase fields.

    Each distinct text is parsed, and fully validated, once per reader,
    so equal angles come back as one shared object: "0/1" as ZERO_PHASE,
    which a ``ProductOperator`` puts on its unrotated qudits.  A value
    that is not a string is rejected by the field's name before any
    lookup.
    """
    parsed: dict[str, RationalPhase] = {str(ZERO_PHASE): ZERO_PHASE}

    def read(value: object, what: str) -> RationalPhase:
        if not isinstance(value, str):
            raise ValueError(f"{what} must be a 'num/den' string, got {value!r}")
        phase = parsed.get(value)
        if phase is None:
            phase = parsed[value] = RationalPhase.parse(value)
        return phase

    return read


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
    angle = phi if isinstance(phi, RationalPhase) else RationalPhase.from_fraction(phi)
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


@dataclass(frozen=True, init=False)
class ProductOperator:
    """Tensor product of rotated shift observables, one factor per qudit.

    ``ProductOperator(d, angles)`` takes one angle per qudit, but only the
    rotated factors are stored: ``rotations`` holds a (qudit, angle) pair,
    qudit counted from 0, for each factor whose angle is not 0, in qudit
    order.  Every other factor is X(0).  The constructions rotate a few
    qudits per operator, so an operator costs its rotated factors, not N.
    The collective angle and the action on a dense vector are derived on
    demand.  Constructions reason about angles (periods, circle points),
    never about matrices.
    """

    d: int
    n: int
    rotations: tuple[tuple[int, RationalPhase], ...]

    def __init__(self, d: int, angles: Iterable[RationalPhase]) -> None:
        angles = tuple(angles)
        _check_dim(d)
        if len(angles) < 1:
            raise ValueError("need at least one factor")
        rotations = tuple([(q, a) for q, a in enumerate(angles) if a.num])
        # frozen: the fields are set once, past the refusing __setattr__
        vars(self).update(d=d, n=len(angles), rotations=rotations)

    @property
    def angles(self) -> tuple[RationalPhase, ...]:
        """One angle per qudit, 0 on the unrotated ones."""
        angles = [ZERO_PHASE] * self.n
        for q, a in self.rotations:
            angles[q] = a
        return tuple(angles)

    @property
    def collective_angle(self) -> RationalPhase:
        """Sum of the factor angles, mod one turn.

        Over D = lcm(rotated factor denominators) each angle num/den is
        the integer num*(D/den), so the sum is one integer sum over D.
        """
        common = math.lcm(*[a.den for _, a in self.rotations])
        total = sum([a.num * (common // a.den) for _, a in self.rotations])
        return RationalPhase(total, common)

    def apply_dense(
        self, vec: np.ndarray, *, tables: "_DenseTables | None" = None
    ) -> np.ndarray:
        """The image of the d^N amplitude vector ``vec`` under this operator.

        Every factor is a monomial operator, so the product sends the
        basis ket |n_1 ... n_N> to the product of the factors' column
        phases times |n_1+s_1 ... n_N+s_N>: one phase build, one multiply
        and one gather.  The phase is the Kronecker product of its parts,
        one per rotated factor and one per run of plain factors X(0),
        whose tensor power of X(0)'s column phases the table holds.  It
        is built from the last part back, so the last part is taken as it
        is and each product puts one more part in front (``_kron``).
        ``tables`` holds what the operators on one (d, N) share, the
        factors' column phases and the gather index; a caller checking
        several operators builds one and passes it to each call.  Without
        it this operator gets its own.
        """
        if tables is None:
            tables = _DenseTables(self.d, self.n)
        elif (tables.d, tables.n) != (self.d, self.n):
            raise ValueError("operators in one family must share d and N")
        parts, rest = [], self.n  # the parts of qudits rest..N-1, last first
        for q, angle in reversed(self.rotations):
            if q + 1 < rest:
                parts.append(tables.plain[rest - q - 1])
            parts.append(tables.column_phases(angle))
            rest = q
        if rest:
            parts.append(tables.plain[rest])
        phase = parts[0]
        for part in parts[1:]:
            phase = _kron(part, phase)
        return (phase * np.asarray(vec, dtype=complex).reshape(phase.size))[tables.source]


class _DenseTables:
    """The per-angle work of applying (d, N) products to full vectors.

    Each distinct angle's column phases are read from ``make_rotated_x``
    once.  Every rotated X shifts by the same amount as X(0), so the
    source of every ket of the image, that ket shifted back on every
    qudit, is indexed once, from that shift, when the table is made:
    the first factor is the most significant digit.  X(0)'s column
    phases are read once too, and ``plain[k]`` holds their k-fold tensor
    power (``plain[0]`` is [1]), since runs of plain factors are the
    most common factors.
    """

    def __init__(self, d: int, n: int) -> None:
        self.d, self.n = d, n
        plain = make_rotated_x(d, ZERO_PHASE)
        rows = (np.arange(d) - plain.shift) % d
        columns = _column_phases(plain)
        source = np.zeros(1, dtype=np.intp)
        self.plain = [np.ones(1, dtype=complex)]
        for _ in range(n):  # least significant digit first
            source = np.add.outer(rows * source.size, source).ravel()
            self.plain.append(_kron(columns, self.plain[-1]))
        self.source = source
        self._columns: dict[RationalPhase, np.ndarray] = {}

    def column_phases(self, angle: RationalPhase) -> np.ndarray:
        columns = self._columns.get(angle)
        if columns is None:
            factor = make_rotated_x(self.d, angle)
            columns = self._columns[angle] = _column_phases(factor)
        return columns


def _kron(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The Kronecker product of two vectors, first the more significant.

    A broadcast product runs one inner loop along ``second`` per entry of
    ``first``.  When ``second`` has at most 3 entries and ``first`` at
    least 128, as when a long run of plain factors goes in front of one
    factor's column phases, those loops are too short to pay for
    themselves, so the loops run along ``first`` instead, one per entry
    of ``second``, each storing every ``second.size``-th entry: the same
    products in the same digit order.  With a longer ``second`` the
    strided stores cost more than the short loops they save.
    """
    if second.size > 3 or first.size < 128:
        return (first[:, None] * second).ravel()
    out = np.empty(first.size * second.size, dtype=complex)
    grid = out.reshape(first.size, second.size)
    np.multiply(first, second[:, None], out=grid.T, order="C")
    return out


def _column_phases(factor: MonomialOp) -> np.ndarray:
    return np.array([p.to_complex() for p in factor.phases])


def _with_rotations(
    d: int, n: int, rotations: tuple[tuple[int, RationalPhase], ...]
) -> ProductOperator:
    """N-qudit product of its rotated factors, nonzero angles in qudit order."""
    op = object.__new__(ProductOperator)
    vars(op).update(d=d, n=n, rotations=rotations)
    return op
