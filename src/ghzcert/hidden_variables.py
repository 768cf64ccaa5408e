"""Hidden-variable value assignments as linear congruence systems over Z_d.

A local (or noncontextual) model gives every one-qudit observable X(phi)
a definite value omega^x with x in Z_d, independently of which product it
is measured in.  Each product observable with a known eigenphase nu/d then
imposes one linear congruence: the per-qudit exponents sum to nu mod d.
d may be composite (4, 6, 8, 9, 10, 12 all matter here), so Z_d is only a
ring and field Gaussian elimination is not available.  Instead each
system is factored once, into a Howell basis of its augmented rows
[A | b] mod d (J. A. Howell, "Spans in the module (Z_m)^s", 1986;
computed as in Storjohann & Mulders, "Fast algorithms for linear algebra
modulo N", 1998).  Rows are sparse, {column: value} with every value in
[1, d), because a product observable touches one label per qudit out of
many.  All queries read that one basis: the system is unsolvable iff a
row pivots in the right-hand-side column; back-substitution gives the
lexicographically least witness; and a linear functional of the hidden
variables is forced (constant across all solutions) iff it lies in the
row space of A mod d, i.e. iff the basis reduces it to zero on the
variable columns.  The same elimination decides a construction's
system in variation coordinates, and the irreducibility subsystems of
``constructions.check_irreducible``.  A system checks its
own invariants when it is built (d >= 2, every index names a variable,
no label listed twice), so the JSON reader only parses.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .operators import (
    CapExceededError,
    ProductOperator,
    _check_cell,
    _check_dim,
    _check_json_size,
    _json_int,
    _json_list,
    _json_object,
    _json_phase_reader,
    _with_angles,
    _within,
)
from .phases import RationalPhase, ZERO_PHASE, as_turns
from .states import eigenvalue_exponent, make_ghz

__all__ = [
    "Constraint",
    "DEFAULT_BRUTE_CAP",
    "FactorLabel",
    "HVSystem",
    "HVVerdict",
    "InvarianceReport",
    "Relation",
    "brute_force_solve",
    "forced_value",
    "invariance_demo",
    "satisfiable",
    "solve",
    "system_from_operators",
]

DEFAULT_BRUTE_CAP = 10**6


@dataclass(frozen=True)
class FactorLabel:
    """One hidden variable: the observable X(angle) measured on one qudit.

    Identity is exact structural equality of (qudit, angle); distinct
    rationals are distinct observables, while 1/9 and 2/18 normalize to
    the same label.
    """

    qudit: int  # 1-based position within the product
    angle: RationalPhase

    def __post_init__(self) -> None:
        if self.qudit < 1:
            raise ValueError(f"qudit positions start at 1, got {self.qudit}")

    def to_json_dict(self) -> dict:
        return {"qudit": self.qudit, "angle": str(self.angle)}


@dataclass(frozen=True)
class Constraint:
    """sum(coeff * x[var]) = rhs (mod d), with sparse (index, coeff) pairs."""

    coeffs: tuple[tuple[int, int], ...]
    rhs: int


@dataclass(frozen=True)
class HVSystem:
    """A congruence system over Z_d in the hidden variables ``variables``.

    Every constraint index must name a variable, and no (qudit, angle)
    label may be listed twice: a repeated label would give one
    observable two independent values.
    """

    d: int
    variables: tuple[FactorLabel, ...]
    constraints: tuple[Constraint, ...]

    def __post_init__(self) -> None:
        _check_dim(self.d)
        if len(self._index) != len(self.variables):
            raise ValueError("an observable (qudit, angle) is listed twice in vars")
        for con in self.constraints:
            for idx, _ in con.coeffs:
                if not 0 <= idx < len(self.variables):
                    raise ValueError(f"variable index {idx} out of range")

    @cached_property
    def _index(self) -> dict[FactorLabel, int]:
        return {label: i for i, label in enumerate(self.variables)}

    @cached_property
    def _howell(self) -> list[Optional[dict[int, int]]]:
        """Howell basis of the rows [A | b] mod d (see ``_howell_basis``)."""
        augmented = []
        for con in self.constraints:
            row: dict[int, int] = {-1: con.rhs}
            for idx, coeff in con.coeffs:
                row[idx] = row.get(idx, 0) + coeff
            augmented.append({k: v % self.d for k, v in row.items() if v % self.d})
        return _howell_basis(self.d, len(self.variables), augmented)

    def dense_rows(self) -> tuple[list[list[int]], list[int]]:
        n = len(self.variables)
        rows = []
        rhs = []
        for con in self.constraints:
            row = [0] * n
            for idx, coeff in con.coeffs:
                row[idx] = (row[idx] + coeff) % self.d
            rows.append(row)
            rhs.append(con.rhs % self.d)
        return rows, rhs

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "vars": [v.to_json_dict() for v in self.variables],
            "constraints": [
                {"coeffs": [[i, c] for i, c in con.coeffs], "rhs": con.rhs}
                for con in self.constraints
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "HVSystem":
        data = _json_object(data, "system", "d", "vars", "constraints")
        phase = _json_phase_reader()

        def label(entry: object) -> FactorLabel:
            entry = _json_object(entry, "variable", "qudit", "angle")
            qudit = _json_int(entry["qudit"], "qudit")
            return FactorLabel(qudit, phase(entry["angle"], "angle"))

        def pair(entry: object) -> tuple[int, int]:
            entry = _json_list(entry, "coeffs pair")
            if len(entry) != 2:
                raise ValueError(f"coeffs pair must be [index, coeff], got {entry!r}")
            idx, coeff = entry
            return _json_int(idx, "variable index"), _json_int(coeff, "coefficient")

        constraints = []
        for con in _json_list(data["constraints"], "constraints"):
            con = _json_object(con, "constraint", "coeffs", "rhs")
            coeffs = tuple(map(pair, _json_list(con["coeffs"], "coeffs")))
            constraints.append(Constraint(coeffs, _json_int(con["rhs"], "rhs")))
        return cls(
            _json_int(data["d"], "d"),
            tuple(map(label, _json_list(data["vars"], "vars"))),
            tuple(constraints),
        )


@dataclass(frozen=True)
class HVVerdict:
    """SAT with a canonical witness, or UNSAT with none."""

    status: str  # "SAT" | "UNSAT"
    witness: Optional[tuple[int, ...]]


def system_from_operators(
    d: int,
    items: Iterable[tuple[ProductOperator, RationalPhase]],
) -> HVSystem:
    """One congruence per (operator, eigenphase nu/d) pair.

    The constraint for an N-factor operator puts coefficient 1 on the N
    labels (qudit, angle), in qudit order, and d*eigenphase on the
    right-hand side.  Variables are deduplicated by exact label identity
    and kept in first encounter order, so equal inputs build
    byte-identical systems: the first operator's labels are variables
    0..N-1 in qudit order, and entry k of every constraint is the label
    on qudit k+1.  This is the one place where a family's labels are
    interned; an operator's unrotated qudits carry the label angle 0.
    """
    items = list(items)
    index: dict[tuple[int, RationalPhase], int] = {}
    constraints = []
    for op, exponent in items:
        if op.d != d:
            raise ValueError("operator dimension disagrees with the modulus")
        if op.n != items[0][0].n:
            raise ValueError("operators act on differing qudit counts")
        if d % exponent.den:
            raise ValueError(f"eigenphase {exponent} is not a d-th root of unity")
        rotated = dict(op.rotations)
        coeffs = tuple(
            (index.setdefault((k + 1, rotated.get(k, ZERO_PHASE)), len(index)), 1)
            for k in range(op.n)
        )
        constraints.append(Constraint(coeffs, exponent.num * (d // exponent.den) % d))
    variables = tuple(FactorLabel(k, a) for k, a in index)
    return HVSystem(d, variables, tuple(constraints))


def _howell_basis(
    d: int, n: int, rows: Iterable[dict[int, int]]
) -> list[Optional[dict[int, int]]]:
    """Howell basis mod d of sparse augmented rows over n variables.

    A row is {column: value} with every value in [1, d): variable j sits
    in column j and the right-hand side in column -1.  Columns are
    eliminated from n-1 down to -1, so a row's leading column is its
    highest, and entry c of the result (entry -1 the rhs, the last) is
    the row whose leading column, holding a divisor of d, is c, or None.
    Each pivot row p with pivot h leaves (d/h)*p for the lower columns,
    so the rows of any column c and below span every consequence of the
    system that is zero above c: in particular the exact projection of
    the solution set onto the variables x_0..x_c.  The system is
    unsolvable iff entry -1 is not None.  Pending rows wait in buckets
    keyed by their leading column, so a column that no row leads costs
    nothing, and a column below -1 is never popped.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            buckets.setdefault(max(row), []).append(row)
    basis: list[Optional[dict[int, int]]] = [None] * (n + 1)
    for c in range(n - 1, -2, -1):
        live = buckets.pop(c, None)
        if live is None:
            continue
        pivot = live[0]
        for row in live[1:]:
            a, b = pivot[c], row[c]
            if b % a == 0:
                row = _subtract(d, row, b // a, pivot)
            else:
                g, s, t = _xgcd(a, b)
                pivot, row = (
                    _row_sum(d, s, pivot, t, row),
                    _row_sum(d, a // g, row, -(b // g), pivot),
                )
            if row:
                buckets.setdefault(max(row), []).append(row)
        h = math.gcd(pivot[c], d)
        if pivot[c] != h:
            unit = _normalizing_unit(pivot[c], d)
            pivot = {k: unit * v % d for k, v in pivot.items()}
        if h != 1:
            annihilated = {k: w for k, v in pivot.items() if (w := d // h * v % d)}
            if annihilated:
                buckets.setdefault(max(annihilated), []).append(annihilated)
        basis[c] = pivot
    return basis


def _row_sum(
    d: int, s: int, p: dict[int, int], t: int, r: dict[int, int]
) -> dict[int, int]:
    """The sparse row s*p + t*r mod d, without zero entries."""
    out = {k: s * v for k, v in p.items()}
    for k, v in r.items():
        out[k] = out.get(k, 0) + t * v
    return {k: v % d for k, v in out.items() if v % d}


def _subtract(d: int, r: dict[int, int], q: int, p: dict[int, int]) -> dict[int, int]:
    """The sparse row r - q*p mod d, for rows with entries in [1, d)."""
    out = dict(r)
    for k, v in p.items():
        w = (out.get(k, 0) - q * v) % d
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _normalizing_unit(a: int, d: int) -> int:
    """A unit u of Z_d with u*a = gcd(a, d) (mod d), for 0 < a < d."""
    g = math.gcd(a, d)
    step = d // g
    u = pow(a // g, -1, step)
    while math.gcd(u, d) != 1:  # some lift of u mod d/g is a unit mod d
        u += step
    return u


def satisfiable(system: HVSystem) -> bool:
    """SAT/UNSAT decision: no Howell basis row pivots in the rhs column."""
    return system._howell[-1] is None


def _satisfies(system: HVSystem, witness: Sequence[int]) -> bool:
    for con in system.constraints:
        total = sum(coeff * witness[idx] for idx, coeff in con.coeffs)
        if total % system.d != con.rhs % system.d:
            return False
    return True


def solve(system: HVSystem) -> HVVerdict:
    """Decide the system; on SAT return the lexicographically least witness.

    Back-substitution through the Howell basis, first variable first: the
    row pivoting on x_j reads h*x_j = r (mod d) once x_0..x_(j-1) are in,
    so the least choice is r/h, and 0 for a variable with no pivot row.
    Every such choice extends to a full solution, so the witness is
    reproducible byte for byte.
    """
    if not satisfiable(system):
        return HVVerdict("UNSAT", None)
    d = system.d
    basis = system._howell
    x = [0] * len(system.variables)
    for j in range(len(x)):
        row = basis[j]
        if row is not None:
            resid = row.get(-1, 0) - sum(v * x[k] for k, v in row.items() if 0 <= k < j)
            x[j] = resid % d // row[j]
    verdict = HVVerdict("SAT", tuple(x))
    assert _satisfies(system, verdict.witness)
    return verdict


def brute_force_solve(system: HVSystem) -> HVVerdict:
    """Independent oracle: exhaust Z_d^n in lexicographic order.

    Every constraint is evaluated on the whole grid Z_d^n at once, one
    axis per variable, so the C-order flat index of a grid point is its
    rank in lexicographic order and the first hit is the least witness.
    Shares no code with the Howell-basis solver; agreement of the two is
    a standing cross-check.  Raises CapExceededError when d^n > DEFAULT_BRUTE_CAP.
    """
    d = system.d
    nv = len(system.variables)
    if not _within(d, nv, DEFAULT_BRUTE_CAP):
        raise CapExceededError(f"d^n = {d}^{nv} assignments exceed {DEFAULT_BRUTE_CAP}")
    rows, rhs = system.dense_rows()
    digits = np.arange(d, dtype=np.int64)
    ok = np.ones((d,) * nv, dtype=bool)
    for row, r in zip(rows, rhs):
        acc = np.zeros((), dtype=np.int64)
        for c in row:  # a zero coefficient adds a broadcast axis, not d^k work
            acc = np.add.outer(acc, c * digits) % d if c else acc[..., np.newaxis]
        ok &= acc == r
    hits = np.flatnonzero(ok)
    if hits.size == 0:
        return HVVerdict("UNSAT", None)
    witness = np.unravel_index(int(hits[0]), ok.shape)
    return HVVerdict("SAT", tuple(int(x) for x in witness))


def forced_value(
    system: HVSystem, functional: Mapping[FactorLabel, int]
) -> Optional[int]:
    """Value of sum(coeff * x[label]) mod d if equal across ALL solutions.

    Exact criterion: the functional is constant on the solution coset iff
    it lies in the row space of the constraint matrix modulo d.  Reducing
    (functional | 0) by the Howell basis leaves (0 | -value) exactly
    then, and a nonzero variable entry otherwise.
    Returns None when not forced.  That includes a functional that puts a
    coefficient nonzero mod d on a variable the system never constrains:
    such a functional can take several values, so it is certainly not
    forced, whether or not the system is satisfiable.  Raises ValueError
    on an unsatisfiable system (nothing to compare).
    """
    d = system.d
    v: dict[int, int] = {}  # the functional as a sparse row
    for label, coeff in functional.items():
        if coeff % d:
            idx = system._index.get(label)
            if idx is None:
                return None
            v[idx] = coeff % d
    if not satisfiable(system):
        raise ValueError("system is unsatisfiable; no solutions to compare")
    basis = system._howell
    while v and (c := max(v)) >= 0:
        row = basis[c]
        if row is None or v[c] % row[c]:
            return None
        v = _subtract(d, v, v[c] // row[c], row)
    return -v.get(-1, 0) % d


@dataclass(frozen=True)
class Relation:
    """One linear relation the congruences force (or fail to force)."""

    description: str
    forced: Optional[int]

    @property
    def holds(self) -> bool:
        return self.forced == 0


@dataclass(frozen=True)
class InvarianceReport:
    d: int
    n: int
    angle: RationalPhase
    system: HVSystem
    relations: tuple[Relation, ...]
    partition: Optional[tuple[int, int]]

    @property
    def all_forced(self) -> bool:
        return all(r.holds for r in self.relations)

    def to_json_dict(self) -> dict:
        payload = {
            "d": self.d,
            "n": self.n,
            "angle": str(self.angle),
            "relations": [
                {
                    "description": r.description,
                    "forced": r.forced,
                    "expected": 0,
                    "holds": r.holds,
                }
                for r in self.relations
            ],
            "all_forced": self.all_forced,
        }
        if self.partition is not None:
            payload["partition"] = list(self.partition)
        return payload


def invariance_demo(
    d: int,
    n: int,
    angle: RationalPhase | Fraction | int,
    partition: Optional[tuple[int, int]] = None,
) -> InvarianceReport:
    """What hidden variables inherit from net-angle-preserving rotations.

    Rotating qudit i through +phi and qudit j through -phi keeps the net
    angle at zero, so the resulting product observable shares the GHZ
    state's unit eigenvalue with the plain all-shift product.  Equating
    hidden-variable values across all such pairs forces, at the sampled
    angle: antisymmetry dX_i(phi) + dX_j(-phi) = 0, uniformity of the
    variation across qudits, and oddness in phi (dX denotes the variation
    x(phi) - x(0)).  Given a partition (n1, n2) of the qudits, rotating
    the groups through phi and -phi*n1/n2 additionally forces the scaling
    relation n1*dX(phi) = n2*dX(phi*n1/n2).  Each relation is a sum of
    variations c*dX_i(a), and it holds when the congruences force that
    sum to 0 mod d.  A finite set of observables can only pin these
    relations at the sampled angles; nothing here claims the continuum
    statement for every phi.  The label system has N labels on each
    operator, so a demo over the construction JSON's limit of N times
    the operator count is refused before any operator is built.
    """
    _check_cell(d, n)
    count = 1 + n * (n - 1)  # X^N and one operator per ordered pair of qudits
    if partition is not None:
        count *= 2  # the pairs at the scaled angle, and the group operator
    _check_json_size(n, count, "an invariance demo of")
    phi = RationalPhase.from_fraction(as_turns(angle))
    pairs = list(itertools.permutations(range(n), 2))
    items = [(_with_angles(d, n, {}), ZERO_PHASE)]
    items += [(_with_angles(d, n, {i: phi, j: -phi}), ZERO_PHASE) for i, j in pairs]

    if partition is not None:
        n1, n2 = partition
        if n1 < 1 or n2 <= n1 or n1 + n2 != n:
            raise ValueError("partition must split all qudits with n2 > n1 >= 1")
        lam_phi = RationalPhase.from_fraction(as_turns(angle) * Fraction(n1, n2))
        items += [
            (_with_angles(d, n, {i: lam_phi, j: -lam_phi}), ZERO_PHASE)
            for i, j in pairs
        ]
        group = {i: phi for i in range(n1)}
        group.update({i: -lam_phi for i in range(n1, n)})
        items.append((_with_angles(d, n, group), ZERO_PHASE))

    state = make_ghz(d, n, 0)
    for op, claimed in items:
        assert eigenvalue_exponent(state, op) == claimed

    system = system_from_operators(d, items)

    def probe(description: str, *terms: tuple[int, int, RationalPhase]) -> Relation:
        # a term (c, i, a) is c*dX_i(a) on qudit position i (from 0), where
        # dX_i(a) = x(i, a) - x(i, 0) is the zero functional at a = 0
        functional: Counter[FactorLabel] = Counter()
        for c, i, a in terms:
            functional[FactorLabel(i + 1, a)] += c
            functional[FactorLabel(i + 1, ZERO_PHASE)] -= c
        return Relation(description, forced_value(system, functional))

    relations = [
        probe(f"dX_{i + 1}({phi}) + dX_{j + 1}({-phi})", (1, i, phi), (1, j, -phi))
        for i, j in pairs
    ]
    relations += [
        probe(f"dX_{i + 1}({phi}) - dX_1({phi})", (1, i, phi), (-1, 0, phi))
        for i in range(1, n)
    ]
    relations.append(probe(f"dX_1({phi}) + dX_1({-phi})", (1, 0, phi), (1, 0, -phi)))
    if partition is not None:
        relations.append(
            probe(
                f"{n1}*dX_1({phi}) - {n2}*dX_1({lam_phi})",
                (n1, 0, phi),
                (-n2, 0, lam_phi),
            )
        )

    return InvarianceReport(d, n, phi, system, tuple(relations), partition)
