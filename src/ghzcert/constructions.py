"""Concurrent-operator families that certify GHZ contradictions.

Three constructions jointly cover every particle number N >= 3 in every
dimension d >= 2.  Each one produces a list of product observables, all
sharing the unrotated GHZ state as an eigenstate, whose exact eigenphases
induce a congruence system over Z_d with no solution:

* method 1 - pick a factor f of d, rotate f consecutive qudits through
  1/(f*d) of a turn and take the N cyclic placements of that block.
  Works for every N > f that is not a multiple of f; N+1 operators and
  two measurement bases per qudit.
* method 2 - pair one rotated factor at +1/(N*d) with a conjugate factor
  at -1/(N*d) so each operator sits at net angle zero; the value
  equations force a single uniform variation delta, and the fully
  rotated product demands N*delta = 1 (mod d), impossible whenever
  gcd(N, d) > 1.  N+3 operators, three bases on two qudits.
* method 3 - for the remaining cells (gcd(N, d) = 1, N < d) extend
  method 2 at the finer angle 1/d**2 with a ladder of scaled factors
  whose multipliers grow Fibonacci-fashion until they bridge the gap to
  a net angle of 1/d.  At least N+4 operators.

A certificate bundles exact quantum checks (every claimed eigenphase
recomputed), the unsolvability verdict, numeric and exhaustive oracle
cross-checks, a dimension-witness check (no two measurement bases on one
qudit share orthogonal eigenstates) and a per-qudit irreducibility
probe.  All of them read one cached encoding of the construction over a
common denominator D: one collective angle per operator, and one sparse
row per operator of the (qudit, exponent) pairs of its rotated factors.
The hidden variable x(q, a) of each (qudit, angle) label enters only as
the variation y(q, a) = x(q, a) - x(q, 0), with S the sum of the x(q, 0):
a unimodular change of variables, in which a congruence is S plus the y
of the operator's rotated factors.  So a family costs its rotated
factors, not N per operator: method 1 rotates f qudits per operator,
method 2 two.  The system in the labels themselves, an ``HVSystem``, is
built only for a satisfiable family, whose certificate gives the least
witness in the labels, and for the exhaustive oracle, which so stays
independent of the variation coordinates.  The dense oracle checks the
eigenphases of the encoding against tensor numerics, so it guards the
engine that decides.  The irreducibility probe solves one reduced
system per qudit orbit: qudits that a permutation of the family's rows
onto themselves links (the cyclic placements of method 1, the plain
qudits of methods 2 and 3) share a flag.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .hidden_variables import (
    DEFAULT_BRUTE_CAP,
    brute_force_solve,
    HVSystem,
    HVVerdict,
    _howell_basis,
    solve,
    system_from_operators,
)
from .operators import (
    DEFAULT_DENSE_CAP,
    ProductOperator,
    _DenseTables,
    _JSON_CAP,
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
from .phases import RationalPhase, ZERO_PHASE
from .states import dense_state, make_ghz

__all__ = [
    "Certificate",
    "CertificationError",
    "Construction",
    "NoContradiction",
    "RegimeCell",
    "check_genuine_dimension",
    "check_irreducible",
    "classify",
    "classify_plane",
    "method1",
    "method1_operator_set",
    "method2",
    "method2_operator_set",
    "method3",
    "verify_construction",
    "witness_construction",
]

OperatorItem = tuple[ProductOperator, RationalPhase]
Support = tuple[tuple[int, int], ...]  # (qudit, exponent over D) per rotated factor

_DENSE_TOLERANCE = 1e-12  # dense oracle: max amplitude error against the exact phase
_STAIRCASE_CAP = 2**16  # method 3: most staircase operators it builds


class CertificationError(RuntimeError):
    """A construction that should certify a contradiction failed to."""


@dataclass(frozen=True)
class NoContradiction:
    """Typed negative result: no contradiction at (d, N) for this method."""

    d: int
    n: int
    method: int
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "status": "no-contradiction",
            "d": self.d,
            "n": self.n,
            "method": self.method,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class Construction:
    """A concurrent-operator set plus the distinguished conflicting operator.

    ``operators`` are the supporting observables; ``target`` is the one
    whose hidden-variable prediction conflicts with its quantum eigenphase.
    The full concurrent family is ``all_items()`` (operators + target).
    A construction checks its cell and every operator's shape when it is
    built, and the certificate's algebraic checks read its one cached
    encoding.
    """

    d: int
    n: int
    method: int
    phi_o: RationalPhase
    operators: tuple[OperatorItem, ...]
    target: OperatorItem
    f: Optional[int] = None
    chain: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_cell(self.d, self.n)
        for op, _ in self.all_items():
            if op.d != self.d:
                raise ValueError(f"operator has dimension {op.d} but d = {self.d}")
            if op.n != self.n:
                raise ValueError(f"operator has {op.n} factors but n = {self.n}")

    @cached_property
    def _encoding(self) -> "_Encoding":
        """The family (target last) as integer rows over a common denominator.

        Rejects a claimed eigenphase off the 1/d grid, in item order.
        """
        items = self.all_items()
        dens = {a.den for op, _ in items for _, a in op.rotations}
        common = math.lcm(self.d, *dens)
        scale = {den: common // den for den in dens}
        claims, rows, variations = [], [], {}
        for op, exponent in items:
            if self.d % exponent.den:
                raise ValueError(f"eigenphase {exponent} is not a d-th root of unity")
            claims.append(exponent.num * (self.d // exponent.den) % self.d)
            row = tuple([(q, a.num * scale[a.den]) for q, a in op.rotations])
            for label in row:
                variations.setdefault(label, len(variations) + 1)
            rows.append(row)
        totals = []
        for op, _ in items:
            total = op.collective_angle
            totals.append(total.num * (common // total.den))
        return _Encoding(common, totals, claims, rows, variations)

    @cached_property
    def _system(self) -> HVSystem:
        """The congruence system in the labels x(q, a): built only on demand."""
        return system_from_operators(self.d, self.all_items())

    def all_items(self) -> list[OperatorItem]:
        return list(self.operators) + [self.target]

    def operator_count(self) -> int:
        return len(self.operators) + 1

    def per_qudit_angles(self) -> list[set[RationalPhase]]:
        """Distinct factor angles used on each qudit (= measurement bases).

        A qudit's plain factor X(0) counts when some operator leaves the
        qudit unrotated.
        """
        used: list[set[RationalPhase]] = [set() for _ in range(self.n)]
        rotated = [0] * self.n
        for op, _ in self.all_items():
            for q, a in op.rotations:
                used[q].add(a)
                rotated[q] += 1
        count = self.operator_count()
        for angles, times in zip(used, rotated):
            if times < count:
                angles.add(ZERO_PHASE)
        return used

    def to_json_dict(self) -> dict:
        _check_json_size(self.n, self.operator_count())
        plain = str(ZERO_PHASE)

        def item(entry: OperatorItem) -> dict:
            op, exponent = entry
            angles = [plain] * op.n
            for q, a in op.rotations:
                angles[q] = str(a)
            return {"angles": angles, "exponent": str(exponent)}

        meta: dict = {}
        if self.f is not None:
            meta["f"] = self.f
        if self.chain is not None:
            meta["chain"] = list(self.chain)
        return {
            "d": self.d,
            "n": self.n,
            "method": self.method,
            "phi_o": str(self.phi_o),
            "operators": [item(entry) for entry in self.operators],
            "target": item(self.target),
            "meta": meta,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Construction":
        keys = ("d", "n", "method", "phi_o", "operators", "target")
        data = _json_object(data, "construction", *keys)
        d = _json_int(data["d"], "d")
        phase = _json_phase_reader()

        def item(entry: dict) -> OperatorItem:
            entry = _json_object(entry, "operator", "angles", "exponent")
            angles = _json_list(entry["angles"], "angles")
            op = ProductOperator(d, tuple(phase(a, "angles entry") for a in angles))
            return op, phase(entry["exponent"], "exponent")

        meta = _json_object(data.get("meta", {}), "meta")
        f, chain = meta.get("f"), meta.get("chain")
        if f is not None:
            f = _json_int(f, "meta.f")
        if chain is not None:
            chain = _json_list(chain, "meta.chain")
            chain = tuple(_json_int(k, "meta.chain") for k in chain)
        n = _json_int(data["n"], "n")
        method = _json_int(data["method"], "method")
        phi_o = phase(data["phi_o"], "phi_o")
        operators = _json_list(data["operators"], "operators")
        _check_json_size(n, len(operators) + 1)
        return cls(
            d=d,
            n=n,
            method=method,
            phi_o=phi_o,
            operators=tuple(map(item, operators)),
            target=item(data["target"]),
            f=f,
            chain=chain,
        )


class _Encoding(NamedTuple):
    """A family's rows over D = lcm(d, every factor denominator).

    An angle a is the exponent a*D, an integer in [0, D).  Row i's
    operator has collective angle totals[i]/D
    (``ProductOperator.collective_angle``, the eigenphase engine of
    ``states`` too) and claimed eigenphase claims[i]/d; rows[i] is its
    support, the (qudit, exponent) pair of each rotated factor in qudit
    order.  ``variations`` numbers the distinct pairs from 1 in
    first-encounter order: pair (q, e) is the variable
    y(q, e/D) = x(q, e/D) - x(q, 0), and variable 0 is S, the sum of the
    x(q, 0).  The Howell kernel eliminates its highest variable first, so
    the latest variations go first, which keeps method 2's fill-in low
    (the reverse order is some 30 times slower on large cells).
    """

    common: int
    totals: list[int]
    claims: list[int]
    rows: list[Support]
    variations: dict[tuple[int, int], int]


# ---------------------------------------------------------------------------
# method 1: cyclic blocks of f rotated factors
# ---------------------------------------------------------------------------


def method1_operator_set(
    d: int, n: int, f: int
) -> tuple[list[OperatorItem], OperatorItem]:
    """The method-1 family regardless of solvability: X^N at eigenphase 0
    plus the N cyclic placements of f consecutive factors rotated through
    1/(f*d), each at eigenphase 1/d.  Returned as (supporting, target)
    with the last cyclic placement distinguished as the target.
    """
    _check_cell(d, n)
    if f <= 1 or d % f != 0:
        raise ValueError(f"f = {f} is not a factor of d = {d} greater than 1")
    if n <= f:
        raise ValueError(f"need more qudits than the block length (N > f = {f})")
    phi_o = RationalPhase(1, f * d)
    nu = RationalPhase(1, d)
    blocks = []
    for start in range(n):
        placed = {(start + t) % n: phi_o for t in range(f)}
        blocks.append((_with_angles(d, n, placed), nu))
    supporting = [(_with_angles(d, n, {}), ZERO_PHASE)] + blocks[:-1]
    return supporting, blocks[-1]


def method1(d: int, n: int, f: Optional[int] = None) -> Construction | NoContradiction:
    """Block-rotation contradiction, or NoContradiction when N is a
    multiple of f.  With f omitted, the classifier's witness factor (the
    smallest one that works) is used.
    """
    if f is None:
        f = classify(d, n).witness_f
        if f is None:
            return NoContradiction(
                d,
                n,
                1,
                "every factor of d below N divides N, so the summed value "
                "equations are solvable",
            )
    supporting, target = method1_operator_set(d, n, f)
    if n % f == 0:
        return NoContradiction(
            d,
            n,
            1,
            f"N = {n} is a multiple of f = {f}: f*sum(Y-exponents) = N "
            f"(mod {d}) has solutions",
        )
    return Construction(
        d=d,
        n=n,
        method=1,
        phi_o=RationalPhase(1, f * d),
        operators=tuple(supporting),
        target=target,
        f=f,
    )


# ---------------------------------------------------------------------------
# method 2: conjugate pairs forcing one uniform variation
# ---------------------------------------------------------------------------


def _conjugate_pair_items(d: int, n: int, phi_o: RationalPhase) -> list[OperatorItem]:
    """X^N plus the N+1 net-angle-zero operators pairing a factor at +phi_o
    with one at -phi_o.  Their value equations force every per-qudit
    variation to a common delta (and the conjugate variation to -delta):
    the first N-1 operators chain qudits 1..N-1 to qudit N, and the last
    two close the loop through qudit N-1.
    """
    y = phi_o
    yt = -phi_o
    items: list[OperatorItem] = [(_with_angles(d, n, {}), ZERO_PHASE)]
    for k in range(n - 1):  # rotated factor on qudit k+1, conjugate on qudit N
        items.append((_with_angles(d, n, {k: y, n - 1: yt}), ZERO_PHASE))
    items.append((_with_angles(d, n, {n - 2: yt, n - 1: y}), ZERO_PHASE))
    items.append((_with_angles(d, n, {0: y, n - 2: yt}), ZERO_PHASE))
    return items


def method2_operator_set(d: int, n: int) -> tuple[list[OperatorItem], OperatorItem]:
    """The method-2 family regardless of solvability: the conjugate-pair
    set at phi_o = 1/(N*d) plus the fully rotated product at eigenphase
    1/d as the target.
    """
    _check_cell(d, n)
    phi_o = RationalPhase(1, n * d)
    supporting = _conjugate_pair_items(d, n, phi_o)
    target = (ProductOperator(d, (phi_o,) * n), RationalPhase(1, d))
    return supporting, target


def method2(d: int, n: int) -> Construction | NoContradiction:
    """Conjugate-pair contradiction for gcd(N, d) > 1, else NoContradiction.

    The supporting set forces a single uniform variation delta, and the
    target demands N*delta = 1 (mod d); that has a solution exactly when
    N is invertible mod d.
    """
    supporting, target = method2_operator_set(d, n)
    if math.gcd(n, d) == 1:
        return NoContradiction(
            d,
            n,
            2,
            f"gcd(N, d) = 1: N*delta = 1 (mod {d}) is solvable, e.g. "
            f"delta = {pow(n, -1, d)}",
        )
    return Construction(
        d=d,
        n=n,
        method=2,
        phi_o=RationalPhase(1, n * d),
        operators=tuple(supporting),
        target=target,
    )


# ---------------------------------------------------------------------------
# method 3: multiplier ladder at phi_o = 1/d**2
# ---------------------------------------------------------------------------

ChainOp = tuple[dict[int, int], int]  # ({active position: multiplier}, new value)


def _ladder_chain(m: int) -> Optional[tuple[list[ChainOp], int]]:
    """Fibonacci ladder reaching multiplier m, or None if m is not on it.

    Level j holds value F_j (F_1 = 2, F_2 = 3, F_3 = 5, ...) on active
    position (j-1) mod 3; the seeds F_0 = F_{-1} = 1 sit on positions 2
    and 1, where conjugate factors are available.  Getting sign s at
    level j requires sign -s at levels j-1 and j-2, so both signs of the
    intermediate values are emitted exactly when needed.
    """
    value = {-1: 1, 0: 1, 1: 2}
    top = 1
    while value[top] < m:
        top += 1
        value[top] = value[top - 1] + value[top - 2]
    if value[top] != m:
        return None

    def pos(j: int) -> int:
        return (j - 1) % 3

    ops: list[ChainOp] = []
    have: set[tuple[int, int]] = set()

    def need(j: int, sign: int) -> None:
        if j <= 0 or (j, sign) in have:
            return
        need(j - 1, -sign)
        need(j - 2, -sign)
        ops.append(
            (
                {
                    pos(j): sign * value[j],
                    pos(j - 1): -sign * value[j - 1],
                    pos(j - 2): -sign * value[j - 2],
                },
                sign * value[j],
            )
        )
        have.add((j, sign))

    need(top, +1)
    return ops, pos(top)


def _staircase_chain(m: int) -> tuple[list[ChainOp], int]:
    """Unit-step fallback chain reaching any multiplier m >= 2.

    Values alternate between active positions 0 and 1, each step adding a
    unit factor on position 2; the parity of m decides which variant ends
    on a positive value.  Always valid, at most m-1 operators, and its
    per-position multipliers span less than d, so it never collapses two
    measurement bases.
    """
    s = 1 if m % 2 == 0 else -1  # even m: +even on position 0; odd m: +odd on 1
    ops: list[ChainOp] = []
    for k in range(2, m + 1):
        if k % 2 == 0:
            ops.append(({0: s * k, 1: -s * (k - 1), 2: -s}, s * k))
        else:
            ops.append(({0: s * (k - 1), 1: -s * k, 2: s}, -s * k))
    return ops, m % 2


def method3(d: int, n: int) -> Construction:
    """Multiplier-ladder contradiction for 3 <= N < d.

    The conjugate-pair set at phi_o = 1/d**2 forces one uniform variation
    delta; the chain operators (net angle zero, padded with plain shifts
    beyond the three active qudits) extend that linearly to scaled
    factors, forcing the variation of X(m*phi_o) to m*delta.  The target
    places multiplier m = d-N+1 on the qudit where the chain lands and 1
    elsewhere: its net angle is d*phi_o = 1/d, so quantum mechanics
    assigns eigenvalue omega, while the forced variations predict
    omega^(d*delta) = 1.

    The ladder is tried first at any d.  The staircase fallback needs
    m-1 operators, so more than ``_STAIRCASE_CAP`` of them raise
    ValueError before any is built.
    """
    _check_dim(d)
    if not 3 <= n < d:
        raise ValueError(f"the ladder construction needs 3 <= N < d, got N={n}, d={d}")
    m = d - n + 1
    phi_o = RationalPhase(1, d * d)
    actives = (0, n - 2, n - 1)

    def realize(chain: list[ChainOp], landing: int) -> Construction:
        supporting = _conjugate_pair_items(d, n, phi_o)
        for placed, _ in chain:
            angles = {actives[pos]: phi_o * mult for pos, mult in placed.items()}
            supporting.append((_with_angles(d, n, angles), ZERO_PHASE))
        target_angles = [phi_o] * n
        target_angles[actives[landing]] = phi_o * m
        target = (ProductOperator(d, tuple(target_angles)), RationalPhase(1, d))
        return Construction(
            d=d,
            n=n,
            method=3,
            phi_o=phi_o,
            operators=tuple(supporting),
            target=target,
            chain=tuple(new for _, new in chain),
        )

    ladder = _ladder_chain(m)
    if ladder is not None:
        construction = realize(*ladder)
        if _genuinely_d_dimensional(d, construction.per_qudit_angles()):
            return construction
        # Large ladders can fold two bases on one qudit together; the
        # staircase's tighter multiplier range never does.
    if m - 1 > _STAIRCASE_CAP:
        raise ValueError(
            f"method 3 at (d={d}, N={n}) needs a staircase of {m - 1} operators,"
            f" over the limit of {_STAIRCASE_CAP}"
        )
    return realize(*_staircase_chain(m))


# ---------------------------------------------------------------------------
# regime classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegimeCell:
    """Regime of one (d, N) cell and the method witnessing its contradiction."""

    d: int
    n: int
    regime: int
    witness_f: Optional[int] = None

    @property
    def witness_method(self) -> int:
        """Regime r is witnessed by method r."""
        return self.regime

    def to_json_dict(self) -> dict:
        payload = {
            "d": self.d,
            "n": self.n,
            "regime": self.regime,
            "witness_method": self.witness_method,
        }
        if self.witness_f is not None:
            payload["witness_f"] = self.witness_f
        return payload


def classify(d: int, n: int) -> RegimeCell:
    """Assign (d, N) to its regime.

    Regime 1: some factor f of d has 1 < f < N with N not a multiple of f
    (the smallest such f is recorded).  Regime 2: otherwise, when
    gcd(N, d) > 1.  Regime 3: the rest, which always satisfies N < d.
    """
    _check_cell(d, n)
    for f in range(2, min(d, n - 1) + 1):
        if d % f == 0 and n % f:
            return RegimeCell(d, n, 1, f)
    if math.gcd(n, d) > 1:
        return RegimeCell(d, n, 2)
    return RegimeCell(d, n, 3)


def witness_construction(cell: RegimeCell) -> Construction:
    """Build the construction certifying the cell's contradiction."""
    if cell.regime == 1:
        result = method1(cell.d, cell.n, cell.witness_f)
    elif cell.regime == 2:
        result = method2(cell.d, cell.n)
    else:
        result = method3(cell.d, cell.n)
    if isinstance(result, NoContradiction):  # pragma: no cover - classifier bug
        raise CertificationError(
            f"classification promised a contradiction at (d={cell.d}, N={cell.n}) "
            f"but method {cell.witness_method} declined: {result.reason}"
        )
    return result


def classify_plane(d_max: int, n_max: int, verify: bool = False) -> list[RegimeCell]:
    """Classify every cell with 2 <= d <= d_max, 3 <= N <= n_max.

    With verify=True each cell's witness construction is built and
    certified by the exact quantum checks and the UNSAT verdict, the two
    checks that decide ``Certificate.certified``; any failure raises
    CertificationError.  The certificate's other flags (genuine
    dimension, irreducibility) are not computed here, since the plane
    reports none of them.  A plane of more than 2^22 cells is refused
    before any cell is classified.
    """
    _check_cell(d_max, n_max)
    size = (d_max - 1) * (n_max - 2)
    if size > _JSON_CAP:
        raise ValueError(f"a plane of {size} cells is over the limit of {_JSON_CAP}")
    cells = [
        classify(d, n) for d in range(2, d_max + 1) for n in range(3, n_max + 1)
    ]
    if verify:
        for cell in cells:
            quantum_ok, verdict = _exact_checks(witness_construction(cell))
            if not (quantum_ok and verdict.status == "UNSAT"):
                raise CertificationError(
                    f"cell (d={cell.d}, N={cell.n}) failed certification: "
                    f"quantum_ok={quantum_ok}, hv={verdict.status}"
                )
    return cells


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    construction: Construction
    quantum_ok: bool
    hv_verdict: HVVerdict
    oracle_checked: bool
    genuinely_d_dimensional: bool
    irreducible: tuple[bool, ...]

    @property
    def certified(self) -> bool:
        return self.quantum_ok and self.hv_verdict.status == "UNSAT"

    def to_json_dict(self) -> dict:
        payload = {
            "construction": self.construction.to_json_dict(),
            "quantum_ok": self.quantum_ok,
            "hv_status": self.hv_verdict.status,
        }
        if self.hv_verdict.witness is not None:
            payload["hv_witness"] = list(self.hv_verdict.witness)
        payload.update(
            {
                "oracle_checked": self.oracle_checked,
                "genuinely_d_dimensional": self.genuinely_d_dimensional,
                "irreducible": list(self.irreducible),
                "certified": self.certified,
            }
        )
        return payload


def check_genuine_dimension(d: int, angles: Iterable[RationalPhase]) -> bool:
    """True iff no two of the angles differ by a nonzero multiple of 1/d.

    Two rotated observables X(a), X(b) have eigenbases sitting at the
    circle points a + k/d and b + k/d; a pair of orthogonal eigenstates
    across the two bases exists exactly when a - b is a nonzero multiple
    of 1/d (then the bases coincide up to relabeling).  When no pair of
    used angles does, no factor pair can be simultaneously
    block-diagonalized and the contradiction needs all d dimensions.
    Since a - b is a multiple of 1/d iff d*a = d*b mod one turn, the
    test is that the distinct angles stay distinct when scaled by d.
    """
    _check_dim(d)
    distinct = set(angles)
    return len({a * d for a in distinct}) == len(distinct)


def _genuinely_d_dimensional(
    d: int, per_qudit: Iterable[Iterable[RationalPhase]]
) -> bool:
    # Per qudit: bases on different qudits are never measured against each
    # other, so only same-qudit angle pairs can spoil dimensionality.
    return all(check_genuine_dimension(d, used) for used in per_qudit)


def _qudit_orbits(rows: list[Support], n: int) -> list[int]:
    """The first qudit of each qudit's orbit under the family's symmetries.

    Each row is one operator's support, its (qudit, exponent) pairs over
    D.  A reduced system reads nothing else of a row: its variables are
    those pairs, and its rhs comes from the exponents' total, not from
    the claimed eigenphase.  A qudit permutation pi is a symmetry when
    moving each row's entry on qudit q to pi(q) maps the row multiset
    onto itself.  It does iff each row's image occurs as often as the
    row: pi has finite order, so the images of a row cycle back to it and
    every row on that cycle occurs equally often.  Then the relabelling
    (q, e) -> (pi(q), e) maps the system with qudit k deleted onto the
    system with pi(k) deleted: a row and its image have the same total
    and the same exponent on k and on pi(k) respectively, so the grid
    filter t % (D/d) keeps both or neither and gives both the rhs
    t mod D, and their remaining pairs correspond.  The two reduced
    systems differ only in the names of their variables, so their
    irreducibility flags are equal, and so are the flags of any two
    qudits that a product of symmetries links.

    Two kinds of generator are tested.  The cyclic shift q -> q+1 (mod N),
    which every method-1 family has, is one multiset comparison and
    links all N qudits.  Failing that, each adjacent transposition
    (k, k+1) is tested on only the rows whose exponents at k and k+1
    differ (an absent qudit has exponent 0), since it fixes the others;
    those rows are among the ones that rotate k or k+1.  Methods 2 and 3
    pass it on their runs of interchangeable plain qudits.  A passing
    transposition merges the orbits of k and k+1, so the union-find over
    these generators reduces to one scan: the orbits are runs of
    neighbours.
    """
    counts = Counter(rows)

    def shifted(r: Support) -> Support:
        moved = tuple((q + 1, e) for q, e in r)
        if r and r[-1][0] == n - 1:
            return ((0, r[-1][1]),) + moved[:-1]
        return moved

    if all(counts[shifted(r)] == m for r, m in counts.items()):
        return [0] * n
    touching: list[list[Support]] = [[] for _ in range(n)]
    for r in counts:
        for q, _ in r:
            touching[q].append(r)

    def swapped(r: Support, k: int) -> Optional[Support]:
        """r with qudits k and k+1 exchanged, or None if r is fixed."""
        i = bisect_left(r, (k,))
        j = bisect_left(r, (k + 2,), i)
        entries = dict(r[i:j])
        a, b = entries.get(k, 0), entries.get(k + 1, 0)
        if a == b:
            return None
        middle = tuple((q, e) for q, e in ((k, b), (k + 1, a)) if e)
        return r[:i] + middle + r[j:]

    first = [0]
    for k in range(n - 1):
        symmetric = True
        for r in touching[k] + touching[k + 1]:
            s = swapped(r, k)
            if s is not None and counts[s] != counts[r]:
                symmetric = False
                break
        first.append(first[k] if symmetric else k + 1)
    return first


def check_irreducible(c: Construction) -> tuple[bool, ...]:
    """Per qudit: does deleting that qudit destroy the contradiction?

    Deleting factor k from every operator keeps only those reduced
    operators that remain exact eigenoperators of the (N-1)-qudit state;
    the flag is True (removal spoils the proof, as irreducibility
    demands) iff the reduced congruence system is satisfiable or empty.
    On the construction's encoding over D, a reduced row has total
    t = total - e_k, with e_k the exponent of the row's factor on qudit k
    (0 if the row leaves k unrotated): it is kept iff t % (D/d) == 0,
    with right-hand side (t mod D)/(D/d), and its congruence is the full
    row's with qudit k's factor dropped.  One reduced system is solved
    per qudit orbit (``_qudit_orbits``), and its flag is copied to every
    qudit of the orbit.

    The reduced systems are solved in the encoding's variation
    coordinates (see ``_exact_checks``): a reduced row is S plus the y of
    its rotated factors off qudit k, with S the sum of x(q, 0) over the
    kept qudits, which is onto Z_d since some qudit is kept.  So one pass
    over a row's support gives e_k and the row's variables.
    """
    enc = c._encoding
    step = enc.common // c.d
    first = _qudit_orbits(enc.rows, c.n)
    flags: list[bool] = []
    for k in range(c.n):
        if first[k] != k:
            flags.append(flags[first[k]])
            continue
        reduced = []
        for total, support in zip(enc.totals, enc.rows):
            t = total
            row = {}
            for label in support:
                if label[0] == k:
                    t -= label[1]
                else:
                    row[enc.variations[label]] = 1
            if t % step == 0:
                row[0] = 1
                if t % enc.common:
                    row[-1] = t % enc.common // step
                reduced.append(row)
        flags.append(_howell_basis(c.d, len(enc.variations) + 1, reduced)[-1] is None)
    return tuple(flags)


def _dense_recheck(c: Construction) -> None:
    """Check the encoding's eigenphases against full tensor numerics.

    Every operator whose encoded total is a multiple of D/d (an
    eigenoperator of the unrotated GHZ state) is applied to the complete
    d^N amplitude vector and compared against exp(2*pi*i*total/D) times
    the vector; the other rows are skipped.  Each checked operator goes
    through its own ``apply_dense`` on one ``_DenseTables`` for the
    family, which takes each distinct angle's matrix entries from
    ``make_rotated_x`` once and holds the one scatter target.  Only one
    operator's image is held at a time.  Raises on any disagreement:
    that would mean the exact encoding that the certificate reads is
    broken, not merely the construction.
    """
    enc = c._encoding
    step = enc.common // c.d
    vec = dense_state(make_ghz(c.d, c.n, 0))
    tables = _DenseTables(c.d, c.n)
    for (op, _), total in zip(c.all_items(), enc.totals):
        if total % step:
            continue
        image = op.apply_dense(vec, tables=tables)
        phase = RationalPhase(total, enc.common).to_complex()
        if np.max(np.abs(image - phase * vec)) > _DENSE_TOLERANCE:
            raise CertificationError(
                "exact eigenphase disagrees with dense tensor numerics"
            )


def _exact_checks(c: Construction) -> tuple[bool, HVVerdict]:
    """quantum_ok and the solver's verdict: what decides ``certified``.

    UNSAT is decided in variation coordinates.  Every label x(q, a) with
    a != 0 becomes y(q, a) = x(q, a) - x(q, 0) (a fresh x(q, 0) if no
    operator leaves q unrotated), and S = sum over q of x(q, 0).  Then
    (S, the y, the x(q, 0) of qudits 2..N) is a unimodular change of
    variables, and a row is S plus the y of its rotated factors, with its
    claimed rhs: the rows never name x(q, 0) for q > 1, so the system is
    solvable iff this one is.  Only a SAT family builds its system in the
    labels x(q, a), to give the lexicographically least witness in those.
    """
    enc = c._encoding
    step = enc.common // c.d
    quantum_ok = all(
        total % enc.common == claim * step
        for total, claim in zip(enc.totals, enc.claims)
    )
    rows = []
    for claim, support in zip(enc.claims, enc.rows):
        row = {enc.variations[label]: 1 for label in support}
        row[0] = 1
        if claim:
            row[-1] = claim
        rows.append(row)
    if _howell_basis(c.d, len(enc.variations) + 1, rows)[-1] is not None:
        return quantum_ok, HVVerdict("UNSAT", None)
    verdict = solve(c._system)
    if verdict.status != "SAT":
        raise CertificationError("variation and label systems disagree")
    return quantum_ok, verdict


def verify_construction(c: Construction, oracle: bool = True) -> Certificate:
    """Certify a construction end to end.

    quantum_ok recomputes every claimed eigenphase exactly (no tolerance):
    on the construction's encoding an operator's collective angle is
    total/D, and it equals the claimed nu/d (the right-hand side of its
    congruence; the encoding rejects a claim off the 1/d grid) iff
    total % D == nu*(D/d).  Equality also puts total/D on the 1/d grid,
    which makes it an eigenphase of the unrotated state.
    The verdict decides the congruence system over all operators
    including the target (``_exact_checks``).  With oracle=True the
    encoded eigenphases of every operator are re-checked against dense
    tensors when d^N is at most DEFAULT_DENSE_CAP, and the verdict against
    exhaustive enumeration of the labels when d^#labels is at most
    DEFAULT_BRUTE_CAP.  Failures of the
    construction are recorded in the certificate; oracle disagreements
    with the exact engine raise instead.
    """
    quantum_ok, verdict = _exact_checks(c)
    per_qudit = c.per_qudit_angles()

    oracle_checked = False
    if oracle and _within(c.d, c.n, DEFAULT_DENSE_CAP):
        _dense_recheck(c)
        oracle_checked = True
    if oracle and _within(c.d, sum(map(len, per_qudit)), DEFAULT_BRUTE_CAP):
        brute = brute_force_solve(c._system)
        if brute.status != verdict.status or brute.witness != verdict.witness:
            raise CertificationError(
                "Howell-basis solver and exhaustive enumeration disagree"
            )

    return Certificate(
        construction=c,
        quantum_ok=quantum_ok,
        hv_verdict=verdict,
        oracle_checked=oracle_checked,
        genuinely_d_dimensional=_genuinely_d_dimensional(c.d, per_qudit),
        irreducible=check_irreducible(c),
    )
