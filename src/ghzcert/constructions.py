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
qudit share orthogonal eigenstates, read from the operators' angles) and
a per-qudit irreducibility probe.  The others read one cached encoding
of the construction: its congruence system, whose variables are the
family's (qudit, angle) labels, one integer exponent per label and one
collective angle per operator, both over a common denominator.  The
dense oracle checks the eigenphases of that same encoding against tensor
numerics, so it guards the engine that decides.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

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
    _check_cell,
    _check_dim,
    _json_int,
    _json_list,
    _json_object,
    _with_angles,
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

_DENSE_TOLERANCE = 1e-12  # dense oracle: max amplitude error against the exact phase


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
    def _encoding(self) -> tuple[HVSystem, int, list[int], list[int]]:
        """The family (target last) as (system, D, exponents, totals).

        ``system`` is the congruence system, whose variables are the
        family's (qudit, angle) labels; it rejects a claimed eigenphase off
        the 1/d grid.  Over D = lcm(d, every label denominator), label j's
        angle is exponents[j]/D, and row i's operator has collective angle
        totals[i]/D (``ProductOperator.collective_angle``, the eigenphase
        engine of ``states`` too): a multiple of 1/d iff
        totals[i] % (D/d) == 0.
        """
        system = system_from_operators(self.d, self.all_items())
        angles = [label.angle for label in system.variables]
        common = math.lcm(self.d, *(a.den for a in angles))

        def over(a: RationalPhase) -> int:  # a as a count of 1/D turns
            return a.num * (common // a.den)

        exponents = [over(a) for a in angles]
        totals = [over(op.collective_angle) for op, _ in self.all_items()]
        return system, common, exponents, totals

    def all_items(self) -> list[OperatorItem]:
        return list(self.operators) + [self.target]

    def operator_count(self) -> int:
        return len(self.operators) + 1

    def per_qudit_angles(self) -> list[set[RationalPhase]]:
        """Distinct factor angles used on each qudit (= measurement bases).

        Read from the operators' angles, not from the encoding, so that
        ``method3`` can check a candidate ladder without building its
        congruence system.
        """
        rows = (op.angles for op, _ in self.all_items())
        return [set(column) for column in zip(*rows)]

    def to_json_dict(self) -> dict:
        def item(entry: OperatorItem) -> dict:
            op, exponent = entry
            return {"angles": [str(a) for a in op.angles], "exponent": str(exponent)}

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
        data = _json_object(data, "construction")
        d = _json_int(data["d"], "d")

        def item(entry: dict) -> OperatorItem:
            entry = _json_object(entry, "operator")
            angles = _json_list(entry["angles"], "angles")
            op = ProductOperator(d, tuple(RationalPhase.parse(a) for a in angles))
            return op, RationalPhase.parse(entry["exponent"])

        meta = _json_object(data.get("meta", {}), "meta")
        f, chain = meta.get("f"), meta.get("chain")
        if f is not None:
            f = _json_int(f, "meta.f")
        if chain is not None:
            chain = _json_list(chain, "meta.chain")
            chain = tuple(_json_int(k, "meta.chain") for k in chain)
        return cls(
            d=d,
            n=_json_int(data["n"], "n"),
            method=_json_int(data["method"], "method"),
            phi_o=RationalPhase.parse(data["phi_o"]),
            operators=tuple(map(item, _json_list(data["operators"], "operators"))),
            target=item(data["target"]),
            f=f,
            chain=chain,
        )


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


def _fibonacci_index(m: int) -> Optional[int]:
    a, b = 1, 1  # values at levels 0 and 1 are 1 and 2
    level = 0
    while True:
        a, b = b, a + b
        level += 1
        if b == m:
            return level
        if b > m:
            return None


def _ladder_chain(m: int) -> tuple[list[ChainOp], int]:
    """Fibonacci ladder reaching multiplier m (m must be a Fibonacci number).

    Level j holds value F_j (F_1 = 2, F_2 = 3, F_3 = 5, ...) on active
    position (j-1) mod 3; the seeds F_0 = F_{-1} = 1 sit on positions 2
    and 1, where conjugate factors are available.  Getting sign s at
    level j requires sign -s at levels j-1 and j-2, so both signs of the
    intermediate values are emitted exactly when needed.
    """
    top = _fibonacci_index(m)
    if top is None:
        raise ValueError(f"{m} is not on the multiplier ladder")
    value = {-1: 1, 0: 1}
    prev, cur = 1, 2
    for j in range(1, top + 1):
        value[j] = cur
        prev, cur = cur, prev + cur

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

    if _fibonacci_index(m) is not None:
        construction = realize(*_ladder_chain(m))
        if _genuinely_d_dimensional(construction):
            return construction
        # Large ladders can fold two bases on one qudit together; the
        # staircase's tighter multiplier range never does.
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
    for f in range(2, d + 1):
        if d % f == 0 and f < n and n % f:
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
    reports none of them.
    """
    _check_cell(d_max, n_max)
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


def _genuinely_d_dimensional(c: Construction) -> bool:
    # Per qudit: bases on different qudits are never measured against each
    # other, so only same-qudit angle pairs can spoil dimensionality.
    return all(check_genuine_dimension(c.d, used) for used in c.per_qudit_angles())


def check_irreducible(c: Construction) -> tuple[bool, ...]:
    """Per qudit: does deleting that qudit destroy the contradiction?

    Deleting factor k from every operator keeps only those reduced
    operators that remain exact eigenoperators of the (N-1)-qudit state;
    the flag is True (removal spoils the proof, as irreducibility
    demands) iff the reduced congruence system is satisfiable or empty.
    On the construction's encoding over D, a reduced row has total
    t = total - e_k, with e_k the exponent of the row's label on qudit k:
    it is kept iff t % (D/d) == 0, with right-hand side (t mod D)/(D/d),
    and its congruence is the full row's with qudit k's variable dropped.

    The N reduced systems are solved in variation coordinates.  Each
    qudit q gets a reference label r_q, its most used angle (ties go to
    the first seen), and every other label a on q is replaced by the
    variation y(q, a) = x(q, a) - x(q, r_q).  This change of variables
    is unimodular.  In it, a reduced row is S plus the y of the row's
    non-reference labels off qudit k, where S is the sum of x(q, r_q)
    over the kept qudits.  The reference variables enter every row only
    through S, and S is onto Z_d because at least one qudit is kept, so
    S acts as one free variable: the reduced system is solvable iff the
    one in S and the y is.  Each row's non-reference labels are listed
    once per family, and each of the N systems costs only its nonzeros.
    """
    system, common, exponents, totals = c._encoding
    step = common // c.d
    variables = system.variables
    nv = len(variables)  # label j is column j; S is column nv, the rhs nv + 1
    # entry k of a row is its label on qudit k+1 (system_from_operators' layout)
    columns = [[j for j, _ in con.coeffs] for con in system.constraints]
    uses = Counter(j for col in columns for j in col)
    reference: dict[int, int] = {}
    for j, label in enumerate(variables):
        best = reference.get(label.qudit)
        if best is None or uses[j] > uses[best]:
            reference[label.qudit] = j
    off_reference = [
        [(k, j) for k, j in enumerate(col) if j != reference[k + 1]] for col in columns
    ]
    flags = []
    for k in range(c.n):
        reduced = []
        for col, total, labels in zip(columns, totals, off_reference):
            t = total - exponents[col[k]]
            if t % step == 0:
                row = {j: 1 for q, j in labels if q != k}
                row[nv] = 1
                if t % common:
                    row[nv + 1] = t % common // step
                reduced.append(row)
        flags.append(_howell_basis(c.d, nv + 1, reduced)[-1] is None)
    return tuple(flags)


def _dense_recheck(c: Construction) -> None:
    """Check the encoding's eigenphases against full tensor numerics.

    Every operator whose encoded total is a multiple of D/d (an
    eigenoperator of the unrotated GHZ state) is applied to the complete
    d^N amplitude vector (``ProductOperator.apply_dense``, which builds
    every factor's matrix entries from ``make_rotated_x``) and compared
    against exp(2*pi*i*total/D) times the vector; the other rows are
    skipped.
    Raises on any disagreement: that would mean the exact encoding that
    the certificate reads is broken, not merely the construction.
    """
    _, common, _, totals = c._encoding
    vec = dense_state(make_ghz(c.d, c.n, 0))
    for (op, _), total in zip(c.all_items(), totals):
        if total % (common // c.d):
            continue
        image = op.apply_dense(vec)
        phase = RationalPhase(total, common).to_complex()
        if np.max(np.abs(image - phase * vec)) > _DENSE_TOLERANCE:
            raise CertificationError(
                "exact eigenphase disagrees with dense tensor numerics"
            )


def _exact_checks(c: Construction) -> tuple[bool, HVVerdict]:
    """quantum_ok and the solver's verdict: what decides ``certified``."""
    system, common, _, totals = c._encoding
    quantum_ok = all(
        total % common == con.rhs * (common // c.d)
        for total, con in zip(totals, system.constraints)
    )
    return quantum_ok, solve(system)


def verify_construction(c: Construction, oracle: bool = True) -> Certificate:
    """Certify a construction end to end.

    quantum_ok recomputes every claimed eigenphase exactly (no tolerance):
    on the construction's encoding an operator's collective angle is
    total/D, and it equals the claimed nu/d (the right-hand side of its
    congruence; the system build rejects a claim off the 1/d grid) iff
    total % D == nu*(D/d).  Equality also puts total/D on the 1/d grid,
    which makes it an eigenphase of the unrotated state.
    The verdict solves the congruence system over all operators including
    the target.  With oracle=True the encoded eigenphases of every
    operator are re-checked against dense tensors when d^N is at most
    DEFAULT_DENSE_CAP, and the verdict against exhaustive enumeration
    when d^#vars is at most DEFAULT_BRUTE_CAP.  Failures of the
    construction are recorded in the certificate; oracle disagreements
    with the exact engine raise instead.
    """
    quantum_ok, verdict = _exact_checks(c)
    system = c._encoding[0]

    oracle_checked = False
    if oracle and c.d**c.n <= DEFAULT_DENSE_CAP:
        _dense_recheck(c)
        oracle_checked = True
    if oracle and c.d ** len(system.variables) <= DEFAULT_BRUTE_CAP:
        brute = brute_force_solve(system)
        if brute.status != verdict.status or brute.witness != verdict.witness:
            raise CertificationError(
                "Howell-basis solver and exhaustive enumeration disagree"
            )

    return Certificate(
        construction=c,
        quantum_ok=quantum_ok,
        hv_verdict=verdict,
        oracle_checked=oracle_checked,
        genuinely_d_dimensional=_genuinely_d_dimensional(c),
        irreducible=check_irreducible(c),
    )
