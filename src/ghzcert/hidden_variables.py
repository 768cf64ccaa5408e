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
variable columns.  The same elimination factors a family's system in
variation coordinates, from its integer rows over one denominator
(``_Encoding``, made from the rows by ``_encode_rows``): the
irreducibility subsystems of ``constructions.check_irreducible``, the
relations of ``invariance_demo`` and, with its rows tagged, the search
for row weights that prove a construction UNSAT when its method's own
weights do not.  The demo builds its family as rows, with no operator,
factors only 3N-2 of its 1 + N(N-1) rows, which generate the others,
and decides its N(N-1) + N relations by 3N-2 reductions of that basis
(3N-1 with a partition), each other relation being an integer sum of
reduced ones.  An UNSAT verdict is decided only by
``_proves_unsat``, which checks the weights in one pass over the rows
and reads no basis.  A system checks its own invariants when it is
built (d >= 2, every index names a variable, no label listed twice), so
the JSON reader only parses.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Optional, Sequence

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
    _with_rotations,
    _within,
)
from .phases import RationalPhase, ZERO_PHASE, as_turns

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

Support = tuple[tuple[int, int], ...]  # (qudit, exponent over D) per rotated factor
Row = tuple[Support, int]  # an operator's support and its claimed eigenphase nu/d

_exponent = itemgetter(1)  # of a (qudit, exponent) pair
_quote = json.encoder.encode_basestring_ascii


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
        d = self.d
        augmented = []
        for con in self.constraints:
            row: dict[int, int] = {-1: rhs} if (rhs := con.rhs % d) else {}
            for idx, coeff in con.coeffs:  # an index may repeat
                if v := (row.get(idx, 0) + coeff) % d:
                    row[idx] = v
                else:
                    row.pop(idx, None)
            augmented.append(row)
        return _howell_basis(d, len(self.variables), augmented)

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
            if type(entry) is list and len(entry) == 2:
                idx, coeff = entry
                if type(idx) is type(coeff) is int:  # not a float or bool
                    return idx, coeff
            # a malformed pair: name its first fault
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


@dataclass(frozen=True)
class _Encoding:
    """A family's rows over D = lcm(d, every factor denominator).

    An angle a is the exponent a*D, an integer in [0, D).  rows[i] is
    row i's support, the (qudit, exponent) pair of each rotated factor
    in qudit order; totals[i] is the sum of those exponents mod D, and
    claims[i] gives its claimed eigenphase claims[i]/d.  So totals[i]/D
    is the collective angle of row i's operator; the dense oracle
    compares each total with that operator's own
    ``ProductOperator.collective_angle``.  ``variations`` numbers the
    distinct pairs from 1 in first-encounter order: pair (q, e) is the
    variable y(q, e/D) = x(q, e/D) - x(q, 0), and variable 0 is S, the
    sum of the x(q, 0).  The Howell kernel eliminates its highest
    variable first, so the latest variations go first, which keeps
    method 2's fill-in low (the reverse order is some 30 times slower on
    large cells).  Only an elimination reads that numbering, so it is
    made on first read.
    """

    common: int
    totals: list[int]
    claims: list[int]
    rows: list[tuple[tuple[int, int], ...]]

    @cached_property
    def variations(self) -> dict[tuple[int, int], int]:
        variations: dict[tuple[int, int], int] = {}
        for support in self.rows:
            for label in support:
                if label not in variations:
                    variations[label] = len(variations) + 1
        return variations


def _encode_rows(common: int, rows: Sequence[Row]) -> _Encoding:
    """The family's rows as the encoding that certification reads.

    A row's total is the sum of its exponents mod D, which is its
    operator's collective angle times D.
    """
    supports = [support for support, _ in rows]
    return _Encoding(
        common,
        [sum(map(_exponent, support)) % common for support in supports],
        [claim for _, claim in rows],
        supports,
    )


def _operator_items(
    d: int,
    n: int,
    common: int,
    rows: Iterable[Row],
    phi_o: RationalPhase = ZERO_PHASE,
) -> list[tuple[ProductOperator, RationalPhase]]:
    """The rows' operator view: one (operator, eigenphase) item per row.

    Each distinct phase, an exponent e's angle e/D or a claim nu's
    eigenphase nu/d, is one ``RationalPhase`` shared by every row using
    it, and is phi_o itself where it equals phi_o.
    """
    shared = {phi_o: phi_o, ZERO_PHASE: ZERO_PHASE}

    @cache
    def phase(num: int, den: int) -> RationalPhase:
        p = RationalPhase(num, den)
        return shared.setdefault(p, p)

    items = []
    for support, nu in rows:
        rotations = tuple([(q, phase(e, common)) for q, e in support])
        items.append((_with_rotations(d, n, rotations), phase(nu, d)))
    return items


def _claims_hold(d: int, enc: _Encoding) -> bool:
    """Is every claimed eigenphase exact: total % D == claim*(D/d)?

    Equality also puts total/D on the 1/d grid, which makes it an
    eigenphase of the unrotated GHZ state.
    """
    step = enc.common // d
    return all(
        total % enc.common == claim * step
        for total, claim in zip(enc.totals, enc.claims)
    )


def _proves_unsat(d: int, enc: _Encoding, weights: Sequence[int]) -> bool:
    """Do the row weights w prove the family's variation system unsolvable?

    Over Z_d a system A*x = b has no solution exactly when some w has
    w*A = 0 and w*b != 0 (mod d): Z_d is self-injective, so this is the
    Fredholm alternative, and any such w is a proof that anyone can check.
    In variation coordinates a row is S plus the y(q, e) of its support
    (``_variation_rows``), so w*A = 0 says that the weights sum to 0 (the
    S column) and that so do the weights of the rows holding each label
    (q, e).  One pass over the supports: O(nnz), with no elimination.
    """
    if len(weights) != len(enc.rows) or sum(weights) % d:
        return False
    sums: dict[tuple[int, int], int] = {}
    for w, support in zip(weights, enc.rows):
        if w % d:
            for label in support:
                sums[label] = sums.get(label, 0) + w
    if any(s % d for s in sums.values()):
        return False
    return sum(w * claim for w, claim in zip(weights, enc.claims)) % d != 0


def _variation_rows(enc: _Encoding) -> list[dict[int, int]]:
    """The family's congruences in variation coordinates, for ``_howell_basis``.

    A row is S plus the y of its operator's rotated factors, equal to its
    claim: column 0 is S, column k the variation numbered k, and column
    -1 the right-hand side.
    """
    rows = []
    for claim, support in zip(enc.claims, enc.rows):
        row = {enc.variations[label]: 1 for label in support}
        row[0] = 1
        if claim:
            row[-1] = claim
        rows.append(row)
    return rows


def _howell_basis(
    d: int, n: int, rows: Iterable[dict[int, int]]
) -> list[Optional[dict[int, int]]]:
    """Howell basis mod d of sparse augmented rows over n variables.

    A row is {column: value} with every value in [1, d): variable j sits
    in column j and the right-hand side in column -1.  A row may also
    hold columns below -1, which ride along through every row operation
    but are never pivoted on (``constructions._unsat_weights`` tags rows
    there).  Columns are eliminated from n-1 down to -1, so a row's
    leading column is its highest, and entry c of the result (entry -1
    the rhs, the last) is the row whose leading column, holding a divisor
    of d, is c, or None.
    Each pivot row p with pivot h leaves (d/h)*p for the lower columns,
    so the rows of any column c and below span every consequence of the
    system that is zero above c: in particular the exact projection of
    the solution set onto the variables x_0..x_c.  The system is
    unsolvable iff entry -1 is not None.  Pending rows wait in buckets, so
    a column that no row leads costs nothing, and a column below -1 is
    never popped.  Each input row is copied once on entry, and from then
    on the kernel reduces its own copies in place, so the callers' rows
    are never changed.  A row is placed lazily: one reduced at column c
    goes into bucket c-1 unscanned, since it is zero from c up, and a row
    found there without column c-1 moves on to the bucket of its real
    leading column, found with one ``max``.  A row that loses one column
    per step, as a long row reduced by short pivots does, is therefore
    never copied or rescanned, and its reduction costs the pivots' size.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            buckets.setdefault(max(row), []).append(dict(row))
    basis: list[Optional[dict[int, int]]] = [None] * (n + 1)
    for c in range(n - 1, -2, -1):
        live = buckets.pop(c, None)
        if not live:
            continue
        pivot = None
        below = buckets.setdefault(c - 1, [])
        for row in live:
            if c not in row:
                buckets.setdefault(max(row), []).append(row)
                continue
            if pivot is None:
                pivot = row
                continue
            a, b = pivot[c], row[c]
            if b % a == 0:
                _subtract(d, row, b // a, pivot)
            else:
                g, s, t = _xgcd(a, b)
                pivot, row = (
                    _row_sum(d, s, pivot, t, row),
                    _row_sum(d, a // g, row, -(b // g), pivot),
                )
            if row:
                below.append(row)
        if pivot is None:
            continue
        h = math.gcd(pivot[c], d)
        if pivot[c] != h:
            unit = _normalizing_unit(pivot[c], d)
            for k, v in pivot.items():
                pivot[k] = unit * v % d
        if h != 1:
            annihilated = {k: w for k, v in pivot.items() if (w := d // h * v % d)}
            if annihilated:
                below.append(annihilated)
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


def _subtract(d: int, r: dict[int, int], q: int, p: dict[int, int]) -> None:
    """Reduce the sparse row r to r - q*p mod d in place, entries in [1, d).

    The work is p's size, whatever r's: only r's entries on p's columns
    are touched, and none is copied.
    """
    for k, v in p.items():
        w = (r.get(k, 0) - q * v) % d
        if w:
            r[k] = w
        else:
            r.pop(k, None)


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
    if not _satisfies(system, x):
        raise RuntimeError("the solver's witness fails a congruence of the system")
    return HVVerdict("SAT", tuple(x))


def brute_force_solve(system: HVSystem) -> HVVerdict:
    """Independent oracle: decide every point of Z_d^n, meeting in the middle.

    The n variables are split at h = n//2.  Every row's value mod d is
    tabulated once over the prefix grid Z_d^h and once over the suffix
    grid Z_d^(n-h), both in C order, so grid index is lexicographic rank.
    A prefix a and a suffix b satisfy the system iff the residue vector
    rhs - A_pre*a (mod d) equals A_suf*b (mod d), so one sort-and-search
    join on those vectors (Horowitz & Sahni, JACM 1974) decides all d^n
    assignments at the cost of d^h + d^(n-h) of them.  The first prefix
    with a match, followed by its least matching suffix, is the
    lexicographically least witness.  Rows are joined a block at a time:
    each block's residues extend an exact integer key per grid point,
    and the keys are ranked again before the next block, so they stay
    below 2^62 and memory stays linear in the grids.  Shares no code with
    the Howell-basis solver; agreement of the two is a standing
    cross-check.  Raises CapExceededError when d^n > DEFAULT_BRUTE_CAP.
    """
    d = system.d
    nv = len(system.variables)
    if not _within(d, nv, DEFAULT_BRUTE_CAP):
        raise CapExceededError(f"d^n = {d}^{nv} assignments exceed {DEFAULT_BRUTE_CAP}")
    rows, rhs = system.dense_rows()
    matrix = np.array(rows, dtype=np.int64).reshape(len(rows), nv)
    rhs = np.array(rhs, dtype=np.int64)
    h = nv // 2
    prefix, suffix = _grid(d, h), _grid(d, nv - h)
    size = len(prefix) + len(suffix)
    # a rank is below size <= 2*DEFAULT_BRUTE_CAP < 2^b and a block adds a
    # factor d^block < 2^(62-b), so every key stays below 2^62
    block = (62 - (2 * DEFAULT_BRUTE_CAP).bit_length()) // d.bit_length()
    key = np.zeros(size, dtype=np.int64)
    for start in range(0, len(rows), block):
        part = matrix[start : start + block]
        need = (rhs[start : start + block] - prefix @ part[:, :h].T) % d
        residues = np.concatenate([need, suffix @ part[:, h:].T % d])
        rank = np.unique(key, return_inverse=True)[1]
        key = rank * d ** len(part) + residues @ d ** np.arange(len(part))
    known, first = np.unique(key[len(prefix) :], return_index=True)
    at = np.searchsorted(known, key[: len(prefix)]).clip(max=len(known) - 1)
    hits = np.flatnonzero(known[at] == key[: len(prefix)])
    if hits.size == 0:
        return HVVerdict("UNSAT", None)
    a = hits[0]
    witness = (*prefix[a], *suffix[first[at[a]]])
    return HVVerdict("SAT", tuple(int(x) for x in witness))


def _grid(d: int, k: int) -> np.ndarray:
    """Every point of Z_d^k as a row, in C order (lexicographic rank)."""
    return np.indices((d,) * k, dtype=np.int64).reshape(k, d**k).T


def forced_value(
    system: HVSystem, functional: Mapping[FactorLabel, int]
) -> Optional[int]:
    """Value of sum(coeff * x[label]) mod d if equal across ALL solutions.

    The functional is copied once into a sparse row over the system's
    variables and reduced by its Howell basis (``_reduce``).
    Returns None when not forced.  That includes a functional that puts a
    coefficient nonzero mod d on a variable the system never constrains:
    such a functional can take several values, so it is certainly not
    forced, whether or not the system is satisfiable.  Raises ValueError
    on an unsatisfiable system (nothing to compare).  ``invariance_demo``
    asks the same question of a family in variation coordinates, without
    this label system.
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
    return _reduce(d, system._howell, v)


def _reduce(
    d: int, basis: list[Optional[dict[int, int]]], v: dict[int, int]
) -> Optional[int]:
    """The forced value mod d of the functional v, or None; v is consumed.

    Exact criterion: the functional is constant on the solution coset of
    a satisfiable system iff it lies in the row space of the constraint
    matrix modulo d.  Reducing (v | 0) by the system's Howell basis
    (``_howell_basis``) leaves (0 | -value) exactly then, and a nonzero
    variable entry otherwise.  v, a sparse row with entries in [1, d) on
    variable columns, is reduced in place by the same step as the basis
    rows (``_subtract``), so a step costs the basis row's size.
    """
    while v and (c := max(v)) >= 0:
        row = basis[c]
        if row is None or v[c] % row[c]:
            return None
        _subtract(d, v, v[c] // row[c], row)
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
    """A demo's relations, and its label system built on first read.

    The demo's family is kept privately as its integer rows, the
    ``_encoding`` that decided the relations.  ``system`` is
    ``system_from_operators`` of those rows' operator view
    (``_operator_items``): no answer reads it, so a demo builds its
    operators and label system only if asked.  The report writes its own
    JSON text (``_json_fragments``), one fragment per relation, and
    ``to_json_dict`` parses that text, so the payload has one writer.
    """

    d: int
    n: int
    angle: RationalPhase
    relations: tuple[Relation, ...]
    partition: Optional[tuple[int, int]]
    _encoding: _Encoding = field(repr=False, compare=False)

    @cached_property
    def system(self) -> HVSystem:
        enc = self._encoding
        rows = zip(enc.rows, enc.claims)
        return system_from_operators(self.d, _operator_items(self.d, self.n, enc.common, rows))

    @property
    def all_forced(self) -> bool:
        return all(r.holds for r in self.relations)

    def to_json_dict(self) -> dict:
        return json.loads("".join(self._json_fragments("\n")))

    def _json_fragments(self, newline: str) -> Iterator[str]:
        """The report's JSON text as ``json.dumps(indent=2)`` writes it,
        nested at newline: a head, one fragment per relation, and a tail
        with ``all_forced`` and the partition, if there is one.
        """
        i1 = newline + "  "
        i2 = i1 + "  "
        i3 = i2 + "  "
        yield (
            f'{{{i1}"d": {self.d},{i1}"n": {self.n},{i1}"angle": "{self.angle}",'
            f'{i1}"relations": '
        )
        separator = "["
        all_forced = True
        for r in self.relations:
            forced = "null" if r.forced is None else r.forced
            holds = r.holds
            all_forced = all_forced and holds
            yield (
                f'{separator}{i2}{{{i3}"description": {_quote(r.description)},'
                f'{i3}"forced": {forced},{i3}"expected": 0,'
                f'{i3}"holds": {"true" if holds else "false"}{i2}}}'
            )
            separator = ","
        tail = f"{i1}]" if self.relations else "[]"
        tail += f',{i1}"all_forced": {"true" if all_forced else "false"}'
        if self.partition is not None:
            n1, n2 = self.partition
            tail += f',{i1}"partition": [{i2}{n1},{i2}{n2}{i1}]'
        yield tail + newline + "}"


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
    statement for every phi.

    The relations are decided in the family's variation coordinates, as
    certification decides UNSAT (``constructions._exact_checks``).  The
    family is built straight as its integer rows over D = lcm(d, the
    denominators of phi and phi*n1/n2), with no operator built: X^N's
    empty row, then per ordered pair (``_pair_rows``) and, with a
    partition, the same at the scaled angle and the group row, all
    claimed at eigenphase 0.  Every claim, on every row, is checked
    exactly against its row's total (ValueError if one is off).

    Only a generating set of the rows is factored.  Write P(i, j) for the
    variation row S + y(i, phi) + y(j, -phi) = 0 of the ordered pair
    (i, j), qudits from 0.  X^N's row, P(0, j) and P(i, 0) for i, j >= 1,
    P(1, j) for j >= 2 and P(2, 1) are kept: 3N-2 rows of 1 + N(N-1).
    Every other pair row is an integer combination of kept ones, on the
    S column, on every variation and on the rhs:

        P(i, j) = P(i, 0) + P(1, j) - P(1, 0)   for i, j >= 2, i != j,
        P(i, 1) = P(i, 0) + P(2, 1) - P(2, 0)   for i >= 3.

    This holds at any phi, also at phi = 1/2, where y(i, phi) and
    y(i, -phi) are one variable.  With a partition the same pairs are
    kept at the scaled angle, with the group row: 6N-4 rows of
    2 + 2N(N-1).  So the kept rows span the family's module and force the
    same values.  Each label is met first in a kept row, so the kept rows
    number the variations as the whole family does.  They are factored
    once, and a relation, the functional sum of c*y(i, a), is reduced by
    that basis (``_reduce``).

    Only a generating set of the relations is reduced, on the same kept
    pairs: with F(i, j) = dX_i(phi) + dX_j(-phi), the 3N-3 relations
    F(0, j), F(i, 0), F(1, j) for j >= 2 and F(2, 1), then oddness and,
    with a partition, scaling.  The others are exact integer sums of
    these as functionals, term by term, at any phi (1/2 and 0 too):

        F(i, j) = F(i, 0) + F(1, j) - F(1, 0)       for i, j >= 2, i != j,
        F(i, 1) = F(i, 0) + F(2, 1) - F(2, 0)       for i >= 3,
        dX_i(phi) - dX_0(phi) = F(i, 1) - F(0, 1)   for i >= 2,
        dX_1(phi) - dX_0(phi) = F(1, 2) - F(0, 2).

    A sum of forced functionals is forced, at the same sum of values mod
    d, so such a relation takes that sum.  When a part it is summed from
    is unforced, the relation is reduced itself: nothing is inferred
    from an unforced part.  The change of variables is unimodular, so
    each value equals ``forced_value`` of the same sum of variations on
    the label system ``report.system``, which holds every row.  The demo
    builds that system, and its operators, only when it is first read,
    from the report's own rows.  It has N labels on each operator, so a
    demo over the construction JSON's limit of N times the operator
    count is refused before any row is built.
    """
    _check_cell(d, n)
    count = 1 + n * (n - 1)  # X^N and one operator per ordered pair of qudits
    if partition is not None:
        count *= 2  # the pairs at the scaled angle, and the group operator
    _check_json_size(n, count, "an invariance demo of")
    phi = RationalPhase.from_fraction(as_turns(angle))
    neg_phi = -phi
    lam_phi = ZERO_PHASE
    if partition is not None:
        n1, n2 = partition
        if n1 < 1 or n2 <= n1 or n1 + n2 != n:
            raise ValueError("partition must split all qudits with n2 > n1 >= 1")
        lam_phi = RationalPhase.from_fraction(as_turns(angle) * Fraction(n1, n2))
    common = math.lcm(d, phi.den, lam_phi.den)

    def exponent(a: RationalPhase) -> int:
        return a.num * (common // a.den)

    up, down = exponent(phi), exponent(neg_phi)
    rows = [((), 0), *_pair_rows(n, up, down)]
    if partition is not None:
        lam_up, lam_down = exponent(lam_phi), exponent(-lam_phi)
        rows += _pair_rows(n, lam_up, lam_down)
        group = [(i, up) for i in range(n1) if up]
        group += [(i, lam_down) for i in range(n1, n) if lam_down]
        rows.append((tuple(group), 0))

    enc = _encode_rows(common, rows)
    if not _claims_hold(d, enc):
        raise ValueError("a demo operator's claimed eigenphase is not its exact one")
    pairs = [i < 2 or j == 0 or (i, j) == (2, 1) for i, j in itertools.permutations(range(n), 2)]
    keep = [True, *pairs] if partition is None else [True, *pairs, *pairs, True]
    spanning = _encode_rows(common, list(itertools.compress(rows, keep)))
    basis = _howell_basis(d, len(spanning.variations) + 1, _variation_rows(spanning))

    def probe(*terms: tuple[int, int, int]) -> Optional[int]:
        # a term (c, i, e) is c*dX_i(e/D) on qudit position i (from 0), where
        # dX_i(e/D) is the variation y(i, e/D), and the zero functional at e = 0
        functional: dict[tuple[int, int], int] = {}
        for c, i, e in terms:
            if e:
                functional[i, e] = functional.get((i, e), 0) + c
        v: dict[int, int] = {}  # the functional as a sparse row
        for label, c in functional.items():
            if c % d:
                column = spanning.variations.get(label)
                if column is None:
                    return None
                v[column] = c % d
        return _reduce(d, basis, v)

    def derive(parts: tuple[Optional[int], ...], *terms: tuple[int, int, int]) -> Optional[int]:
        # the terms' functional is the sum of the parts' functionals, the
        # last one subtracted: so their forced values give its value, and
        # only a generator (no parts) or an unforced part sends it to its
        # own reduction
        if not parts or None in parts:
            return probe(*terms)
        *added, less = parts
        return (sum(added) - less) % d

    forced: dict[tuple[int, int], Optional[int]] = {}  # F(i, j), per ordered pair
    for (i, j), kept in zip(itertools.permutations(range(n), 2), pairs):
        if kept:
            parts = ()
        elif j >= 2:
            parts = (forced[i, 0], forced[1, j], forced[1, 0])
        else:  # i >= 3, j = 1
            parts = (forced[i, 0], forced[2, 1], forced[2, 0])
        forced[i, j] = derive(parts, (1, i, up), (1, j, down))

    plus, minus = str(phi), str(neg_phi)
    halves = [f"dX_{i + 1}({plus}) + " for i in range(n)]
    downs = [f"dX_{j + 1}({minus})" for j in range(n)]
    relations = [Relation(halves[i] + downs[j], v) for (i, j), v in forced.items()]
    for i in range(1, n):
        parts = (forced[i, 1], forced[0, 1]) if i >= 2 else (forced[1, 2], forced[0, 2])
        uniform = derive(parts, (1, i, up), (-1, 0, up))
        relations.append(Relation(f"dX_{i + 1}({plus}) - dX_1({plus})", uniform))
    relations.append(Relation(halves[0] + downs[0], probe((1, 0, up), (1, 0, down))))
    if partition is not None:
        scaling = probe((n1, 0, up), (-n2, 0, lam_up))
        relations.append(Relation(f"{n1}*dX_1({plus}) - {n2}*dX_1({lam_phi})", scaling))

    return InvarianceReport(d, n, phi, tuple(relations), partition, enc)


def _pair_rows(n: int, up: int, down: int) -> list[Row]:
    """The demo's net-angle-zero rows, one per ordered pair (i, j) of qudits:
    X at exponent up on qudit i and at down on qudit j, in qudit order,
    claimed at eigenphase 0.  At up = 0 (so down = 0) each is X^N's row.
    """
    if not up:
        return [((), 0)] * (n * (n - 1))
    return [
        (((i, up), (j, down)) if i < j else ((j, down), (i, up)), 0)
        for i, j in itertools.permutations(range(n), 2)
    ]
