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
  method 2 at the finer angle 1/d**2 with a chain of scaled factors, a
  Fibonacci ladder or a binary addition chain, whose multipliers bridge
  the gap to a net angle of 1/d.  At least N+4 operators.

A family is its rows over one common denominator D (f*d, N*d or d**2):
per operator, the support of its rotated factors, (qudit, exponent)
pairs in qudit order with exponents in [1, D), and its claimed
eigenphase nu of nu/d.  The methods build rows, and a ``Construction``
stores only those; its operator view of ``ProductOperator``s and
``RationalPhase`` angles is built on first read, by the dense oracle,
the label system or the public API.  A family enters only as rows:
from a method, through the constructor, or read from JSON straight into
rows (``from_json_dict``), with no operator built.  Both commands write
a construction's JSON from its rows.

A certificate bundles exact quantum checks (every claimed eigenphase
recomputed), the unsolvability verdict, numeric and exhaustive oracle
cross-checks, a dimension-witness check (no two measurement bases on one
qudit share orthogonal eigenstates) and a per-qudit irreducibility
probe.  All of them read the encoding of the rows: one total per
operator, its collective angle times D, beside its support.  The
verified regime plane builds no ``Construction``: it decides each cell
on its witness's rows.
The unsolvability verdict is decided only by a proof, row weights that
annihilate every variable of the system but not its claims, checked in
one pass over the rows (``hidden_variables._proves_unsat``).  Each
method builds its weights with its rows, and a family read from JSON
takes those of the method it names, built when it is certified
(``_method_hint``); only when they do not check does one tagged Howell
elimination look for weights (``_decide``).
The hidden variable x(q, a) of each (qudit, angle) label enters only as
the variation y(q, a) = x(q, a) - x(q, 0), with S the sum of the x(q, 0):
a unimodular change of variables, in which a congruence is S plus the y
of the operator's rotated factors.  So a family costs its rotated
factors, not N per operator: method 1 rotates f qudits per operator,
method 2 two.  The system in the labels themselves, an ``HVSystem``, is
built only for a satisfiable family, whose certificate gives the least
witness in the labels, and for the exhaustive oracle, which so stays
independent of the variation coordinates.  The dense oracle checks the
eigenphases of the encoding against tensor numerics and against each
operator's exact collective angle, so it guards the engine that
decides.  The irreducibility probe sets a flag True only with a
solution of the reduced system, checked on every kept row: the
methods' families are solved by closed-form witnesses in one pass over
the rows.  Only a qudit that no witness solves takes an elimination,
one per qudit orbit: qudits that a permutation of the family's rows
onto themselves links share a flag.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .hidden_variables import (
    DEFAULT_BRUTE_CAP,
    brute_force_solve,
    HVSystem,
    HVVerdict,
    Row,
    Support,
    _Encoding,
    _claims_hold,
    _encode_rows,
    _howell_basis,
    _operator_items,
    _proves_unsat,
    _variation_rows,
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
    """A concurrent-operator family, stored as its rows over D = ``common``.

    ``rows`` holds each operator's (support, claim), the target last: the
    one whose hidden-variable prediction conflicts with its eigenphase.
    ``weights`` are candidate row weights for a proof that the family is
    UNSAT, a hint that only ``_proves_unsat`` can make decide anything;
    with none, certification takes those of the method that the family
    names (``_method_hint``).  ``operators``, ``target`` and
    ``all_items()`` are the operator view, built from the rows on first
    read.  A construction checks its cell and its rows when it is built.
    """

    d: int
    n: int
    method: int
    phi_o: RationalPhase
    common: int
    rows: tuple[Row, ...]
    weights: Optional[tuple[int, ...]] = field(default=None, compare=False)
    f: Optional[int] = None
    chain: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        _check_cell(self.d, self.n)
        _check_rows(self.d, self.n, self.common, self.rows)

    @cached_property
    def _items(self) -> tuple[OperatorItem, ...]:
        """The operator view of the rows, target last, sharing phi_o."""
        return tuple(_operator_items(self.d, self.n, self.common, self.rows, self.phi_o))

    @property
    def operators(self) -> tuple[OperatorItem, ...]:
        """The supporting (operator, eigenphase) items."""
        return self._items[:-1]

    @property
    def target(self) -> OperatorItem:
        return self._items[-1]

    def all_items(self) -> list[OperatorItem]:
        """The full concurrent family: operators + target."""
        return list(self._items)

    @cached_property
    def _encoding(self) -> _Encoding:
        """The rows as the encoding that the certificate's checks read."""
        return _encode_rows(self.common, self.rows)

    @cached_property
    def _system(self) -> HVSystem:
        """The congruence system in the labels x(q, a): built only on demand."""
        return system_from_operators(self.d, self.all_items())

    def operator_count(self) -> int:
        return len(self.rows)

    def to_json_dict(self) -> dict:
        return json.loads("".join(self._json_fragments("\n")))

    def _json_fragments(self, newline: str) -> Iterator[str]:
        """The construction's JSON text as ``json.dumps(indent=2)`` writes
        it, nested at newline.

        The text comes straight from the rows, one fragment per operator
        between a head and a tail, each distinct exponent and claim
        quoted once.  The size limit is checked before the first fragment.
        """
        _check_json_size(self.n, self.operator_count())
        i1 = newline + "  "
        i2 = i1 + "  "
        plain = f'"{ZERO_PHASE}"'
        angle = cache(lambda e: _quoted_phase(e, self.common))
        claim = cache(lambda nu: _quoted_phase(nu, self.d))

        def entry(row: Row, at: str) -> str:
            # runs of plain angles are repeated text, with no list of N
            inner = at + "  "
            separator = f",{inner}  "
            run = plain + separator
            support, nu = row
            parts = [f'{{{inner}"angles": [{inner}  ']
            last = 0
            for q, e in support:
                parts += (run * (q - last), angle(e), separator)
                last = q + 1
            if last < self.n:
                parts += (run * (self.n - last - 1), plain)
            else:
                parts.pop()  # no separator after the last angle
            parts.append(f'{inner}],{inner}"exponent": {claim(nu)}{at}}}')
            return "".join(parts)

        yield (
            f'{{{i1}"d": {self.d},{i1}"n": {self.n},{i1}"method": {self.method},'
            f'{i1}"phi_o": "{self.phi_o}",{i1}"operators": '
        )
        *operators, target = self.rows
        separator = "["
        for row in operators:
            yield separator + i2 + entry(row, i2)
            separator = ","
        yield (f"{i1}]" if operators else "[]") + f',{i1}"target": ' + entry(target, i1)
        meta = []
        if self.f is not None:
            meta.append(f'"f": {self.f}')
        if self.chain is not None:
            chain = f",{i2}  ".join(map(str, self.chain))
            meta.append(f'"chain": [{i2}  {chain}{i2}]' if chain else '"chain": []')
        meta_text = "{" + i2 + f",{i2}".join(meta) + i1 + "}" if meta else "{}"
        yield f',{i1}"meta": {meta_text}{newline}}}'

    @classmethod
    def from_json_dict(cls, data: dict) -> "Construction":
        """The family of a parsed construction document, read into its rows.

        Each entry becomes its (support, claim) row with no operator
        built: each distinct angle text is read once and becomes an
        exponent over D = lcm(d, every angle denominator).  The checks
        run in this order: per entry, target last, its angles, then d,
        then that it has a factor, then its claim's text; then the cell,
        every entry's width against n, and the claims on the 1/d grid in
        entry order.
        """
        keys = ("d", "n", "method", "phi_o", "operators", "target")
        data = _json_object(data, "construction", *keys)
        d = _json_int(data["d"], "d")
        phase = _json_phase_reader()
        plain = str(ZERO_PHASE)
        angle: dict[str, RationalPhase] = {}  # each distinct rotated angle's text

        def entry_of(entry: dict) -> tuple[int, list[tuple[int, str]], RationalPhase]:
            # what ProductOperator(d, angles) checks, in its order, with no
            # call for a plain entry: "0/1" is the only text of 0
            entry = _json_object(entry, "operator", "angles", "exponent")
            angles = _json_list(entry["angles"], "angles")
            pairs = [(q, a) for q, a in enumerate(angles) if a != plain]
            for _, a in pairs:
                if type(a) is not str or a not in angle:
                    angle[a] = phase(a, "angles entry")
            _check_dim(d)
            if not angles:
                raise ValueError("need at least one factor")
            return len(angles), pairs, phase(entry["exponent"], "exponent")

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
        entries = [*map(entry_of, operators), entry_of(data["target"])]
        _check_cell(d, n)
        for width, _, _ in entries:
            if width != n:
                raise ValueError(f"operator has {width} factors but n = {n}")
        common = math.lcm(d, *{p.den for p in angle.values()})
        exponent = {a: p.num * (common // p.den) for a, p in angle.items()}
        rows = []
        for _, pairs, claim in entries:
            if d % claim.den:
                raise ValueError(f"eigenphase {claim} is not a d-th root of unity")
            support = tuple([(q, exponent[a]) for q, a in pairs])
            rows.append((support, claim.num * (d // claim.den)))
        return cls(d, n, method, phi_o, common, tuple(rows), None, f, chain)


# ---------------------------------------------------------------------------
# families as integer rows over a common denominator
# ---------------------------------------------------------------------------


def _quoted_phase(num: int, den: int) -> str:
    """The JSON string of the phase num/den, 0 <= num < den, as ``str`` writes it."""
    g = math.gcd(num, den)
    return f'"{num // g}/{den // g}"'


def _check_rows(d: int, n: int, common: int, rows: Sequence[Row]) -> None:
    """Reject rows that are not a family on N qudits over D = ``common``.

    D must be a positive multiple of d, and there must be a target row.
    Per row, the support's qudits rise within [0, N), its exponents lie in
    [1, D) and its claim nu of nu/d lies in [0, d).
    """
    if common <= 0 or common % d:
        raise ValueError(f"denominator {common} is not a positive multiple of d = {d}")
    if not rows:
        raise ValueError("a construction needs at least its target operator")
    for support, nu in rows:
        if not 0 <= nu < d:
            raise ValueError(f"claim {nu} is outside [0, {d})")
        last = -1
        for q, e in support:
            if not last < q < n:
                raise ValueError(f"support qudit {q} is out of order or outside [0, {n})")
            if not 0 < e < common:
                raise ValueError(f"exponent {e} is outside [1, {common})")
            last = q


def _method_hint(c: Construction) -> Optional[tuple[int, ...]]:
    """The row weights that certification tries first, or None.

    A method's family carries its own.  Any other family takes those of
    the method it names, built here, when it is certified.  Methods 1 and
    2 look each row up by its (support, claim) among the method's own
    rows at (d, N, f) over the same D, so a reordered family keeps its
    proof; a row that is not among them gets weight 0.  Method 3 weights
    the family's own rows back along their chain (``_chain_weights``),
    which reads them in the method's order.  A method that refuses the
    cell, or another D, gives none.
    """
    if c.weights is not None:
        return c.weights
    d, n, rows = c.d, c.n, c.rows
    if c.method == 3 and len(rows) >= n + 3:
        return tuple(_chain_weights(d, n, c.common, [support for support, _ in rows]))
    if c.method == 2 or (c.method == 1 and c.f is not None):
        try:
            own_common, own_rows, own_weights = (
                _method1_rows(d, n, c.f) if c.method == 1 else _method2_rows(d, n)
            )
        except ValueError:  # f does not work at (d, N)
            return None
        if own_common == c.common:
            weight = dict(zip(own_rows, own_weights))
            return tuple([weight.get(row, 0) for row in rows])
    return None


# ---------------------------------------------------------------------------
# method 1: cyclic blocks of f rotated factors
# ---------------------------------------------------------------------------


def _method1_rows(d: int, n: int, f: int) -> tuple[int, list[Row], list[int]]:
    """The method-1 rows over D = f*d and their weights: X^N at eigenphase
    0, then the N cyclic placements of f consecutive factors at exponent 1
    (1/(f*d) of a turn), each at eigenphase 1/d.  The last placement is
    the target.

    With s = d/f the weights are -(N-f)*s on X^N and s on each block.
    Each (qudit, 1) label is in f blocks and the weights sum to f*s = d,
    so both vanish mod d, while the claims give N*s, nonzero mod d
    exactly when N is not a multiple of f.
    """
    _check_cell(d, n)
    if f <= 1 or d % f != 0:
        raise ValueError(f"f = {f} is not a factor of d = {d} greater than 1")
    if n <= f:
        raise ValueError(f"need more qudits than the block length (N > f = {f})")
    s = d // f
    pairs = [(q, 1) for q in range(n)]  # shared by the blocks
    rows: list[Row] = [((), 0)]
    rows += [(tuple(pairs[start : start + f]), 1) for start in range(n - f + 1)]
    rows += [
        (tuple(pairs[: start + f - n] + pairs[start:]), 1)  # the wrapped blocks
        for start in range(n - f + 1, n)
    ]
    return f * d, rows, [(f - n) * s % d] + [s] * n


def method1_operator_set(
    d: int, n: int, f: int
) -> tuple[list[OperatorItem], OperatorItem]:
    """The method-1 family regardless of solvability: X^N at eigenphase 0
    plus the N cyclic placements of f consecutive factors rotated through
    1/(f*d), each at eigenphase 1/d.  Returned as (supporting, target)
    with the last cyclic placement distinguished as the target.
    """
    items = _operator_items(d, n, *_method1_rows(d, n, f)[:2])
    return items[:-1], items[-1]


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
    common, rows, weights = _method1_rows(d, n, f)
    if n % f == 0:
        return NoContradiction(
            d,
            n,
            1,
            f"N = {n} is a multiple of f = {f}: f*sum(Y-exponents) = N "
            f"(mod {d}) has solutions",
        )
    phi_o = RationalPhase(1, common)
    return Construction(d, n, 1, phi_o, common, tuple(rows), tuple(weights), f)


# ---------------------------------------------------------------------------
# method 2: conjugate pairs forcing one uniform variation
# ---------------------------------------------------------------------------


def _conjugate_pair_rows(n: int, common: int) -> list[Row]:
    """X^N plus the N+1 net-angle-zero rows pairing a factor at exponent 1
    (phi_o = 1/D) with one at D-1 (-phi_o).  Their value equations force
    every per-qudit variation to a common delta (and the conjugate
    variation to -delta): the first N-1 rows chain qudits 1..N-1 to qudit
    N, and the last two close the loop through qudit N-1.
    """
    conj = common - 1
    rows: list[Row] = [((), 0)]
    rows += [(((k, 1), (n - 1, conj)), 0) for k in range(n - 1)]
    rows.append((((n - 2, conj), (n - 1, 1)), 0))
    rows.append((((0, 1), (n - 2, conj)), 0))
    return rows


def _method2_rows(d: int, n: int) -> tuple[int, list[Row], list[int]]:
    """The method-2 rows over D = N*d and their weights: the conjugate
    pairs, then the fully rotated product at eigenphase 1/d as the target.

    With s = d/gcd(N, d) the weights are (N-1)*s on X^N, -2*s on the
    first pair, -s on the other N-2 pairs and on the first loop row, s on
    the second loop row and on the target.  The N pairs put -N*s = 0 on
    the conjugate factor of qudit N, every other label and S cancel
    outright, and the claims give s, nonzero mod d exactly when
    gcd(N, d) > 1.
    """
    _check_cell(d, n)
    s = d // math.gcd(n, d)
    weights = [(n - 1) * s, -2 * s] + [-s] * (n - 2) + [-s, s, s]
    common = n * d
    target = (tuple([(q, 1) for q in range(n)]), 1)
    return common, _conjugate_pair_rows(n, common) + [target], [w % d for w in weights]


def method2_operator_set(d: int, n: int) -> tuple[list[OperatorItem], OperatorItem]:
    """The method-2 family regardless of solvability: the conjugate-pair
    set at phi_o = 1/(N*d) plus the fully rotated product at eigenphase
    1/d as the target.
    """
    items = _operator_items(d, n, *_method2_rows(d, n)[:2])
    return items[:-1], items[-1]


def method2(d: int, n: int) -> Construction | NoContradiction:
    """Conjugate-pair contradiction for gcd(N, d) > 1, else NoContradiction.

    The supporting set forces a single uniform variation delta, and the
    target demands N*delta = 1 (mod d); that has a solution exactly when
    N is invertible mod d.
    """
    common, rows, weights = _method2_rows(d, n)
    if math.gcd(n, d) == 1:
        return NoContradiction(
            d,
            n,
            2,
            f"gcd(N, d) = 1: N*delta = 1 (mod {d}) is solvable, e.g. "
            f"delta = {pow(n, -1, d)}",
        )
    phi_o = RationalPhase(1, common)
    return Construction(d, n, 2, phi_o, common, tuple(rows), tuple(weights))


# ---------------------------------------------------------------------------
# method 3: multiplier chains at phi_o = 1/d**2
# ---------------------------------------------------------------------------

ChainOp = tuple[dict[int, int], int]  # ({active position: multiplier}, new value)


def _ladder_chain(m: int) -> Optional[tuple[list[ChainOp], int]]:
    """Fibonacci ladder reaching multiplier m, or None if m is not on it.

    Level j holds value F_j (F_1 = 2, F_2 = 3, F_3 = 5, ...) on active
    position (j-1) mod 3; the seeds F_0 = F_{-1} = 1 sit on positions 2
    and 1, where conjugate factors are available.  Getting sign s at
    level j requires sign -s at levels j-1 and j-2, so the top level's +1
    needs sign (-1)**(top-j) at every level j, and the levels below top-1
    need the other sign too.  Going up, each level is emitted with its
    sign and then the level below it with the same sign: both need only
    what the steps before have emitted.
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

    def op(j: int, sign: int) -> ChainOp:
        return (
            {
                pos(j): sign * value[j],
                pos(j - 1): -sign * value[j - 1],
                pos(j - 2): -sign * value[j - 2],
            },
            sign * value[j],
        )

    sign = (-1) ** (top - 1)
    ops = [op(1, sign)]
    for j in range(2, top + 1):
        sign = -sign
        ops.append(op(j, sign))
        if j < top:
            ops.append(op(j - 1, sign))
    return ops, pos(top)


def _binary_chain(m: int) -> tuple[list[ChainOp], int]:
    """Binary addition chain reaching any multiplier m >= 2 on position 0.

    With positions 0, 1, 2 as L, Q, R, the conjugate pairs seed +1 on each
    and -1 on Q and R.  For each bit of m after the leading one, L gets
    +2v from {Q: -v, R: -v}; a 1 bit then moves -2v to Q and adds R's -1
    on L; the new v moves to Q and R as -v before the next bit.  This is the
    binary method of addition chains (Knuth, TAOCP vol. 2, 4.6.3), at most
    5*log2(m) operators.  The multipliers lie in [0, m] on L and in
    [-(m-1), 1] on Q and R, so every qudit's span is at most m = d-N+1 < d.
    Angles k*phi_o and k'*phi_o share a basis only when k-k' is a nonzero
    multiple of d, so the chain never folds two measurement bases.
    """
    ops: list[ChainOp] = []
    v = 1
    for bit in bin(m)[3:]:
        if v > 1:  # at first Q and R hold the seeds' -1
            ops += [({0: v, 1: -v}, -v), ({0: v, 2: -v}, -v)]
        ops.append(({0: 2 * v, 1: -v, 2: -v}, 2 * v))
        if bit == "1":
            ops.append(({0: 2 * v, 1: -2 * v}, -2 * v))
            ops.append(({0: 2 * v + 1, 1: -2 * v, 2: -1}, 2 * v + 1))
        v = 2 * v + int(bit)
    return ops, 0


def _chain_weights(
    d: int, n: int, common: int, supports: Sequence[Support]
) -> list[int]:
    """The weights of method 3's rows, weighted back along the chain.

    The rows are read by their supports alone, in ``_method3_rows``'s
    order over D = common: X^N, the N-1 pairs, the two loop rows, the
    chain and the target, at least N+3 rows in all.

    Every label but delta = y(N-1, 1) is defined by one row from labels
    defined before it: the first loop row defines y(N-2, -1), the second
    then y(0, 1), the first pair y(N-1, -1), the other pairs each y(k, 1),
    and each chain row its one new label.  Walking those definitions back
    from the target at weight 1, each row gets minus the weight that its
    label has gathered so far, which cancels that label and passes the
    weight on to the row's other labels and to S.  Then only S is left,
    which X^N cancels, and delta, whose weight is the target's net
    multiplier N-1+m = d, 0 mod d.  Each row is read once: O(N + chain).
    """
    conj = common - 1
    defined = [(n, (n - 2, conj)), (n + 1, (0, 1)), (1, (n - 1, conj))]
    defined += [(k + 1, (k, 1)) for k in range(1, n - 1)]
    known = {label for _, label in defined}
    known.add((n - 1, 1))
    for i in range(n + 2, len(supports) - 1):
        new = [label for label in supports[i] if label not in known]
        if len(new) == 1:  # a chain row defines its one new label; no other row does
            known.add(new[0])
            defined.append((i, new[0]))
    weights = [0] * len(supports)
    weights[-1] = 1
    gathered = dict.fromkeys(supports[-1], 1)
    total = 1  # the weight gathered on S
    for i, label in reversed(defined):
        w = -gathered.pop(label, 0) % d
        if w:
            weights[i] = w
            total += w
            for other in supports[i]:
                if other != label:
                    gathered[other] = gathered.get(other, 0) + w
    weights[0] = -total % d
    return weights


def _method3_rows(
    d: int, n: int
) -> tuple[int, list[Row], list[int], tuple[int, ...]]:
    """The method-3 rows over D = d**2, their weights and the chain's new
    values.

    The conjugate pairs at exponent 1 (phi_o = 1/d**2), one net-zero row
    per chain step with multiplier k at exponent k mod D (every |k| < d,
    so none is 0), and the target: exponent m = d-N+1 on the qudit where
    the chain lands and 1 elsewhere.  The chain's positions 0, 1, 2 are
    the qudits 0, N-2 and N-1, in qudit order.  The Fibonacci ladder is
    used when m is on it and its bases stay apart on every qudit
    (``_bases_apart``); otherwise the binary chain, which always does.
    """
    _check_dim(d)
    if not 3 <= n < d:
        raise ValueError(f"the ladder construction needs 3 <= N < d, got N={n}, d={d}")
    common = d * d
    m = d - n + 1
    actives = (0, n - 2, n - 1)

    def realize(
        chain: list[ChainOp], landing: int
    ) -> tuple[list[Row], list[int], tuple[int, ...]]:
        rows = _conjugate_pair_rows(n, common)
        for placed, _ in chain:
            support = [(actives[pos], k % common) for pos, k in sorted(placed.items())]
            rows.append((tuple(support), 0))
        target = [(q, 1) for q in range(n)]
        target[actives[landing]] = (actives[landing], m)
        rows.append((tuple(target), 1))
        weights = _chain_weights(d, n, common, [s for s, _ in rows])
        return rows, weights, tuple(new for _, new in chain)

    ladder = _ladder_chain(m)
    if ladder is not None:
        rows, weights, chain = realize(*ladder)
        if _bases_apart(d, common, _qudit_exponents(n, [s for s, _ in rows])):
            return common, rows, weights, chain
        # Large ladders can fold two bases on one qudit together; the
        # binary chain's tighter multiplier range never does.
    return (common, *realize(*_binary_chain(m)))


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

    The Fibonacci ladder is used when m is on it and it keeps every
    qudit's bases apart; otherwise the binary chain, which always does.
    """
    common, rows, weights, chain = _method3_rows(d, n)
    phi_o = RationalPhase(1, common)
    return Construction(d, n, 3, phi_o, common, tuple(rows), tuple(weights), chain=chain)


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


def _witness_rows(cell: RegimeCell) -> tuple[int, list[Row], list[int]]:
    """The D, rows and row weights of the cell's witness construction."""
    if cell.regime == 1:
        return _method1_rows(cell.d, cell.n, cell.witness_f)
    if cell.regime == 2:
        return _method2_rows(cell.d, cell.n)
    return _method3_rows(cell.d, cell.n)[:3]


def classify_plane(
    d_max: int, n_max: int, verify: bool = False
) -> Iterator[RegimeCell]:
    """Classify every cell with 2 <= d <= d_max, 3 <= N <= n_max, d first.

    The cells come from an iterator, made one at a time, so a plane's
    memory does not grow with its size.  With verify=True each cell's
    witness rows are certified before the iterator is returned, by the
    exact quantum checks and the UNSAT verdict on their encoding, the two
    checks that decide ``Certificate.certified``; any failure raises
    CertificationError.  No operator is built, and the certificate's
    other flags (genuine dimension, irreducibility) are not computed,
    since the plane reports none of them.  A bad cell, or a plane of more
    than 2^22 cells, is refused when this is called.
    """
    _check_cell(d_max, n_max)
    size = (d_max - 1) * (n_max - 2)
    if size > _JSON_CAP:
        raise ValueError(f"a plane of {size} cells is over the limit of {_JSON_CAP}")

    def cells() -> Iterator[RegimeCell]:
        return (
            classify(d, n) for d in range(2, d_max + 1) for n in range(3, n_max + 1)
        )

    if verify:
        for cell in cells():
            common, rows, weights = _witness_rows(cell)
            quantum_ok, unsat = _decide(cell.d, _encode_rows(common, rows), weights)
            if not (quantum_ok and unsat):
                raise CertificationError(
                    f"cell (d={cell.d}, N={cell.n}) failed certification: "
                    f"quantum_ok={quantum_ok}, hv={'UNSAT' if unsat else 'SAT'}"
                )
    return cells()


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
        return {**self._fields(), "construction": self.construction.to_json_dict()}

    def _fields(self) -> dict:
        """The JSON fields, with the construction itself for its own writer."""
        payload = {
            "construction": self.construction,
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


def _qudit_exponents(n: int, supports: Sequence[Support]) -> list[set[int]]:
    """The distinct exponents over D on each qudit: its measurement bases.

    A qudit's plain factor, exponent 0, counts when some row leaves the
    qudit unrotated.
    """
    used: list[set[int]] = [set() for _ in range(n)]
    rotated = [0] * n
    for support in supports:
        for q, e in support:
            used[q].add(e)
            rotated[q] += 1
    for exponents, times in zip(used, rotated):
        if times < len(supports):
            exponents.add(0)
    return used


def _bases_apart(d: int, common: int, per_qudit: Iterable[set[int]]) -> bool:
    """``check_genuine_dimension`` of every qudit, on exponents over D.

    Angles e/D and e'/D differ by a multiple of 1/d iff e = e' mod D/d,
    so a qudit passes when its exponents stay distinct mod D/d.  Bases on
    different qudits are never measured against each other, so only
    same-qudit pairs can spoil dimensionality.
    """
    step = common // d
    return all(len({e % step for e in used}) == len(used) for used in per_qudit)


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


def _blocks_witness_holds(d: int, n: int, enc: _Encoding) -> bool:
    """Does method 1's witness solve the reduced system of every qudit?

    With f = D/d, method 1's block length, the witness for qudit k is
    S = 0 and y(q, 1) = 1 exactly on the qudits q != k with
    ((q - k - 1) mod N) mod f == 0, every other variation 0.  It solves
    every kept reduced row of every k when each row is empty or a block
    of f cyclically consecutive qudits at exponent 1, and that is what
    one pass over the rows checks.  An empty row has total 0, so it is
    kept with rhs 0 and holds no variation.  A block has total f and
    rhs 1.  A block through k leaves the grid, unless f = 1, when it
    keeps total and rhs 0 with no variation left.  Deleting k cuts the
    cycle of N qudits into a path starting at k+1, on which any other
    block is f consecutive places, so it holds exactly one marked qudit.
    """
    f = enc.common // d
    for support in enc.rows:
        if not support:
            continue
        if len(support) != f or any(e != 1 for _, e in support):
            return False
        if support[-1][0] - support[0][0] != f - 1 and any(
            q != i and q != n - f + i for i, (q, _) in enumerate(support)
        ):
            return False  # neither consecutive nor wrapped from N-1 to 0
    return True


def _common_rhs_witnesses(d: int, n: int, enc: _Encoding) -> list[bool]:
    """Per qudit k: is y = 0, S = v a solution of the reduced system without k?

    It is when every kept reduced row has right-hand side v, as in every
    reduced system of methods 2 and 3, whose target is what the deletion
    drops.  v is the most common rhs of the rows on the grid.  One pass
    over the rows counts, for every k at once, the kept rows of k's
    system whose rhs is not v: those on the grid off v, less the ones
    that rotate k, plus the rows that rotate k and are kept off v once k
    is deleted.  A qudit left False may still have a solution, which
    ``check_irreducible`` then looks for otherwise.
    """
    step = enc.common // d
    keys = [t // step if t % step == 0 else -1 for t in enc.totals]
    counts = Counter(key for key in keys if key >= 0)
    v = max(counts, key=counts.__getitem__, default=0)
    off = [sum(counts.values()) - counts[v]] * n
    for t, key, support in zip(enc.totals, keys, enc.rows):
        for q, e in support:
            if key >= 0 and key != v:
                off[q] -= 1
            r = t - e
            if r % step == 0 and r % enc.common // step != v:
                off[q] += 1
    return [m == 0 for m in off]


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
    row's with qudit k's factor dropped.

    The reduced systems are read in the encoding's variation coordinates
    (see ``_exact_checks``): a reduced row is S plus the y of its rotated
    factors off qudit k, with S the sum of x(q, 0) over the kept qudits,
    which is onto Z_d since some qudit is kept.

    Witness first, per-orbit elimination as the fallback.  A flag is True
    only with a solution that is checked on every kept row, and each
    witness is checked for every qudit at once in one pass over the rows,
    O(nnz): method 1's (``_blocks_witness_holds``), then y = 0 with S the
    common rhs (``_common_rhs_witnesses``), which solves methods 2 and 3.
    The qudits that no witness solves, as in a family with a False flag,
    are grouped into orbits (``_qudit_orbits``), and one Howell
    elimination of each orbit's first qudit decides the orbit.
    """
    enc = c._encoding
    if _blocks_witness_holds(c.d, c.n, enc):
        return (True,) * c.n
    flags = _common_rhs_witnesses(c.d, c.n, enc)
    if all(flags):
        return tuple(flags)
    step = enc.common // c.d
    first = _qudit_orbits(enc.rows, c.n)
    for k in range(c.n):
        if first[k] != k:
            flags[k] = flags[first[k]]
            continue
        if flags[k]:
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
        flags[k] = _howell_basis(c.d, len(enc.variations) + 1, reduced)[-1] is None
    return tuple(flags)


def _dense_recheck(c: Construction) -> None:
    """Check the encoding's eigenphases against full tensor numerics.

    Every operator whose encoded total is a multiple of D/d (an
    eigenoperator of the unrotated GHZ state) is applied to the complete
    d^N amplitude vector and compared against exp(2*pi*i*total/D) times
    the vector; the other rows are skipped.  Each checked operator goes
    through its own ``apply_dense`` on one ``_DenseTables`` for the
    family, which takes each distinct angle's matrix entries from
    ``make_rotated_x`` once and holds the one gather index.  Only one
    operator's image is held at a time.  Then every operator's exact
    collective angle, summed from its ``RationalPhase`` factors, must be
    total/D too.  Raises on any disagreement: that would mean the exact
    encoding that the certificate reads is broken, not merely the
    construction.
    """
    enc = c._encoding
    step = enc.common // c.d
    vec = dense_state(make_ghz(c.d, c.n, 0))
    tables = _DenseTables(c.d, c.n)
    for (op, _), total in zip(c.all_items(), enc.totals):
        if total % step == 0:
            image = op.apply_dense(vec, tables=tables)
            phase = RationalPhase(total, enc.common).to_complex()
            if np.abs(image - phase * vec).max() > _DENSE_TOLERANCE:
                raise CertificationError(
                    "exact eigenphase disagrees with dense tensor numerics"
                )
        angle = op.collective_angle
        if angle.num * enc.common != total * angle.den:  # total is in [0, D)
            raise CertificationError(
                "exact eigenphase disagrees with the operator's collective angle"
            )


def _unsat_weights(d: int, enc: _Encoding) -> Optional[list[int]]:
    """Row weights proving the variation system unsolvable, or None if it is
    solvable, from one tagged Howell elimination.

    Row i carries a tag 1 in column -2-i, below every column that the
    elimination pivots on, so each basis row carries there its weights
    over the input rows.  The basis row that pivots on the right-hand
    side is a combination of the input rows that is zero on every
    variable and nonzero on the rhs, and its tags are that combination's
    weights.
    """
    rows = _variation_rows(enc)
    for i, row in enumerate(rows):
        row[-2 - i] = 1
    proof = _howell_basis(d, len(enc.variations) + 1, rows)[-1]
    if proof is None:
        return None
    return [proof.get(-2 - i, 0) for i in range(len(rows))]


def _decide(
    d: int, enc: _Encoding, hint: Optional[Sequence[int]]
) -> tuple[bool, bool]:
    """quantum_ok, and whether the family's variation system is unsolvable.

    Only a proof decides UNSAT: row weights that pass ``_proves_unsat``,
    in O(nnz).  The hint, a method's weights, is tried first.  When it
    fails, one tagged Howell elimination either finds the system solvable
    or gives weights (``_unsat_weights``), which must pass the same check.
    """
    quantum_ok = _claims_hold(d, enc)
    if hint is not None and _proves_unsat(d, enc, hint):
        return quantum_ok, True
    weights = _unsat_weights(d, enc)
    if weights is None:
        return quantum_ok, False
    if not _proves_unsat(d, enc, weights):
        raise CertificationError("the elimination's proof of unsolvability fails its check")
    return quantum_ok, True


def _exact_checks(c: Construction) -> tuple[bool, HVVerdict]:
    """quantum_ok and the solver's verdict: what decides ``certified``.

    UNSAT is decided in variation coordinates.  Every label x(q, a) with
    a != 0 becomes y(q, a) = x(q, a) - x(q, 0) (a fresh x(q, 0) if no
    operator leaves q unrotated), and S = sum over q of x(q, 0).  Then
    (S, the y, the x(q, 0) of qudits 2..N) is a unimodular change of
    variables, and a row is S plus the y of its rotated factors, with its
    claimed rhs: the rows never name x(q, 0) for q > 1, so the system is
    solvable iff this one is, and ``_decide`` decides it by a proof.  Only
    a SAT family builds its system in the labels x(q, a), to give the
    lexicographically least witness in those.
    """
    quantum_ok, unsat = _decide(c.d, c._encoding, _method_hint(c))
    if unsat:
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
    per_qudit = _qudit_exponents(c.n, c._encoding.rows)

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
        genuinely_d_dimensional=_bases_apart(c.d, c.common, per_qudit),
        irreducible=check_irreducible(c),
    )
