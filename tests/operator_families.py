"""Families given as (operator, eigenphase) items, for the tests.

The library takes a family only as rows: from a method, through the
``Construction`` constructor, or from JSON.  A test that assembles a
family from operators writes it as a construction document and reads it
back with ``Construction.from_json_dict`` (``from_items``), so the family
meets the same reader and checks as ``ghzcert verify``.

``encode`` is the operator-side oracle of a family's encoding.  It reads
each operator's own ``collective_angle``, so it stays independent of
``hidden_variables._encode_rows``, which sums the exponents of a row.
"""

import math

from ghzcert import Construction
from ghzcert.hidden_variables import _Encoding


def encode(d, items):
    """The (operator, eigenphase nu/d) items as integer rows over one D.

    Rejects a claimed eigenphase off the 1/d grid, in item order.
    """
    dens = {a.den for op, _ in items for _, a in op.rotations}
    common = math.lcm(d, *dens)
    scale = {den: common // den for den in dens}
    totals, claims, rows = [], [], []
    for op, exponent in items:
        if d % exponent.den:
            raise ValueError(f"eigenphase {exponent} is not a d-th root of unity")
        claims.append(exponent.num * (d // exponent.den) % d)
        rows.append(tuple([(q, a.num * scale[a.den]) for q, a in op.rotations]))
        total = op.collective_angle
        totals.append(total.num * (common // total.den))
    return _Encoding(common, totals, claims, rows)


def items_json(d, n, method, phi_o, items, f=None, chain=None):
    """The construction document of the items, target last."""

    def entry(item):
        op, exponent = item
        return {"angles": [str(a) for a in op.angles], "exponent": str(exponent)}

    *operators, target = items
    meta = {}
    if f is not None:
        meta["f"] = f
    if chain is not None:
        meta["chain"] = list(chain)
    return {
        "d": d,
        "n": n,
        "method": method,
        "phi_o": str(phi_o),
        "operators": [entry(item) for item in operators],
        "target": entry(target),
        "meta": meta,
    }


def from_items(d, n, method, phi_o, items, f=None, chain=None):
    """The family of the items, target last, read as ``verify`` reads it."""
    return Construction.from_json_dict(items_json(d, n, method, phi_o, items, f, chain))
