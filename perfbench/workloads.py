"""Workload inputs, independent verdict references and answer digests.

Every workload is a list of items.  An item is the chain of ``ghzcert``
CLI calls that leads to one verdict: one ``classify`` call, a
``construct`` then ``verify`` pair for one cell, or one query.  Inputs
depend only on the workload name and the seed.

The checks here share no code with ``ghzcert``: the regime column is
recomputed from the paper's three conditions, an ``hv-solve`` witness is
checked with plain modular arithmetic, and the answer-carrying fields of
every output are hashed and compared with digests recorded from the
seed program in ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("certify", "hv-queries")

# Every item takes at most about a second, so that a run repeats it often
# enough for its fastest time to be steady (see README.md).
PLANE = (12, 12)  # classify --d-max 12 --n-max 12: 110 cells, all three regimes
LARGE_CELLS = ((31, 29), (97, 5), (24, 40), (40, 39))
DENSE_CAP = 4096  # cells with d**N at most this get the dense oracle
DEMOS = ((12, 12, 96, None), (8, 8, 64, "3:5"))  # d, N, angle denominator, partition
HV_SOLVE_CELL = (41, 39)  # the satisfiable method-2 system, 80 variables

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
DENSE_SKIPPED = "warning: dense oracle skipped"


@dataclass(frozen=True)
class Call:
    """One in-process ``ghzcert`` CLI call and what a correct run returns."""

    kind: str  # classify | construct | verify | invariance-demo | hv-solve
    key: Optional[str]  # reference digest key; None for calls with no verdict
    argv: tuple[str, ...]
    exit_code: int
    dense_skip_ok: bool = False  # the "dense oracle skipped" warning is expected


Item = tuple[Call, ...]


def regime(d: int, n: int) -> int:
    """The regime of cell (d, N) by the paper's three conditions."""
    if any(d % f == 0 and f < n and n % f for f in range(2, d + 1)):
        return 1
    if math.gcd(n, d) > 1:
        return 2
    return 3


def plane_rows(d_max: int, n_max: int) -> list[str]:
    """Expected ``classify --format csv`` rows: d,N,regime,witness_method."""
    return [
        f"{d},{n},{regime(d, n)},{regime(d, n)}"
        for d in range(2, d_max + 1)
        for n in range(3, n_max + 1)
    ]


def oracle_cells() -> list[tuple[int, int]]:
    """Every cell with N >= 3 and d**N within the dense cap (36 cells)."""
    # d**3 <= 4096 needs d <= 16, and 2**N <= 4096 needs N <= 12.
    return [
        (d, n) for d in range(2, 17) for n in range(3, 13) if d**n <= DENSE_CAP
    ]


def method2_system(d: int, n: int) -> dict:
    """The method-2 congruence system at (d, N) as ``hv-solve`` JSON.

    X^N and the N+1 conjugate pairs at +-1/(N*d) with eigenphase 0, plus
    the fully rotated product with eigenphase 1/d.  Variables are the
    (qudit, angle) labels in first-encounter order.  The system is
    satisfiable exactly when gcd(N, d) = 1.
    """
    den = n * d
    y, yt = f"1/{den}", f"{den - 1}/{den}"
    placements = [{}]
    placements += [{k: y, n - 1: yt} for k in range(n - 1)]
    placements += [{n - 2: yt, n - 1: y}, {0: y, n - 2: yt}]
    rows = [([p.get(k, "0/1") for k in range(n)], 0) for p in placements]
    rows.append(([y] * n, 1))
    labels: dict[tuple[int, str], int] = {}
    constraints = []
    for angles, rhs in rows:
        coeffs = [
            [labels.setdefault((k, a), len(labels)), 1]
            for k, a in enumerate(angles, start=1)
        ]
        constraints.append({"coeffs": coeffs, "rhs": rhs})
    variables = [{"qudit": k, "angle": a} for k, a in labels]
    return {"d": d, "vars": variables, "constraints": constraints}


def witness_satisfies(system: dict, witness: object) -> bool:
    """True iff ``witness`` is an assignment in Z_d meeting every congruence."""
    d = system["d"]
    if not isinstance(witness, list) or len(witness) != len(system["vars"]):
        return False
    if not all(isinstance(w, int) and 0 <= w < d for w in witness):
        return False
    return all(
        sum(c * witness[i] for i, c in con["coeffs"]) % d == con["rhs"] % d
        for con in system["constraints"]
    )


def build(workload: str, seed: int, work_dir: Path) -> list[Item]:
    """The workload's items for this seed; input files go to ``work_dir``."""
    rng = random.Random(seed)
    if workload == "certify":
        d_max, n_max = PLANE
        argv = ("classify", "--d-max", str(d_max), "--n-max", str(n_max))
        argv += ("--format", "csv", "--verify")
        items = [(Call("classify", f"classify {d_max}x{n_max}", argv, 0),)]
        for d, n in list(LARGE_CELLS) + oracle_cells():
            path = str(work_dir / f"cell-{d}x{n}.json")
            construct = ("construct", "--d", str(d), "--n", str(n), "--output", path)
            verify = ("verify", path, "--oracle", "dense")
            items.append(
                (
                    Call("construct", None, construct, 0),
                    Call("verify", f"verify {d}x{n}", verify, 0, dense_skip_ok=d**n > DENSE_CAP),
                )
            )
        rng.shuffle(items)
        return items
    if workload == "hv-queries":
        items = []
        for d, n, den, partition in DEMOS:
            num = rng.choice([k for k in range(1, den) if math.gcd(k, den) == 1])
            argv = ("invariance-demo", "--d", str(d), "--n", str(n), "--angle", f"{num}/{den}")
            key = f"invariance-demo {d}x{n}"
            if partition:
                argv += ("--partition", partition)
                key += f" {partition}"
            items.append((Call("invariance-demo", key, argv, 0),))
        d, n = HV_SOLVE_CELL
        path = work_dir / f"system-{d}x{n}.json"
        path.write_text(json.dumps(method2_system(d, n)), encoding="utf-8")
        items.append((Call("hv-solve", f"hv-solve {d}x{n}", ("hv-solve", str(path)), 1),))
        return items
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def digest(fields: object) -> str:
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


def answer(call: Call, code: Optional[int], stdout: str, stderr: str) -> tuple[Optional[str], str]:
    """Check one call's output; return (digest of its answer, failure reason).

    The reason is empty when the output is correct.  The digest covers
    only the fields that carry the answer, so a newly added output key
    does not change it.
    """
    if code != call.exit_code:
        return None, f"exit code {code}, expected {call.exit_code}: {stderr.strip()[:200]}"
    noise = [
        line for line in stderr.splitlines()
        if not (call.dense_skip_ok and line.startswith(DENSE_SKIPPED))
    ]
    if noise:
        return None, f"unexpected stderr: {noise[0][:200]}"
    if call.kind == "classify":
        rows = stdout.split()
        if rows != plane_rows(*PLANE):
            return None, "regime rows differ from the paper's conditions"
        return digest(rows), ""
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"
    if call.kind == "construct":
        return None, ""
    if call.kind == "verify":
        if payload.get("certified") is not True or payload.get("hv_status") != "UNSAT":
            return None, "cell not certified UNSAT"
        keys = ("hv_status", "hv_witness", "irreducible", "genuinely_d_dimensional",
                "oracle_checked")
        return digest({k: payload.get(k) for k in keys}), ""
    if call.kind == "invariance-demo":
        if payload.get("all_forced") is not True:
            return None, "not every invariance relation is forced"
        return digest([r["forced"] for r in payload["relations"]]), ""
    # hv-solve
    system = method2_system(*HV_SOLVE_CELL)
    if payload.get("status") != "SAT" or not witness_satisfies(system, payload.get("witness")):
        return None, "hv-solve witness does not satisfy the system"
    return digest({"status": payload["status"], "witness": payload["witness"]}), ""


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
