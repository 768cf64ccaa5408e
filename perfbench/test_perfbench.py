"""Tests of the benchmark's own arithmetic, references and tracing.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ghzcert  # noqa: E402
import ghzcert.cli  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_time_is_span_time_minus_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["constructions.verify_construction", 1.0, 4.0, 0],
        ["hidden_variables.solve", 2.0, 3.0, 1],
        ["constructions.verify_construction", 5.0, 7.0, 0],
        ["cli.main", 11.0, 12.0, -1],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0, 1.0])

    recorder = tracing.Recorder()
    recorder.spans.extend(spans)
    metrics = tracing.layer_metrics(recorder)
    assert metrics["cli.main.calls"] == (2, "count")
    assert metrics["cli.main.self_s"][0] == pytest.approx(6.0)
    assert metrics["constructions.verify_construction.self_s"][0] == pytest.approx(4.0)
    assert metrics["constructions.verify_construction.p50_ms"][0] == pytest.approx(2500.0)
    assert metrics["hidden_variables.solve.self_s"][0] == pytest.approx(1.0)
    assert metrics["operators.apply_dense.calls"] == (0, "count")


def test_regime_reference_on_c01_spot_rows():
    rows = workloads.plane_rows(12, 20)
    assert len(rows) == 198
    for row in ("2,3,1,1", "3,6,2,2", "5,3,3,3", "5,4,3,3"):
        assert row in rows


def test_same_seed_gives_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5, tmp_path) == workloads.build(name, 5, tmp_path)
    orders = {tuple(workloads.build("certify", seed, tmp_path)) for seed in (1, 2)}
    assert len(orders) == 2


def test_oracle_cells_are_the_36_within_the_dense_cap():
    cells = workloads.oracle_cells()
    assert len(cells) == 36
    assert all(d**n <= workloads.DENSE_CAP for d, n in cells)
    assert (16, 3) in cells and (2, 12) in cells and (4, 6) in cells


def test_witness_checker_rejects_a_wrong_witness():
    system = {
        "d": 3,
        "vars": [{"qudit": 1, "angle": "0/1"}, {"qudit": 2, "angle": "0/1"}],
        "constraints": [
            {"coeffs": [[0, 1], [1, 1]], "rhs": 1},
            {"coeffs": [[0, 1]], "rhs": 2},
        ],
    }
    assert workloads.witness_satisfies(system, [2, 2])
    for wrong in ([2, 1], [0, 1], [2], [5, 2], [2.0, 2.0], None):
        assert not workloads.witness_satisfies(system, wrong)


def test_method2_system_matches_the_library_and_its_witness_checks():
    supporting, target = ghzcert.method2_operator_set(7, 5)
    library = ghzcert.system_from_operators(7, supporting + [target])
    system = workloads.method2_system(7, 5)
    assert library.to_json_dict() == system

    witness = list(ghzcert.solve(library).witness)
    assert workloads.witness_satisfies(system, witness)
    witness[-1] = (witness[-1] + 1) % 7
    assert not workloads.witness_satisfies(system, witness)


def test_answer_checks_exit_code_stderr_and_verdict():
    call = workloads.Call("verify", "verify 97x5", ("verify", "c.json"), 0)
    payload = {"certified": True, "hv_status": "UNSAT", "irreducible": [True] * 5,
               "genuinely_d_dimensional": True, "oracle_checked": False}
    good = json.dumps(payload)
    warning = "warning: dense oracle skipped, d^N = 8587340257 exceeds the cap\n"
    assert workloads.answer(call, 0, good, "")[1] == ""
    assert workloads.answer(call, 1, good, "")[1]
    assert workloads.answer(call, 0, good, warning)[1]
    assert workloads.answer(replace(call, dense_skip_ok=True), 0, good, warning)[1] == ""
    refuted = json.dumps({**payload, "certified": False, "hv_status": "SAT"})
    assert workloads.answer(call, 0, refuted, "")[1]


def _bindings() -> dict:
    """Every name bound in ghzcert's modules and in the patched classes."""
    owners = [m for n, m in sys.modules.items() if n == "ghzcert" or n.startswith("ghzcert.")]
    owners += [ghzcert.ProductOperator, ghzcert.RationalPhase]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_traced_run_restores_every_wrapped_name(tmp_path):
    small_cells = [
        item for item in workloads.build("certify", 0, tmp_path)
        if item[0].kind == "construct" and not item[1].dense_skip_ok
    ]
    items = small_cells[:3]
    reference = workloads.load_reference()
    before = _bindings()

    recorder = tracing.Recorder()
    with tracing.traced(recorder):
        assert ghzcert.cli.main is not before[(id(ghzcert.cli), "main")]
        traced = worker.run_pass(ghzcert.cli, items, reference)
    counts: Counter = Counter()
    with tracing.counting_phases(counts):
        counted = worker.run_pass(ghzcert.cli, items, reference)

    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert traced.failures == counted.failures == []
    assert traced.digests == counted.digests
    assert recorder.missing == []
    names = {span[0] for span in recorder.spans}
    assert {"cli.main", "constructions.verify_construction", "operators.apply_dense",
            "operators.collective_angle", "states.dense_state"} <= names
    assert counts[tracing.PHASE_COUNT] > 0
