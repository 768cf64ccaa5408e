"""Command-line interface: payloads, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ghzcert import (
    Construction,
    RationalPhase,
    brute_force_solve,
    classify_plane,
    method1,
    method1_operator_set,
    method3,
    system_from_operators,
    verify_construction,
)
from ghzcert import cli
from ghzcert.cli import _json_text, main
from ghzcert.constructions import _check_json_size


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """Run the CLI in a new interpreter on this checkout's sources."""
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "ghzcert.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=False,
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_construct_auto_regime3(capsys):
    code, out, _ = run(capsys, "construct", "--d", "5", "--n", "3", "--method", "auto")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == 3
    assert len(payload["operators"]) + 1 == 8
    assert payload["target"]["angles"] == ["1/25", "3/25", "1/25"]


def test_construct_no_contradiction(capsys):
    code, out, _ = run(capsys, "construct", "--d", "3", "--n", "6", "--method", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "no-contradiction"


def test_construct_method2(capsys):
    code, out, _ = run(capsys, "construct", "--d", "3", "--n", "3", "--method", "2")
    assert code == 0
    assert json.loads(out)["method"] == 2


def test_construct_usage_errors(capsys):
    code, _, _ = run(capsys, "construct", "--d", "3")
    assert code == 2
    code, _, err = run(capsys, "construct", "--d", "1", "--n", "3")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "construct", "--d", "3", "--n", "3", "--method", "2", "--f", "3")
    assert code == 2
    # --f goes with --method 1 only, even when it matches the auto witness
    code, out, err = run(
        capsys, "construct", "--d", "12", "--n", "5", "--method", "auto", "--f", "2"
    )
    assert code == 2 and out == "" and err == "error: --f only applies to method 1\n"


def test_construct_writes_output_file(tmp_path, capsys):
    path = tmp_path / "construction.json"
    code, out, _ = run(
        capsys,
        "construct", "--d", "3", "--n", "4", "--method", "1", "--output", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


def test_construct_output_failure_prints_no_payload(tmp_path, capsys):
    # the file is written before the payload is printed, so a path that
    # cannot be written leaves stdout empty
    path = tmp_path / "missing" / "c.json"
    code, out, err = run(
        capsys, "construct", "--d", "3", "--n", "4", "--output", str(path)
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(path) in err


_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=False)
    | st.text()
)
_json_trees = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_json_trees)
def test_json_text_matches_json_dumps(tree):
    # empty containers, nesting, non-ASCII text, escapes and large ints
    # come out exactly as json.dumps(indent=2) writes them
    assert _json_text(tree) == json.dumps(tree, indent=2)


def test_construct_verify_round_trip(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, _, _ = run(
        capsys,
        "construct", "--d", "3", "--n", "4", "--method", "1", "--output", str(path),
    )
    assert code == 0
    code, out, err = run(capsys, "verify", str(path), "--oracle", "dense")
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"] is True
    assert payload["quantum_ok"] is True
    assert payload["hv_status"] == "UNSAT"
    assert payload["oracle_checked"] is True
    assert err == ""


def test_verify_corrupted_construction(tmp_path, capsys):
    data = method1(3, 4, 3).to_json_dict()
    data["target"]["exponent"] = "2/3"  # bump the claimed eigenphase
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["quantum_ok"] is False


def test_verify_over_dense_cap_warns(tmp_path, capsys):
    data = method1(2, 13, 2).to_json_dict()  # 2^13 = 8192 > 4096
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path), "--oracle", "dense")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_checked"] is False
    assert "warning" in err


def test_verify_parse_failure(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert run(capsys, "verify", str(path))[0] == 2
    path.write_text(json.dumps({"d": 3}))
    assert run(capsys, "verify", str(path))[0] == 2
    assert run(capsys, "verify", str(tmp_path / "missing.json"))[0] == 2
    path.write_text(json.dumps(method1(3, 4, 3).to_json_dict()))
    assert run(capsys, "verify", str(path), "--brute-cap", "10")[0] == 2


def test_readers_exit_2_on_json_nested_too_deep(tmp_path, capsys):
    # 3000 nested arrays overflow the JSON decoder's recursion limit: the
    # RecursionError is a failure (exit 2), not a verdict (exit 1)
    path = tmp_path / "deep.json"
    path.write_text("[" * 3000 + "]" * 3000)
    for argv in (("verify", str(path)), ("hv-solve", str(path))):
        for code, out, err in (run(capsys, *argv), run_fresh(*argv)):
            assert code == 2 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err


def test_internal_failure_exits_2_with_its_type_name(tmp_path, capsys, monkeypatch):
    class Held:
        pass

    held = []

    def fail(*args, **kwargs):
        payload = Held()  # stands for the memory a failed command holds
        held.append(weakref.ref(payload))
        raise MemoryError()

    def print_after_release(*args, **kwargs):
        # the failed command's frames are gone before the error is written
        assert held[0]() is None
        print(*args, **kwargs)

    path = tmp_path / "c.json"
    path.write_text(json.dumps(method1(3, 4, 3).to_json_dict()))
    monkeypatch.setattr(cli, "verify_construction", fail)
    monkeypatch.setattr(cli, "print", print_after_release, raising=False)
    assert run(capsys, "verify", str(path)) == (2, "", "error: MemoryError\n")


def test_verify_rejects_non_object_meta(tmp_path, capsys):
    path = tmp_path / "c.json"
    for meta in (None, [1, 2]):
        data = method1(3, 4, 3).to_json_dict()
        data["meta"] = meta
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert "expected a JSON object for meta" in err


def test_readers_reject_non_object_top_level(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([{"d": 3}]))
    for command in ("verify", "hv-solve"):
        code, _, err = run(capsys, command, str(path))
        assert code == 2 and "expected a JSON object" in err


def test_readers_reject_non_integer_fields(tmp_path, capsys):
    path = tmp_path / "bad.json"
    system = {
        "d": 3,
        "vars": [{"qudit": 1, "angle": "0/1"}],
        "constraints": [{"coeffs": [[0, 1]], "rhs": 1}],
    }
    bad_systems = [{**system, "d": 3.5}, {**system, "d": True}]
    bad_systems.append({**system, "constraints": [{"coeffs": [[0, 1.0]], "rhs": 1}]})
    bad_systems.append({**system, "vars": [{"qudit": 1.5, "angle": "0/1"}]})
    for data in bad_systems:
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "hv-solve", str(path))
        assert code == 2 and out == "" and "must be an integer" in err
    construction = method1(3, 4, 3).to_json_dict()
    for key, value in (("n", 4.0), ("method", True), ("d", 3.0)):
        path.write_text(json.dumps({**construction, key: value}))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == "" and "must be an integer" in err


@pytest.mark.parametrize("value", [{}, "1/9", {"1/9": 0, "0/1": 1, "2/9": 2}])
@pytest.mark.parametrize(
    "command, field, put",
    [
        ("verify", "operators", lambda c, v: c.update(operators=v)),
        ("verify", "angles", lambda c, v: c["target"].update(angles=v)),
        ("verify", "meta.chain", lambda c, v: c["meta"].update(chain=v)),
        ("hv-solve", "vars", lambda s, v: s.update(vars=v)),
        ("hv-solve", "constraints", lambda s, v: s.update(constraints=v)),
        ("hv-solve", "coeffs", lambda s, v: s["constraints"][0].update(coeffs=v)),
        ("hv-solve", "coeffs pair", lambda s, v: s["constraints"][0].update(coeffs=[v])),
    ],
)
def test_readers_reject_non_array_lists(tmp_path, capsys, command, field, put, value):
    # iterating an object yields its keys and a string its characters, so
    # neither may stand in for an array
    if command == "verify":
        data = method3(5, 3).to_json_dict()
    else:
        data = {
            "d": 3,
            "vars": [{"qudit": 1, "angle": "0/1"}],
            "constraints": [{"coeffs": [[0, 1]], "rhs": 1}],
        }
    put(data, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert f"expected a JSON array for {field}," in err


def small_system():
    return {
        "d": 3,
        "vars": [{"qudit": 1, "angle": "0/1"}],
        "constraints": [{"coeffs": [[0, 1]], "rhs": 1}],
    }


@pytest.mark.parametrize("value", [1, ["1/9"], None, {"1/9": 0}])
@pytest.mark.parametrize(
    "command, field, put",
    [
        ("verify", "angles entry", lambda c, v: c["target"]["angles"].__setitem__(1, v)),
        ("verify", "exponent", lambda c, v: c["operators"][0].update(exponent=v)),
        ("verify", "phi_o", lambda c, v: c.update(phi_o=v)),
        ("hv-solve", "angle", lambda s, v: s["vars"][0].update(angle=v)),
    ],
)
def test_readers_name_non_string_phase_fields(tmp_path, capsys, command, field, put, value):
    # checked before the per-document parse memo, so a list is not
    # reported as "unhashable"
    data = method1(3, 4, 3).to_json_dict() if command == "verify" else small_system()
    put(data, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert f"error: {field} must be a 'num/den' string, got {value!r}" in err


@pytest.mark.parametrize(
    "command, what, key, drop",
    [
        *[
            ("verify", "construction", key, lambda c, k: c.pop(k))
            for key in ("d", "n", "method", "phi_o", "operators", "target")
        ],
        ("verify", "operator", "angles", lambda c, k: c["operators"][2].pop(k)),
        ("verify", "operator", "exponent", lambda c, k: c["target"].pop(k)),
        *[
            ("hv-solve", "system", key, lambda s, k: s.pop(k))
            for key in ("d", "vars", "constraints")
        ],
        ("hv-solve", "variable", "qudit", lambda s, k: s["vars"][0].pop(k)),
        ("hv-solve", "variable", "angle", lambda s, k: s["vars"][0].pop(k)),
        ("hv-solve", "constraint", "coeffs", lambda s, k: s["constraints"][0].pop(k)),
        ("hv-solve", "constraint", "rhs", lambda s, k: s["constraints"][0].pop(k)),
    ],
)
def test_readers_name_missing_keys(tmp_path, capsys, command, what, key, drop):
    data = method1(3, 4, 3).to_json_dict() if command == "verify" else small_system()
    drop(data, key)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert err == f"error: missing key {key!r} in {what}\n"


def test_hv_solve_rejects_pairs_of_the_wrong_length(tmp_path, capsys):
    path = tmp_path / "bad.json"
    for coeffs in ([[0]], [[0, 1, 1]], [[]]):
        system = {
            "d": 3,
            "vars": [{"qudit": 1, "angle": "0/1"}],
            "constraints": [{"coeffs": coeffs, "rhs": 1}],
        }
        path.write_text(json.dumps(system))
        code, out, err = run(capsys, "hv-solve", str(path))
        assert code == 2 and out == "" and "coeffs pair must be [index, coeff]" in err


def test_verify_checks_n_against_operator_widths(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**method1(3, 4, 3).to_json_dict(), "n": 5}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert "operator has 4 factors but n = 5" in err


def test_verify_rejects_fewer_than_three_qudits(tmp_path, capsys):
    path = tmp_path / "c.json"
    data = method1(3, 4, 3).to_json_dict()
    for n in (2, 1):

        def cut(item):
            return {**item, "angles": item["angles"][:n]}

        small = {
            **data,
            "n": n,
            "operators": [cut(item) for item in data["operators"]],
            "target": cut(data["target"]),
        }
        path.write_text(json.dumps(small))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 2 and out == ""
        assert f"at least three qudits, got N = {n}" in err


def test_hv_solve_rejects_ambiguous_variables(tmp_path, capsys):
    # listing X(0) on qudit 1 twice would give one observable two values:
    # as separate variables x0 + 2*x1 = 1 (mod 3) is SAT, as one it is not
    path = tmp_path / "s.json"
    system = {
        "d": 3,
        "vars": [{"qudit": 1, "angle": "0/1"}, {"qudit": 1, "angle": "0/1"}],
        "constraints": [{"coeffs": [[0, 1], [1, 2]], "rhs": 1}],
    }
    path.write_text(json.dumps(system))
    code, out, err = run(capsys, "hv-solve", str(path))
    assert code == 2 and out == "" and "listed twice" in err
    for qudit in (0, -1):
        vars_ = [{"qudit": qudit, "angle": "0/1"}, {"qudit": 2, "angle": "0/1"}]
        path.write_text(json.dumps({**system, "vars": vars_}))
        code, out, err = run(capsys, "hv-solve", str(path))
        assert code == 2 and out == "" and "qudit positions start at 1" in err


def test_classify_csv_grid(capsys):
    code, out, _ = run(
        capsys, "classify", "--d-max", "12", "--n-max", "20", "--format", "csv"
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 198
    assert "5,3,3,3" in rows
    assert "12,5,1,1" in rows
    assert "2,3,1,1" in rows
    assert "3,6,2,2" in rows


def test_classify_json_and_verify(capsys):
    code, out, _ = run(
        capsys,
        "classify", "--d-max", "4", "--n-max", "5", "--format", "json", "--verify",
    )
    assert code == 0
    cells = json.loads(out)
    assert len(cells) == 9
    assert all(cell["regime"] in (1, 2, 3) for cell in cells)


def test_classify_bad_bounds(capsys):
    assert run(capsys, "classify", "--d-max", "1", "--n-max", "5")[0] == 2
    assert run(capsys, "classify", "--d-max", "4", "--n-max", "2")[0] == 2
    # a plane over 2^22 cells is refused before any cell is classified
    start = time.perf_counter()
    code, out, err = run(capsys, "classify", "--d-max", "100000", "--n-max", "100000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "error: a plane of 9999700002 cells is over the limit of 4194304\n"
    with pytest.raises(ValueError, match="4196352 cells is over the limit"):
        classify_plane(2049, 2051)  # 2048 x 2049 cells, one row over


def test_hv_solve_sat_and_unsat(tmp_path, capsys):
    sat_path = tmp_path / "sat.json"
    sat_path.write_text(
        json.dumps(
            {
                "d": 3,
                "vars": [
                    {"qudit": k, "angle": "0/1"} for k in (1, 2, 3)
                ],
                "constraints": [{"coeffs": [[0, 1], [1, 1], [2, 1]], "rhs": 0}],
            }
        )
    )
    code, out, _ = run(capsys, "hv-solve", str(sat_path))
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "SAT"
    assert payload["witness"] == [0, 0, 0]
    assert len(payload["vars"]) == 3

    supporting, target = method1_operator_set(3, 4, 3)
    system = system_from_operators(3, supporting + [target])
    unsat_path = tmp_path / "unsat.json"
    unsat_path.write_text(json.dumps(system.to_json_dict()))
    code, out, _ = run(capsys, "hv-solve", str(unsat_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "UNSAT" and "witness" not in payload


def test_invariance_demo_command(capsys):
    code, out, _ = run(
        capsys, "invariance-demo", "--d", "3", "--n", "3", "--angle", "1/12"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_forced"] is True
    assert all(r["holds"] for r in payload["relations"])

    code, out, _ = run(
        capsys,
        "invariance-demo",
        "--d", "2", "--n", "3", "--angle", "1/8", "--partition", "1:2",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["partition"] == [1, 2]
    assert any("1*dX_1(1/8) - 2*dX_1(1/16)" in r["description"] for r in payload["relations"])

    code, out, err = run(
        capsys,
        "invariance-demo",
        "--d", "2", "--n", "3", "--angle", "1/8", "--partition", "",
    )
    assert code == 2 and out == "" and "error" in err


def test_invariance_demo_names_the_partition_format(capsys):
    for partition in ("", "3", "1:", "1:2:0", "a:2"):
        code, out, err = run(
            capsys,
            "invariance-demo",
            "--d", "2", "--n", "3", "--angle", "1/8", "--partition", partition,
        )
        assert code == 2 and out == ""
        assert err == f"error: --partition must be N1:N2, two qudit counts, got {partition!r}\n"


def test_invariance_demo_rejects_non_canonical_angle(capsys):
    code, _, err = run(
        capsys, "invariance-demo", "--d", "3", "--n", "3", "--angle", "2/24"
    )
    assert code == 2 and "error" in err


def test_circle_command(capsys):
    code, out, _ = run(capsys, "circle", "--d", "3")
    assert code == 0
    assert json.loads(out) == {"d": 3, "points": ["0/1", "1/3", "2/3"]}
    assert run(capsys, "circle", "--d", "1")[0] == 2
    # one JSON entry per point: over 2^22 is refused before any point is built
    start = time.perf_counter()
    code, out, err = run(capsys, "circle", "--d", "100000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == "error: a circle of 100000000 points is over the limit of 4194304\n"
    assert run(capsys, "circle", "--d", "4194305")[0] == 2


def test_output_is_deterministic(capsys):
    first = run(capsys, "construct", "--d", "7", "--n", "3", "--method", "3")
    second = run(capsys, "construct", "--d", "7", "--n", "3", "--method", "3")
    assert first == second


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2
    assert run(capsys, "no-such-command")[0] == 2


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("main() built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    path = tmp_path / "c.json"
    construct = ("construct", "--d", "3", "--n", "4", "--method", "1")
    assert run(capsys, *construct, "--output", str(path))[0] == 0
    assert run(capsys, "verify", str(path))[0] == 0
    assert run(capsys, "circle", "--d", "3")[0] == 0
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "construct", "--d", "3")[0] == 2


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    path = tmp_path / "c.json"
    construct = ("construct", "--d", "3", "--n", "4", "--method", "1", "--f", "3")
    assert run(capsys, *construct, "--output", str(path))[0] == 0
    assert run(capsys, "construct", "--d", "5", "--n", "3")[0] == 0  # no --f left over
    code, out, _ = run(capsys, "verify", str(path), "--oracle", "none")
    assert code == 0 and json.loads(out)["oracle_checked"] is False
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and json.loads(out)["oracle_checked"] is True


def test_fresh_process_matches_in_process_main(tmp_path, capsys):
    path = tmp_path / "c.json"
    calls = (
        ("construct", "--d", "3", "--n", "4", "--method", "1", "--output", str(path)),
        ("verify", str(path)),
        ("circle", "--d", "1"),
    )
    for argv in calls:
        assert run_fresh(*argv) == run(capsys, *argv)


def test_satisfiable_certificate_carries_the_least_witness(tmp_path, capsys):
    # N = 6 is a multiple of f = 3: every eigenphase claim is right, but the
    # congruences are solvable, so the certificate is SAT and not certified
    supporting, target = method1_operator_set(3, 6, 3)
    c = Construction(
        d=3,
        n=6,
        method=1,
        phi_o=RationalPhase(1, 9),
        operators=tuple(supporting),
        target=target,
        f=3,
    )
    data = verify_construction(c, oracle=True).to_json_dict()
    assert data["quantum_ok"] is True and data["oracle_checked"] is True
    assert data["hv_status"] == "SAT" and data["certified"] is False
    witness = brute_force_solve(system_from_operators(3, supporting + [target])).witness
    assert data["hv_witness"] == list(witness) == [0] * 8 + [1, 0, 0, 1]
    path = tmp_path / "sat.json"
    path.write_text(json.dumps(c.to_json_dict()))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1 and json.loads(out) == data


def test_huge_dimension_constructs_and_certifies(tmp_path):
    # regime 2 at d = 10^12: the classifier stops at N, and method 2 builds
    # N+3 operators whatever d is
    path = tmp_path / "huge.json"
    code, _, err = run_fresh(
        "construct", "--d", "1000000000000", "--n", "4", "--output", str(path)
    )
    assert code == 0, err
    code, out, err = run_fresh("verify", str(path), "--oracle", "none")
    assert code == 0, err
    certificate = json.loads(out)
    assert certificate["certified"] and certificate["construction"]["method"] == 2
    assert len(certificate["construction"]["operators"]) + 1 == 7
    # d^N = 10^4800 has more digits than Python converts to text: the
    # dense-oracle skip warning printed it and verify exited 2
    code, _, err = run_fresh(
        "construct", "--d", "1000000000000", "--n", "400", "--output", str(path)
    )
    assert code == 0, err
    code, out, err = run_fresh("verify", str(path))
    assert code == 0, err
    assert json.loads(out)["certified"] is True
    assert err.startswith("warning: dense oracle skipped")


def test_method3_staircase_limit_exits_2():
    # d = 1000003 is prime, so the cell is regime 3, and m = d-2 is off the
    # ladder: its staircase would need a million operators
    code, out, err = run_fresh("construct", "--d", "1000003", "--n", "3")
    assert code == 2 and out == ""
    assert "1000000 operators, over the limit of 65536" in err


def test_dense_json_is_bounded(tmp_path):
    # (6, 4001) is method 1 with 4002 operators: 16 012 002 angle entries.
    # Writing them once ended in MemoryError tracebacks under a 3 GB limit.
    code, out, err = run_fresh("construct", "--d", "6", "--n", "4001")
    assert code == 2 and out == ""
    assert "16012002 angle entries, over the limit of 4194304" in err
    # every family has at least N+1 operators, so construct refuses
    # N(N+1) > 2^22 before it builds the family
    start = time.perf_counter()
    code, out, err = run_fresh("construct", "--d", "6", "--n", "1000001")
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert "1000003000002 angle entries, over the limit of 4194304" in err
    _check_json_size(2001, 2002)  # (6, 2001): 4 006 002 entries are written
    # verify refuses a document claiming N * M entries over the limit
    # before it reads any operator
    data = {
        "d": 6,
        "n": 2**21 + 1,
        "method": 1,
        "phi_o": "1/12",
        "operators": [{"angles": ["0/1"], "exponent": "0/1"}],
        "target": {"angles": ["0/1"], "exponent": "0/1"},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_fresh("verify", str(path))
    assert code == 2 and out == ""
    assert "4194306 angle entries, over the limit of 4194304" in err


def test_invariance_demo_over_the_limit_exits_2():
    start = time.perf_counter()
    argv = ("invariance-demo", "--d", "3", "--n", "400", "--angle", "1/12")
    code, out, err = run_fresh(*argv)
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert "63840400 angle entries, over the limit of 4194304" in err
