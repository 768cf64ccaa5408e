"""Command-line interface: payloads, exit codes, determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghzcert import method1, method3, system_from_operators, method1_operator_set
from ghzcert.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert code == 2 and out == "" and "--f only applies to method 1" in err


def test_construct_writes_output_file(tmp_path, capsys):
    path = tmp_path / "construction.json"
    code, out, _ = run(
        capsys,
        "construct", "--d", "3", "--n", "4", "--method", "1", "--output", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


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
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    path = tmp_path / "c.json"
    calls = (
        ("construct", "--d", "3", "--n", "4", "--method", "1", "--output", str(path)),
        ("verify", str(path)),
        ("circle", "--d", "1"),
    )
    for argv in calls:
        done = subprocess.run(
            [sys.executable, "-m", "ghzcert.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
        assert (done.returncode, done.stdout, done.stderr) == run(capsys, *argv)
