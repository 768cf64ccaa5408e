"""Command-line front end.

Subcommands: construct, verify, classify, hv-solve, invariance-demo,
circle.  Payloads are deterministic JSON on stdout (CSV for the regime
grid), diagnostics go to stderr.  Exit codes: 0 = certified contradiction
or successful query, 1 = valid run without a contradiction
(no-contradiction result or a satisfiable system), 2 = usage or input
error.  The parser is built once per process, at import, because
in-process callers (the tests and the benchmark) call ``main()`` many
times.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .constructions import (
    CertificationError,
    Construction,
    NoContradiction,
    classify,
    classify_plane,
    method1,
    method2,
    method3,
    verify_construction,
    witness_construction,
)
from .hidden_variables import HVSystem, invariance_demo, solve
from .operators import _check_dim
from .phases import RationalPhase

__all__ = ["main"]


def _emit(payload: dict | list, output: str | None) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.f is not None and args.method != "1":
        print("error: --f only applies to method 1", file=sys.stderr)
        return 2
    if args.method == "auto":
        result: Construction | NoContradiction = witness_construction(
            classify(args.d, args.n)
        )
    elif args.method == "1":
        result = method1(args.d, args.n, args.f)
    elif args.method == "2":
        result = method2(args.d, args.n)
    else:
        result = method3(args.d, args.n)
    _emit(result.to_json_dict(), args.output)
    return 1 if isinstance(result, NoContradiction) else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    data = json.loads(Path(args.input).read_text(encoding="utf-8"))
    construction = Construction.from_json_dict(data)
    use_oracle = args.oracle == "dense"
    certificate = verify_construction(construction, oracle=use_oracle)
    if use_oracle and not certificate.oracle_checked:
        print(
            f"warning: dense oracle skipped, d^N = "
            f"{construction.d**construction.n} exceeds the cap",
            file=sys.stderr,
        )
    _emit(certificate.to_json_dict(), None)
    return 0 if certificate.certified else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    cells = classify_plane(args.d_max, args.n_max, verify=args.verify)
    if args.format == "csv":
        for cell in cells:
            print(f"{cell.d},{cell.n},{cell.regime},{cell.witness_method}")
    else:
        _emit([cell.to_json_dict() for cell in cells], None)
    return 0


def _cmd_hv_solve(args: argparse.Namespace) -> int:
    data = json.loads(Path(args.input).read_text(encoding="utf-8"))
    system = HVSystem.from_json_dict(data)
    verdict = solve(system)
    payload: dict = {
        "status": verdict.status,
        "vars": [v.to_json_dict() for v in system.variables],
    }
    if verdict.witness is not None:
        payload["witness"] = list(verdict.witness)
    _emit(payload, None)
    return 0 if verdict.status == "UNSAT" else 1


def _cmd_invariance_demo(args: argparse.Namespace) -> int:
    angle = RationalPhase.parse(args.angle)
    partition = None
    if args.partition is not None:
        n1_text, _, n2_text = args.partition.partition(":")
        partition = (int(n1_text), int(n2_text))
    report = invariance_demo(args.d, args.n, angle, partition)
    _emit(report.to_json_dict(), None)
    return 0 if report.all_forced else 1


def _cmd_circle(args: argparse.Namespace) -> int:
    _check_dim(args.d)
    points = [str(RationalPhase(nu, args.d)) for nu in range(args.d)]
    _emit({"d": args.d, "points": points}, None)
    return 0


_parser = argparse.ArgumentParser(
    prog="ghzcert",
    description=(
        "Construct and certify GHZ contradictions for N qudits of "
        "dimension d, using exact arithmetic throughout."
    ),
)
_commands = _parser.add_subparsers(dest="command", required=True)

_construct = _commands.add_parser(
    "construct", help="synthesize a concurrent-operator contradiction"
)
_construct.add_argument("--d", type=int, required=True, help="qudit dimension")
_construct.add_argument("--n", type=int, required=True, help="number of qudits")
_construct.add_argument("--method", choices=["auto", "1", "2", "3"], default="auto")
_construct.add_argument(
    "--f", type=int, default=None, help="block length for method 1 (a factor of d)"
)
_construct.add_argument("--output", default=None, help="also write JSON to a file")
_construct.set_defaults(func=_cmd_construct)

_verify = _commands.add_parser("verify", help="certify a construction JSON file")
_verify.add_argument("input", help="path to a construction JSON file")
_verify.add_argument("--oracle", choices=["dense", "none"], default="dense")
_verify.set_defaults(func=_cmd_verify)

_grid = _commands.add_parser("classify", help="emit the (d, N) regime grid")
_grid.add_argument("--d-max", type=int, required=True)
_grid.add_argument("--n-max", type=int, required=True)
_grid.add_argument("--format", choices=["csv", "json"], default="csv")
_grid.add_argument(
    "--verify",
    action="store_true",
    help="certify every cell's witness construction before emitting",
)
_grid.set_defaults(func=_cmd_classify)

_hv = _commands.add_parser("hv-solve", help="solve a congruence-system JSON file")
_hv.add_argument("input", help="path to a hidden-variable system JSON file")
_hv.set_defaults(func=_cmd_hv_solve)

_demo = _commands.add_parser(
    "invariance-demo",
    help="show the variation relations forced at a sampled angle",
)
_demo.add_argument("--d", type=int, required=True)
_demo.add_argument("--n", type=int, required=True)
_demo.add_argument("--angle", required=True, help='turn fraction, e.g. "1/12"')
_demo.add_argument(
    "--partition", default=None, help='qudit split "N1:N2" for the scaling relation'
)
_demo.set_defaults(func=_cmd_invariance_demo)

_circle = _commands.add_parser(
    "circle", help="emit the special circle points nu/d for one dimension"
)
_circle.add_argument("--d", type=int, required=True)
_circle.set_defaults(func=_cmd_circle)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (
        OSError,
        json.JSONDecodeError,
        KeyError,
        TypeError,
        ValueError,
        CertificationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
