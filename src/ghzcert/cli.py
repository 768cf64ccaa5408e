"""Command-line front end.

Subcommands: construct, verify, classify, hv-solve, invariance-demo,
circle.  Payloads are deterministic JSON on stdout (CSV for the regime
grid), diagnostics go to stderr.  Exit codes: 0 = certified contradiction
or successful query, 1 = valid run without a contradiction
(no-contradiction result or a satisfiable system), 2 = any failure:
usage, input, a limit or an internal error, all decided in ``main``.
The parser is built once per process, at import, because in-process
callers (the tests and the benchmark) call ``main()`` many times.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from pathlib import Path

from .constructions import (
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
from .operators import DEFAULT_DENSE_CAP, _JSON_CAP, _check_dim, _check_json_size
from .phases import RationalPhase

__all__ = ["main"]


_quote = json.encoder.encode_basestring_ascii
_LITERALS = {None: "null", True: "true", False: "false"}
_CHUNK = 2**14  # fragments of the JSON text joined into one piece


def _indented(value: object, out: list[str], pieces: list[str], newline: str) -> None:
    """Append ``json.dumps(value, indent=2)`` to out, nested at newline.

    ``json.dumps`` with an indent runs the pure-Python encoder; this
    writes the same text with the C string escaper.  Strings, ints,
    booleans, None and lists and objects of them are written directly,
    and a value whose type has ``_json_fragments(newline)`` by that
    writer: a ``Construction``, one fragment per operator, or an
    ``InvarianceReport``, one per relation.  Any other value (a float, a
    tuple, an object with non-string keys) goes to ``json.dumps``, whose
    lines are re-indented to this depth.  Once out holds ``_CHUNK``
    fragments they are joined onto pieces and out is emptied, also
    between a writer's fragments, so the fragments cost memory of the
    order of the text they spell, not of one object per fragment.
    """
    if len(out) >= _CHUNK:
        pieces.append("".join(out))
        out.clear()
    kind = type(value)
    if kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None or kind is bool:
        out.append(_LITERALS[value])
    elif kind is list and value:
        inner = newline + "  "
        separator = "," + inner
        if type(value[0]) is str:
            # a list of strings, such as an operator's angles, in one join;
            # _quote raises TypeError on any other item, before anything
            # is written, and the list then takes the general path below
            try:
                out.append("[" + inner + separator.join(map(_quote, value)) + newline + "]")
                return
            except TypeError:
                pass
        out.append("[")
        for i, item in enumerate(value):
            out.append(separator if i else inner)
            _indented(item, out, pieces, inner)
        out.append(newline + "]")
    elif kind is dict and value and all(type(key) is str for key in value):
        inner = newline + "  "
        separator = "," + inner
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            out.append((separator if i else inner) + _quote(key) + ": ")
            _indented(item, out, pieces, inner)
        out.append(newline + "}")
    elif hasattr(kind, "_json_fragments"):
        for fragment in value._json_fragments(newline):
            if len(out) >= _CHUNK:
                pieces.append("".join(out))
                out.clear()
            out.append(fragment)
    else:
        out.append(json.dumps(value, indent=2).replace("\n", newline))


def _json_pieces(payload: object) -> list[str]:
    """``json.dumps(payload, indent=2)``, byte for byte, as consecutive pieces."""
    out: list[str] = []
    pieces: list[str] = []
    _indented(payload, out, pieces, "\n")
    pieces.append("".join(out))
    return pieces


def _emit(payload: object, output: str | None) -> None:
    """Print the payload as indented JSON, after writing it to output.

    The text is written piece by piece, so it is held once, as its
    pieces, and never joined or encoded whole.  An existing output file
    is rewritten in place and then cut at the end of the new text:
    opening it with truncation makes ext4 flush it to disk on close
    (its replace-via-truncate heuristic), several times the cost of the
    write.  Only a regular file is cut, so a device such as /dev/null or
    a pipe takes the text as it is.  A crash in the middle of the write
    leaves the new text's prefix followed by a stale tail of the old
    file.  ``verify`` checks such a file as it reads it: it refuses it
    with exit code 2 unless the mixed text happens to be a well-formed
    family, and then certifies it only if that family passes every
    check, as for any file.
    """
    pieces = _json_pieces(payload)
    if output:
        fd = os.open(output, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as file:
            file.writelines(pieces)
            file.write("\n")
            file.flush()
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    sys.stdout.writelines(pieces)
    sys.stdout.write("\n")


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.f is not None and args.method != "1":
        raise ValueError("--f only applies to method 1")
    if args.n > 0:  # every family has N+1 operators or more: refuse before building
        _check_json_size(args.n, args.n + 1, "a construction of at least")
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
    if isinstance(result, NoContradiction):
        _emit(result.to_json_dict(), args.output)
        return 1
    _emit(result, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    data = json.loads(Path(args.input).read_text(encoding="utf-8"))
    construction = Construction.from_json_dict(data)
    use_oracle = args.oracle == "dense"
    certificate = verify_construction(construction, oracle=use_oracle)
    if use_oracle and not certificate.oracle_checked:
        print(
            f"warning: dense oracle skipped, d^N = {construction.d}^{construction.n}"
            f" exceeds the cap of {DEFAULT_DENSE_CAP}",
            file=sys.stderr,
        )
    _emit(certificate._fields(), None)
    return 0 if certificate.certified else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    """The plane as CSV rows or a JSON array, written cell by cell.

    The JSON text is ``json.dumps`` of the list of cells, byte for byte,
    but only one cell's dict and at most one piece of text are held at a
    time.  A plane always has a cell, so the array is never ``[]``.
    """
    cells = classify_plane(args.d_max, args.n_max, verify=args.verify)
    if args.format == "csv":
        for cell in cells:
            print(f"{cell.d},{cell.n},{cell.regime},{cell.witness_method}")
        return 0
    out: list[str] = []
    pieces: list[str] = []
    separator = "[\n  "
    for cell in cells:
        out.append(separator)
        separator = ",\n  "
        _indented(cell.to_json_dict(), out, pieces, "\n  ")
        if pieces:
            sys.stdout.writelines(pieces)
            pieces.clear()
    out.append("\n]\n")
    sys.stdout.write("".join(out))
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
        try:
            n1_text, n2_text = args.partition.split(":")
            partition = (int(n1_text), int(n2_text))
        except ValueError:
            raise ValueError(
                f"--partition must be N1:N2, two qudit counts, got {args.partition!r}"
            ) from None
    report = invariance_demo(args.d, args.n, angle, partition)
    _emit(report, None)
    return 0 if report.all_forced else 1


def _cmd_circle(args: argparse.Namespace) -> int:
    _check_dim(args.d)
    if args.d > _JSON_CAP:  # one JSON entry per point
        raise ValueError(
            f"a circle of {args.d} points is over the limit of {_JSON_CAP}"
        )
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
    if argv is None:
        argv = sys.argv[1:]
    try:
        # a known command's arguments go straight to its own parser, as
        # _parser would pass them on, so each call is parsed once; no
        # command, an unknown one and -h go through _parser
        command = _commands.choices.get(argv[0]) if argv else None
        if command is None:
            args = _parser.parse_args(argv)
        else:
            args, extra = command.parse_known_args(argv[1:])
            if extra:
                _parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except Exception as exc:  # any failure is exit 2, never a verdict
        message = str(exc) or type(exc).__name__
    # printed after the handler, which drops the failed command's frames:
    # after a MemoryError they may hold the memory the print needs
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
