"""One benchmark workload in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --t0 T
    python3 perfbench/worker.py --workload NAME --seed N --setup-only --t0 T
    python3 perfbench/worker.py --write-reference

``run.py`` starts this process and reads the JSON object it prints as its
last line.  ``--t0`` is the ``time.monotonic()`` reading taken just before
the process was started, so set-up time covers interpreter start-up,
``import ghzcert`` and building the workload's inputs.

Timed passes call ``ghzcert.cli.main`` in-process with stdout and stderr
captured in memory, and are repeated while another pass is expected to
end within ``--seconds``.  Outputs are checked after each pass, outside
the timed region.  With ``--trace 1`` one untraced pass is followed by one
traced pass and one ``RationalPhase``-counting pass, so that a traced run
takes about as long as an untraced one.
``--write-reference`` records the answer digests of the current program
in ``reference.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
CPUS = sorted(os.sched_getaffinity(0))


def load_cli():
    """Import ``ghzcert.cli`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ghzcert.cli

    if not Path(ghzcert.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"ghzcert was imported from {ghzcert.__file__}, not {src}")
    return ghzcert.cli


def _probe_s() -> float:
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return perf_counter() - start


def move_to_fastest_cpu() -> None:
    """Pin this process to the allowed CPU that runs a short probe fastest.

    On a shared virtual machine each vCPU slows down on its own, for
    seconds at a time, when other tenants load its host core.  Moving to
    the fastest vCPU before each pass keeps most of that out of the
    timings.  Only this process's own affinity changes.
    """
    probes = {}
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        probes[cpu] = min(_probe_s() for _ in range(3))
    os.sched_setaffinity(0, {min(probes, key=probes.get)})


def invoke(cli, argv: tuple[str, ...]) -> tuple[Optional[int], str, str]:
    """Run one CLI call; return its exit code (None if it raised), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # a call that raises is a failed call, not a failed run
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


@dataclass
class Pass:
    wall_s: float
    item_s: list[float]
    calls: int
    failures: list[str]
    digests: dict[str, Optional[str]]


def run_pass(cli, items: list[workloads.Item], reference: Optional[dict]) -> Pass:
    """Time one pass over the items, then check every output.

    With ``reference`` None the digests are collected but not compared.
    """
    outputs = []
    item_s = []
    start = perf_counter()
    for item in items:
        began = perf_counter()
        for call in item:
            outputs.append((call, *invoke(cli, call.argv)))
        item_s.append(perf_counter() - began)
    wall_s = perf_counter() - start

    failures = []
    digests = {}
    for call, code, stdout, stderr in outputs:
        got, reason = workloads.answer(call, code, stdout, stderr)
        if not reason and reference is not None and call.key is not None:
            if got != reference.get(call.key):
                reason = "answer differs from the seed program's"
        if reason:
            failures.append(f"{' '.join(call.argv)}: {reason}")
        if call.key is not None:
            digests[call.key] = got
    return Pass(wall_s, item_s, len(outputs), failures, digests)


def trace_pass(cli, items, reference, untraced: Pass, spans_path: Path) -> tuple[dict, list[Pass]]:
    """One traced pass and one counting pass; return the layer metrics."""
    recorder = tracing.Recorder()
    move_to_fastest_cpu()
    with tracing.traced(recorder):
        traced = run_pass(cli, items, reference)
    counts: Counter = Counter()
    with tracing.counting_phases(counts):
        counted = run_pass(cli, items, reference)
    for extra in (traced, counted):
        if extra.digests != untraced.digests:
            extra.failures.append("traced outputs differ from the untraced run")
    tracing.write_spans(spans_path, recorder.spans)

    metrics = tracing.layer_metrics(recorder)
    metrics[tracing.PHASE_COUNT] = (counts[tracing.PHASE_COUNT], "count")
    metrics["trace.overhead_ratio"] = (traced.wall_s / untraced.wall_s, "ratio")
    return {"layers": metrics, "missing": recorder.missing}, [traced, counted]


def measure(args: argparse.Namespace) -> dict:
    cli = load_cli()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        items = workloads.build(args.workload, args.seed, Path(work_dir))
        reference = workloads.load_reference()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            return {"setup_s": setup_s}

        start = perf_counter()
        passes = []
        while not passes or (
            not args.trace
            and perf_counter() - start + statistics.median(p.wall_s for p in passes)
            <= args.seconds
        ):
            move_to_fastest_cpu()
            passes.append(run_pass(cli, items, reference))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        result = {"setup_s": setup_s}
        checked = list(passes)
        if args.trace:
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
            layers, extra = trace_pass(cli, items, reference, passes[0], spans_path)
            result.update(layers)
            checked += extra

    failures = [reason for p in checked for reason in p.failures]
    result.update(
        {
            "wall_s": [p.wall_s for p in passes],
            "item_s": [p.item_s for p in passes],
            "attempted": sum(p.calls for p in checked),
            "failed": len(failures),
            "failures": failures[:10],
            "peak_rss_mb": peak_rss_mb,
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
        }
    )
    return result


def write_reference() -> None:
    """Record the answer digests of every workload's calls (seed 0)."""
    cli = load_cli()
    OUT_DIR.mkdir(exist_ok=True)
    reference = {}
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work_dir:
        for name in workloads.WORKLOADS:
            done = run_pass(cli, workloads.build(name, 0, Path(work_dir)), None)
            if done.failures:
                raise SystemExit(f"{name}: {done.failures[0]}")
            reference.update(done.digests)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCE_PATH.write_text(text, encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, help="time.monotonic() when started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None or args.t0 is None:
        parser.error("--workload and --t0 are required")
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
