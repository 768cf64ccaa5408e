"""Benchmark of the ghzcert certifier, one workload per fresh process.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own ``worker.py`` process, which drives
``ghzcert.cli.main`` in-process and checks every verdict.  Set-up time is
the median over several fresh processes.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics ``wall_s``,
``item_p50_ms``, ``peak_rss_mb`` and ``setup_s``; with ``--trace 1`` it
holds the per-layer metrics of one traced pass.  ``--workload all`` runs
every workload in turn and prints one summary line per workload, with
``error_rate``.  See README.md in this directory for the rationale.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_PROBES = 4  # set-up-only processes; the measuring process adds one sample
RUN_LIMIT_S = 170.0  # one workload's run, set-up included, ends within this
# No thread pools beyond the one process: numpy's BLAS would start one per core.
WORKER_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


class WorkerFailed(RuntimeError):
    pass


def start_worker(options: list[str], deadline: float) -> dict:
    """Run ``worker.py`` to completion and return the JSON it printed last."""
    t0 = time.monotonic()
    command = [sys.executable, str(HERE / "worker.py"), *options, "--t0", repr(t0)]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env={**os.environ, **WORKER_ENV}, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker exceeded the {RUN_LIMIT_S:.0f} s limit") from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise WorkerFailed(done.stderr.strip()[-2000:] or f"exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    """Measure one workload; return the result object and report lines."""
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed)]
    setups = [
        start_worker(base + ["--setup-only"], deadline)["setup_s"]
        for _ in range(0 if trace else SETUP_PROBES)
    ]
    out = start_worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)

    attempted, failed = out["attempted"], out["failed"]
    lines = [f"failure: {reason}" for reason in out["failures"]]
    lines += [f"note: layer {layer} not found, its metrics read 0" for layer in out.get("missing", [])]
    if trace:
        metrics = {key: {"value": v, "unit": u} for key, (v, u) in out["layers"].items()}
    else:
        # Each item's fastest time in the run: slowdowns from other tenants
        # of the machine only ever add time (see README.md).
        fastest = [min(times) for times in zip(*out["item_s"])]
        setups.append(out["setup_s"])
        metrics = {
            "wall_s": {"value": sum(fastest), "unit": "s"},
            "item_p50_ms": {"value": statistics.median(fastest) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        lines.append(
            f"{name}: wall_s {metrics['wall_s']['value']:.4f} s"
            f" | item_p50_ms {metrics['item_p50_ms']['value']:.2f} ms"
            f" (n={len(fastest)} items, best of {len(out['wall_s'])} passes)"
            f" | peak_rss_mb {metrics['peak_rss_mb']['value']:.2f} MB"
            f" | setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setups)})"
            f" | error_rate {failed / attempted:.4f} ({failed} of {attempted} calls)"
        )
    lines.append(
        f"env: workload={name} seed={seed} python={out['python']} numpy={out['numpy']}"
        f" nproc={len(os.sched_getaffinity(0))} passes={len(out['wall_s'])}"
        f" pass_s={','.join(f'{w:.3f}' for w in out['wall_s'])}"
    )
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ghzcert" / "__init__.py").is_file():
        print(f"error: no ghzcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name], lines = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
    final = results[args.workload] if args.workload != "all" else results
    print(json.dumps(final))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
