"""Per-layer spans and counts, recorded from outside ``ghzcert``.

``traced`` wraps each public function in ``LAYERS`` where it is looked
up: in every ``ghzcert`` module namespace that binds it, or as the class
attribute for a method or property.  Each call records a span (name,
start, end, parent) in memory.  ``counting_phases`` counts
``RationalPhase`` constructions in a pass of its own, so that this hot
counter does not inflate the traced self times.  Both put every original
object back when they exit.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

# (module, attribute); a dotted attribute is a class member.
LAYERS = (
    ("ghzcert.operators", "ProductOperator.collective_angle"),
    ("ghzcert.operators", "ProductOperator.apply_dense"),
    ("ghzcert.states", "dense_state"),
    ("ghzcert.states", "eigenvalue_exponent"),
    ("ghzcert.hidden_variables", "system_from_operators"),
    ("ghzcert.hidden_variables", "satisfiable"),
    ("ghzcert.hidden_variables", "solve"),
    ("ghzcert.hidden_variables", "forced_value"),
    ("ghzcert.hidden_variables", "invariance_demo"),
    ("ghzcert.hidden_variables", "brute_force_solve"),
    ("ghzcert.constructions", "witness_construction"),
    ("ghzcert.constructions", "verify_construction"),
    ("ghzcert.constructions", "check_irreducible"),
    ("ghzcert.constructions", "check_genuine_dimension"),
    ("ghzcert.cli", "main"),
)

EIGEN_HITS = "states.eigenvalue_exponent.hits"
VARS_SUM = "hidden_variables.system_from_operators.vars_sum"
CONSTRAINTS_SUM = "hidden_variables.system_from_operators.constraints_sum"
OPERATORS_SUM = "constructions.operators_sum"
PHASE_COUNT = "phases.RationalPhase.count"


def layer_name(module: str, attr: str) -> str:
    """``ghzcert.operators`` + ``ProductOperator.apply_dense`` -> ``operators.apply_dense``."""
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


def _count_hit(exponent: object, counts: Counter) -> None:
    counts[EIGEN_HITS] += exponent is not None


def _count_system(system, counts: Counter) -> None:
    counts[VARS_SUM] += len(system.variables)
    counts[CONSTRAINTS_SUM] += len(system.constraints)


def _count_operators(construction, counts: Counter) -> None:
    counts[OPERATORS_SUM] += construction.operator_count()


OBSERVERS: dict[str, Callable[[object, Counter], None]] = {
    "states.eigenvalue_exponent": _count_hit,
    "hidden_variables.system_from_operators": _count_system,
    "constructions.witness_construction": _count_operators,
}


class Recorder:
    """Spans and result counts of the wrapped calls, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # layers the program no longer has
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._open, self.counts
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(result, counts)
            return result

        return wrapper


def _package_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if name == "ghzcert" or name.startswith("ghzcert.")
    ]


@contextlib.contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer in ``LAYERS`` while the block runs."""
    restore: list[tuple[object, str, object]] = []
    try:
        for module_name, attr in LAYERS:
            name = layer_name(module_name, attr)
            owner_name, _, member = attr.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = vars(owner).get(member) if owner is not None else None
            if original is None:
                recorder.missing.append(name)
            elif owner_name:
                if isinstance(original, property):
                    fget = recorder.wrap(name, original.fget)
                    wrapper = property(fget, original.fset, original.fdel, original.__doc__)
                else:
                    wrapper = recorder.wrap(name, original)
                restore.append((owner, member, original))
                setattr(owner, member, wrapper)
            else:
                wrapper = recorder.wrap(name, original)
                for module in _package_modules():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            restore.append((module, key, value))
                            setattr(module, key, wrapper)
        yield recorder
    finally:
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)


@contextlib.contextmanager
def counting_phases(counts: Counter) -> Iterator[Counter]:
    """Count ``RationalPhase`` constructions while the block runs."""
    cls = sys.modules["ghzcert.phases"].RationalPhase
    original = vars(cls)["__init__"]

    def counted_init(self, *args, **kwargs):
        counts[PHASE_COUNT] += 1
        original(self, *args, **kwargs)

    cls.__init__ = counted_init
    try:
        yield counts
    finally:
        cls.__init__ = original


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so the children of a span never overlap
    and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - inner for (_, start, end, _), inner in zip(spans, covered)]


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(recorder: Recorder) -> dict[str, tuple[float, str]]:
    """Calls and self time per layer, plus the counts the observers kept."""
    calls: Counter = Counter()
    busy: Counter = Counter()
    verify_ms = []
    for (name, start, end, _), own in zip(recorder.spans, self_times(recorder.spans)):
        calls[name] += 1
        busy[name] += own
        if name == "constructions.verify_construction":
            verify_ms.append((end - start) * 1e3)
    metrics: dict[str, tuple[float, str]] = {}
    for module, attr in LAYERS:
        name = layer_name(module, attr)
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (busy[name], "s")
    probes = calls["states.eigenvalue_exponent"]
    hit_ratio = recorder.counts[EIGEN_HITS] / probes if probes else 0.0
    metrics["states.eigenvalue_exponent.hit_ratio"] = (hit_ratio, "ratio")
    for key in (VARS_SUM, CONSTRAINTS_SUM, OPERATORS_SUM):
        metrics[key] = (recorder.counts[key], "count")
    metrics["constructions.verify_construction.p50_ms"] = (_percentile(verify_ms, 50), "ms")
    metrics["constructions.verify_construction.p90_ms"] = (_percentile(verify_ms, 90), "ms")
    return metrics


def write_spans(path: Path, spans: list[list]) -> None:
    """Write the spans as gzipped JSON rows [name, start, end, parent]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": spans}, out)
