"""In-memory span tracing of arsurvival's layers, applied from outside.

A layer is a list of targets ``(module, attribute path, counter)``.  While a
``Tracer`` is active every target is rebound to a wrapper that records one
span per call: name, layer, start, end, the span that was open when the call
began (its parent) and the counts ``counter(args, kwargs, result)`` returns.
Rebinding the attribute the caller looks up means no file under ``src/``
changes.  A target that no longer exists (a module or attribute removed by a
later refactor) is skipped and listed; a layer with no target left is
reported ``absent`` and reads 0, so the benchmark keeps running.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None       # index into Tracer.spans
    counts: dict = field(default_factory=dict)

    def as_list(self) -> list:
        return [self.name, self.layer, self.start, self.end, self.parent, self.counts]


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    try:
        for part in parents:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except AttributeError:
        return None


class Tracer:
    """Context manager that wraps the targets of ``layers`` while active."""

    def __init__(self, layers: dict):
        self.layers = layers
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for layer, targets in self.layers.items():
            found = 0
            for module, path, counter in targets:
                hit = _resolve(module, path)
                if hit is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                owner, name, fn = hit
                self._undo.append((owner, name, fn, name in vars(owner)))
                setattr(owner, name, self._wrap(f"{module}.{path}", layer, fn, counter))
                found += 1
            if not found:
                self.absent.append(layer)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, fn, own in reversed(self._undo):
            if own:
                setattr(owner, name, fn)
            else:
                delattr(owner, name)
        self._undo.clear()

    def _wrap(self, name: str, layer: str, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, time.perf_counter(),
                        parent=stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# span arithmetic


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return [(s.end - s.start)
            - union_length((max(c.start, s.start), min(c.end, s.end)) for c in kids)
            for s, kids in zip(spans, children)]


def busy(spans: list[Span], layer: str) -> float:
    """Wall time during which at least one span of ``layer`` was open."""
    return union_length((s.start, s.end) for s in spans if s.layer == layer)


def total(spans: list[Span], layer: str, key: str) -> int:
    return sum(s.counts.get(key, 0) for s in spans if s.layer == layer)


def path_steps(grid, survivors, paths: int) -> int:
    """Path-steps the engine simulated for a curve whose grid is 1..N.

    At step n exactly the paths with tau > n-1 are alive, so the count is
    sum over n = 1..N of survivors(n-1), with survivors(0) = paths.
    """
    grid = [int(n) for n in grid]
    if grid != list(range(1, len(grid) + 1)):
        raise ValueError("path-steps need a grid holding every horizon 1..N")
    return int(paths) + sum(int(s) for s in survivors[:-1])


# ---------------------------------------------------------------------------
# arsurvival's layers


def _words(args, kwargs, result):
    return {"words": int(result.size)}


def _samples(args, kwargs, result):
    return {"samples": int(result.size), "kind": args[0].kind.value}


def _engine(args, kwargs, curve):
    n_max = int(curve.grid[-1])
    return {"path_steps": path_steps(curve.grid, curve.survivors, curve.paths),
            "path_slots": int(curve.paths) * n_max}


def _written(args, kwargs, result):
    return {"bytes": len(args[1].encode())}


def _enumerated(args, kwargs, result):
    return {"calls": 1, "n": int(args[3])}


def _coeff_values(args, kwargs, result):
    return {"values": int(result[1])}


def _one_call(args, kwargs, result):
    return {"calls": 1}


# Each target is the attribute its caller looks up at call time: the CLI
# calls cli.estimate_survival, the engine calls mc.path_uniform_block and
# spec.transform, the benchmark calls the exact-analysis functions through
# their modules.
LAYERS = {
    "rng": [("arsurvival.mc", "path_uniform_block", _words),
            ("arsurvival.mc", "uniform_block", _words)],
    "transform": [("arsurvival.innovations", "InnovationSpec.transform", _samples)],
    "engine": [("arsurvival.cli", "estimate_survival", _engine)],
    "io": [("arsurvival.mc", "SurvivalCurve.to_json_dict", None),
           ("arsurvival.mc", "SurvivalCurve.to_csv_text", None),
           ("arsurvival.cli", "_dump", None),
           ("arsurvival.cli", "_write_atomic", _written)],
    "oracle": [("arsurvival.oracle", "enumerate_survival", _enumerated),
               ("arsurvival.oracle", "gaussian_pair_probability", _one_call)],
    "coeffs": [("arsurvival.acceptance", "coefficient_grid_discrepancy", _coeff_values)],
    "bounds": [("arsurvival.bounds", "exp_lower_bound", _one_call),
               ("arsurvival.asymptotics", "exp_lower_bound", _one_call)],
    "pathwise": [("arsurvival.mc", "pathwise_reduction_check", None),
                 ("arsurvival.mc", "pair_survival_frequency", None)],
    "asymptotics": [("arsurvival.asymptotics", "fit_decay", None),
                    ("arsurvival.asymptotics", "predict", None)],
}

TRANSFORM_KINDS = ("gaussian", "rademacher", "two_point")

# every per-layer metric with its unit, in report order
UNITS = {
    "rng.busy_s": "s", "rng.words": "count", "rng.words_per_s": "1/s",
    "rng.useful_word_ratio": "ratio",
    "transform.busy_s": "s", "transform.samples": "count",
    **{f"transform.samples_per_s.{kind}": "1/s" for kind in TRANSFORM_KINDS},
    "engine.self_s": "s", "engine.path_steps": "count", "engine.live_fraction": "ratio",
    "io.busy_s": "s", "io.bytes": "B",
    "oracle.busy_s": "s", "oracle.calls": "count", "oracle.max_n": "count",
    "coeffs.busy_s": "s", "coeffs.values": "count",
    "bounds.busy_s": "s", "bounds.calls": "count", "bounds.s_per_call": "s",
    "pathwise.busy_s": "s", "asymptotics.busy_s": "s",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], path_steps: int) -> dict:
    """Per-layer figures of one traced pass that simulated ``path_steps``.

    The path-steps come from the engine and from the full-matrix route of the
    pathwise checks; both draw their words from the rng layer.
    """
    words = total(spans, "rng", "words")
    engine_steps = total(spans, "engine", "path_steps")
    own = self_times(spans)
    out = {
        "rng.busy_s": busy(spans, "rng"),
        "rng.words": words,
        "rng.words_per_s": _ratio(words, busy(spans, "rng")),
        "rng.useful_word_ratio": _ratio(path_steps, words),
        "transform.busy_s": busy(spans, "transform"),
        "transform.samples": total(spans, "transform", "samples"),
    }
    for kind in TRANSFORM_KINDS:
        mine = [s for s in spans if s.layer == "transform" and s.counts.get("kind") == kind]
        out[f"transform.samples_per_s.{kind}"] = _ratio(
            sum(s.counts["samples"] for s in mine),
            union_length((s.start, s.end) for s in mine))
    out.update({
        "engine.self_s": sum(own[i] for i, s in enumerate(spans) if s.layer == "engine"),
        "engine.path_steps": engine_steps,
        "engine.live_fraction": _ratio(engine_steps, total(spans, "engine", "path_slots")),
        "io.busy_s": busy(spans, "io"),
        "io.bytes": total(spans, "io", "bytes"),
        "oracle.busy_s": busy(spans, "oracle"),
        "oracle.calls": total(spans, "oracle", "calls"),
        "oracle.max_n": max((s.counts["n"] for s in spans if "n" in s.counts), default=0),
        "coeffs.busy_s": busy(spans, "coeffs"),
        "coeffs.values": total(spans, "coeffs", "values"),
        "bounds.busy_s": busy(spans, "bounds"),
        "bounds.calls": total(spans, "bounds", "calls"),
        "bounds.s_per_call": _ratio(busy(spans, "bounds"), total(spans, "bounds", "calls")),
        "pathwise.busy_s": busy(spans, "pathwise"),
        "asymptotics.busy_s": busy(spans, "asymptotics"),
    })
    return out
