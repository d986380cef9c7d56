"""Span tracing of rislink's public functions, from outside the package.

A Tracer replaces each public function listed in LAYERS by a wrapper in
every rislink namespace that holds it (``rislink.metrics.meijer_g`` as
well as ``rislink.specfun.meijer_g``), records one span per call, and
puts the originals back on ``restore``.  Spans stay in memory as
``[name, start, end, parent_id, point_id, attrs]`` lists and are written
out once, at the end of the run.

Self time of a span is its duration minus the time its direct children
cover; the program is single-threaded under the harness, so children
never overlap.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

NAMESPACES = (
    "rislink", "rislink.cli", "rislink.validation", "rislink.metrics",
    "rislink.specfun", "rislink.fading",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _meijer_attrs(attrs, args, kwargs, result):
    attrs["method"] = result.method
    attrs["evals"] = int(result.details.get("evals", 0))


def _mc_attrs(attrs, args, kwargs, result):
    attrs["samples"] = int(_arg(args, kwargs, 2, "mc").n_samples)


def _draw_attrs(attrs, args, kwargs, result):
    attrs["draws"] = int(getattr(result, "size", 1))


def _draw_name(args, kwargs):
    return "fading.sample_sum." + _arg(args, kwargs, 1, "mode")


# (defining module, function, layer name or name-from-args, annotator)
LAYERS = (
    ("rislink.specfun", "meijer_g", "specfun.meijer_g", _meijer_attrs),
    ("rislink.metrics", "avg_capacity", "metrics.avg_capacity", None),
    ("rislink.metrics", "avg_ber", "metrics.avg_ber", None),
    ("rislink.metrics", "outage", "metrics.outage", None),
    ("rislink.metrics", "avg_capacity_asymptotic", "metrics.asymptotic", None),
    ("rislink.metrics", "avg_ber_asymptotic", "metrics.asymptotic", None),
    ("rislink.metrics", "outage_asymptotic", "metrics.asymptotic", None),
    ("rislink.validation", "quad_capacity", "validation.quad_capacity", None),
    ("rislink.validation", "quad_ber", "validation.quad_ber", None),
    ("rislink.validation", "quad_outage", "validation.quad_outage", None),
    ("rislink.validation", "mc_metric", "validation.mc_metric", _mc_attrs),
    ("rislink.validation", "ks_statistic", "validation.ks_statistic", None),
    ("rislink.fading", "sample_sum", _draw_name, _draw_attrs),
    ("rislink.cli", "parse_config", "cli.parse_config", None),
    ("rislink.cli", "run_sweep", "cli.run_sweep", None),
    ("rislink.cli", "write_csv", "cli.write_csv", None),
    ("rislink.cli", "run_validate", "cli.run_validate", None),
)


class Tracer:
    """Wraps the LAYERS functions and records a span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.point = None  # workload point id stamped on new spans
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in NAMESPACES]
        for home, attr, layer, annotate in LAYERS:
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(original, layer, annotate)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, original, layer, annotate):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args, kwargs)
            span = [name, time.perf_counter(), None,
                    stack[-1] if stack else None, self.point, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[5]["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if annotate is not None:
                annotate(span[5], args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "point", "attrs"],
                       "spans": self.spans}, fh)


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest sample with ten beyond it.

    Below 21 samples no percentile above the median has ten beyond it,
    and the maximum is used instead.
    """
    return n - 11 if n >= 21 else n - 1


def tail_label(n: int) -> str:
    if n < 21:
        return f"maximum of {n} samples (too few for ten beyond a percentile)"
    return f"p{100.0 * (n - 10) / n:.1f} of {n} samples, 10 beyond"


UNITS = {
    "calls": "count", "self_s": "s", "ms_p50": "ms", "ms_tail": "ms",
    "failed": "count", "evals": "count", "evals_per_s": "1/s",
    "contour_frac": "fraction", "samples": "count", "draws": "count",
    "draws_per_s": "1/s",
}

# the per-layer metrics reported, in order: layer name, statistics
REPORTED = (
    ("specfun.meijer_g", ("calls", "self_s", "ms_p50", "ms_tail", "failed",
                          "evals", "evals_per_s", "contour_frac")),
    ("metrics.avg_capacity", ("calls", "self_s", "ms_p50", "failed")),
    ("metrics.avg_ber", ("calls", "self_s", "ms_p50", "failed")),
    ("metrics.outage", ("calls", "self_s", "ms_p50", "failed")),
    ("metrics.asymptotic", ("self_s",)),
    ("validation.quad_capacity", ("calls", "self_s", "ms_p50")),
    ("validation.quad_ber", ("calls", "self_s", "ms_p50")),
    ("validation.quad_outage", ("calls", "self_s", "ms_p50")),
    ("validation.mc_metric", ("calls", "self_s", "samples")),
    ("fading.sample_sum.model_draw", ("draws", "self_s", "draws_per_s")),
    ("fading.sample_sum.physical_draw", ("draws", "self_s", "draws_per_s")),
    ("validation.ks_statistic", ("self_s",)),
    ("cli.run_sweep", ("self_s",)),
    ("cli.run_validate", ("self_s",)),
    ("cli.write_csv", ("self_s",)),
    ("cli.parse_config", ("self_s",)),
)


@dataclass
class _Layer:
    durations: list[float] = field(default_factory=list)
    self_s: float = 0.0
    failed: int = 0
    evals: int = 0
    contour: int = 0
    samples: int = 0
    draws: int = 0

    def stat(self, key: str) -> float:
        n = len(self.durations)
        ordered = sorted(self.durations)
        per_s = lambda count: count / self.self_s if self.self_s > 0.0 else 0.0  # noqa: E731
        derived = {
            "calls": n,
            "ms_p50": 1e3 * statistics.median(ordered) if n else 0.0,
            "ms_tail": 1e3 * ordered[tail_index(n)] if n else 0.0,
            "evals_per_s": per_s(self.evals),
            "draws_per_s": per_s(self.draws),
            "contour_frac": self.contour / n if n else 0.0,
        }
        return derived[key] if key in derived else getattr(self, key)


def layer_metrics(spans: list[list], wall_s: float, overhead_s: float):
    """Per-layer metrics from one traced repetition, as (name, value, unit)."""
    child_time = [0.0] * len(spans)
    for _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    layers: dict[str, _Layer] = defaultdict(_Layer)
    covered = 0.0
    for i, (name, t0, t1, parent, _, attrs) in enumerate(spans):
        if parent is None:
            covered += t1 - t0
        layer = layers[name]
        layer.durations.append(t1 - t0)
        layer.self_s += t1 - t0 - child_time[i]
        layer.failed += "error" in attrs
        layer.evals += attrs.get("evals", 0)
        layer.contour += attrs.get("method") == "contour_quadrature"  # specfun.CONTOUR_QUADRATURE
        layer.samples += attrs.get("samples", 0)
        layer.draws += attrs.get("draws", 0)
    out = [(f"{name}.{key}", layers[name].stat(key), UNITS[key])
           for name, keys in REPORTED for key in keys]
    return out + [
        ("trace.coverage", covered / wall_s if wall_s > 0.0 else 0.0, "fraction"),
        ("trace.overhead_s", overhead_s, "s"),
    ]
