"""Span and counter tracing of locpacf layer functions, from outside the package.

``Tracer.install`` replaces each listed function in every ``locpacf.*``
module namespace that binds it, so calls made through module globals,
re-exports and ``from ... import`` bindings are all seen.  A function
that a later version of the package no longer has is skipped and simply
reports zero calls.

Spanned functions record ``[name, start, end, parent, op]`` in memory.
The hot fine-grained functions in ``COUNTED`` record only a call count
and their summed time; their time stays in the enclosing span's self
time.  Some spanned functions also report counts read off their
arguments or returned objects (``OBSERVED``).
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from time import perf_counter

PACKAGE = "locpacf"

SPANNED = (
    "cli.main",
    "io.read_series",
    "io.write_series",
    "io.write_long_csv",
    "io.write_rmse_csv",
    "io.svg_plot",
    "estimators.wavelet_lpacf",
    "estimators.windowed_lpacf",
    "estimators.classical_pacf",
    "estimators.local_yule_walker",
    "spectral.raw_wavelet_periodogram",
    "spectral.nondecimated_haar_transform",
    "spectral.smooth_and_correct",
    "spectral.local_autocovariance",
    "haar.a_matrix",
    "simulate.simulate_tvar",
    "simulate.simulate_piecewise_ar",
    "simulate.validate_stability",
    "simulate.true_pacf_curve",
    "simulate.monte_carlo_rmse",
)

COUNTED = (
    "estimators.prediction_system",
    "estimators.levinson_pacf",
    "simulate.true_tv_pacf",
    "simulate.ar_autocovariances",
    "haar.psi_auto",
)


def _grid_counts(prefix):
    def observe(bound, grid):
        return {
            f"{prefix}.points": len(grid.points),
            f"{prefix}.dropped": len(grid.dropped_points),
            f"{prefix}.clamped": int(grid.clamp_count),
        }

    return observe


def _file_bytes(name):
    def observe(bound, result):
        return {f"{name}.bytes": os.path.getsize(bound.arguments["path"])}

    return observe


def _long_csv(bound, result):
    grid = bound.arguments["grid"]
    return {
        "io.write_long_csv.rows": len(grid.points) * grid.estimates.shape[1],
        "io.write_long_csv.bytes": os.path.getsize(bound.arguments["path"]),
    }


def _rmse(bound, report):
    return {
        "simulate.replicates": int(bound.arguments["reps"]),
        "simulate.excluded": int(report.rows[0].excluded),
    }


OBSERVED = {
    "estimators.wavelet_lpacf": _grid_counts("estimators.wavelet_lpacf"),
    "estimators.windowed_lpacf": _grid_counts("estimators.windowed_lpacf"),
    "spectral.raw_wavelet_periodogram": lambda b, r: {
        "spectral.raw_wavelet_periodogram.cells": int(r.size)
    },
    "spectral.smooth_and_correct": lambda b, r: {
        "spectral.negative_cells": int(r.negative_cells)
    },
    "spectral.local_autocovariance": lambda b, r: {
        "spectral.floored_cells": int(r.floored_cells)
    },
    "io.read_series": _file_bytes("io.read_series"),
    "io.write_long_csv": _long_csv,
    "simulate.simulate_tvar": lambda b, r: {
        "simulate.simulate_tvar.samples": int(b.arguments["T"])
    },
    "simulate.monte_carlo_rmse": _rmse,
}


def layer_stats(spans) -> dict:
    """Per-name ``calls``, ``busy_s`` and ``self_s`` from one op's spans.

    Spans are ``(name, start, end, parent)`` sequences with ``parent`` the
    index of the enclosing span or -1.  Calls of one op run on one thread,
    so children never overlap and a span's self time is its duration minus
    the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {}
    for i, (name, start, end, *_rest) in enumerate(spans):
        st = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["busy_s"] += end - start
        st["self_s"] += end - start - child[i]
    return out


class Tracer:
    """Holds the spans, counters and observed counts of a traced process."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._op_start = 0
        self._counters = {}
        self._counts = {}
        self._bindings = []

    def install(self) -> None:
        """Bind a wrapper in place of every listed function, in every
        ``locpacf.*`` namespace that holds it."""
        if self._bindings:
            return
        wrappers = {}
        for names, make in ((SPANNED, self._span), (COUNTED, self._counter)):
            for dotted in names:
                mod_name, attr = dotted.rsplit(".", 1)
                mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
                fn = getattr(mod, attr, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, make(dotted, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._bindings.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, original in self._bindings:
            setattr(mod, attr, original)
        self._bindings = []

    def begin_op(self, op) -> None:
        self.op = op
        self._op_start = len(self.spans)
        self._counters = {}
        self._counts = {}

    def end_op(self) -> dict:
        """Summary of the spans, counters and counts recorded since begin_op."""
        base = self._op_start
        local = [
            (s[0], s[1], s[2], s[3] - base if s[3] >= 0 else -1)
            for s in self.spans[base:]
        ]
        layers = layer_stats(local)
        for name, (calls, secs) in self._counters.items():
            layers[name] = {"calls": calls, "busy_s": secs}
        return {"layers": layers, "counts": dict(self._counts)}

    def _span(self, name, fn):
        observe = OBSERVED.get(name)
        sig = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if observe is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counts = observe(bound, result)
                except (AttributeError, KeyError, TypeError, IndexError, OSError):
                    # the function's signature or result changed shape; the
                    # counts go missing rather than failing the op
                    counts = {}
                for key, val in counts.items():
                    self._counts[key] = self._counts.get(key, 0) + val
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                c = self._counters.setdefault(name, [0, 0.0])
                c[0] += 1
                c[1] += perf_counter() - t0

        return wrapper
