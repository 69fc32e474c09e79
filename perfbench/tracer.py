"""In-memory span tracer around cvlab's public layer functions.

The benchmark installs wrappers by name; no file of the program changes.
A target that is missing, or whose leading parameters no longer match,
stays unwrapped and every metric of its layer is reported absent with
the reason; the untraced run never installs anything.

Each wrapped call of a non-leaf layer records a span ``(id, name, start,
end, parent id, sweep id)``.  Leaf layers run once per integrand point
(hundreds of thousands of calls per pass), so they only feed per-layer
totals, which keeps memory flat; their time still counts as child time
of the enclosing span.  ``s`` is inclusive time, ``self_s`` excludes
traced children, and counts such as ``evals`` come from the returned
results, so they do not depend on the machine.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _size(t, theta) -> int:
    if type(t) is float and type(theta) is float:
        return 1
    return int(np.broadcast(t, theta).size)


def _points(args, result):
    return (("points", _size(args[1], args[2])),)


def _quad_counts(args, result):
    return (("evals", result.evaluations), ("unconverged", int(not result.converged)))


def _improper_counts(args, result):
    return (
        ("evals", result.evaluations),
        ("windows", len(result.partial_sums)),
        ("diverged", int(result.divergence is not None)),
    )


# (layer, module, qualified name, leading parameters, counter)
TARGETS = (
    ("dsl.parse", "cvlab.dsl", "parse_metric", ("source",), None),
    ("dsl.eval", "cvlab.dsl", "eval_jet", ("expr", "t", "theta"), _points),
    ("zoo.build", "cvlab.zoo", "zoo_entry", ("name",), None),
    ("zoo.build", "cvlab.zoo", "make_capped_cone", ("slant",), None),
    ("chart", "cvlab.model", "EndChart.sqrt_jet", ("self", "t", "theta"), _points),
    ("chart", "cvlab.model", "EndChart.g", ("self", "t", "theta"), _points),
    ("model.validate", "cvlab.model", "validate_surface", ("model",), None),
    ("curvature.gauss", "cvlab.curvature", "gauss_curvature", ("end", "t", "theta"), None),
    ("quadrature.circle", "cvlab.quadrature", "integrate_circle", ("f", "tol"), _quad_counts),
    ("quadrature.annulus", "cvlab.quadrature", "integrate_annulus",
     ("f", "t_lo", "t_hi", "tol"), _quad_counts),
    ("quadrature.improper", "cvlab.quadrature", "integrate_improper",
     ("f", "t_lo", "tol"), _improper_counts),
    ("quadrature.tail_limit", "cvlab.quadrature", "estimate_tail_limit",
     ("samples", "monotone_from", "noise"), None),
    ("sweep.compute_sample", "cvlab.sweep", "compute_sample", ("model", "h", "tol"), None),
    ("sweep.mu_prime_order", "cvlab.sweep", "measure_mu_prime_order",
     ("model", "h0", "step", "tol"), None),
    ("sweep.detect_h1", "cvlab.sweep", "detect_h1", ("model", "h_probe_max"), None),
    ("sweep.curvature_range", "cvlab.sweep", "sampled_curvature_range",
     ("model", "h_probe_max"), None),
    ("sweep.direct", "cvlab.sweep", "total_curvature_direct", ("model", "tol"), None),
    ("sweep.run", "cvlab.sweep", "run_sweep", ("model", "schedule", "tol"), None),
    ("cli.load_config", "cvlab.cli", "load_surface_config", ("path",), None),
    ("cli.report", "cvlab.cli", "report_to_json_dict", ("report",), None),
    ("cli.report", "cvlab.cli", "report_to_csv", ("report",), None),
)
LEAF_LAYERS = frozenset({"dsl.eval", "chart", "curvature.gauss"})


class LayerStat:
    __slots__ = ("calls", "incl_s", "self_s", "depth", "counts")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.counts: dict[str, int] = {}


class Tracer:
    def __init__(self):
        self.active = False
        self.sweep_id: int | None = None
        self.spans: list[tuple] = []
        self.stats: dict[str, LayerStat] = {}
        self.absent: dict[str, str] = {}  # layer -> why it is not traced
        self.count_errors: dict[str, str] = {}  # layer -> why its counts are missing
        self._stack: list[list] = []  # [start, child time, span id, parent span id]
        self._patches: list[tuple] = []
        self._next_id = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, qualname, leading, counter in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                params = tuple(inspect.signature(fn).parameters)
            except (ImportError, AttributeError, TypeError, ValueError) as err:
                self.absent.setdefault(layer, f"{module_name}.{qualname} not found ({err})")
                continue
            if params[: len(leading)] != leading:
                self.absent.setdefault(
                    layer,
                    f"{module_name}.{qualname} signature changed: expected leading "
                    f"{leading}, found {params}",
                )
                continue
            wrapper = self._wrap(layer, fn, counter)
            if path:  # a method: patch the class
                self._patch(owner, attr, fn, wrapper)
                continue
            # patch every cvlab module that bound the function by name
            for name, module in list(sys.modules.items()):
                if name != "cvlab" and not name.startswith("cvlab."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, fn, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap(self, layer, fn, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, frame)
            if counter is not None and layer not in tracer.count_errors:
                try:
                    counts = tracer.stats[layer].counts
                    for key, n in counter(args, result):
                        counts[key] = counts.get(key, 0) + n
                except (AttributeError, TypeError, IndexError) as err:
                    tracer.count_errors[layer] = f"cannot count: {type(err).__name__}: {err}"
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- spans --------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        stat = self.stats.get(layer)
        if stat is None:
            stat = self.stats[layer] = LayerStat()
        stat.depth += 1
        stack = self._stack
        parent = None
        if stack:
            top = stack[-1]
            parent = top[2] if top[2] is not None else top[3]
        span_id = None
        if layer not in LEAF_LAYERS:
            span_id = self._next_id
            self._next_id += 1
        frame = [perf_counter(), 0.0, span_id, parent]
        stack.append(frame)
        return frame

    def _exit(self, layer: str, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        if self._stack:
            self._stack[-1][1] += duration
        stat = self.stats[layer]
        stat.calls += 1
        stat.self_s += duration - frame[1]
        stat.depth -= 1
        if stat.depth == 0:  # count nested calls of one layer once
            stat.incl_s += duration
        if frame[2] is not None:
            self.spans.append((frame[2], layer, frame[0], end, frame[3], self.sweep_id))

    @contextmanager
    def span(self, layer: str):
        """A benchmark-side span, such as one whole sweep."""
        if not self.active:
            yield
            return
        frame = self._enter(layer)
        try:
            yield
        finally:
            self._exit(layer, frame)

    # -- results ------------------------------------------------------------

    def reset_stats(self) -> None:
        self.stats = {}

    def metric(self, name: str):
        """(value, None) for a per-layer metric ``<layer>.<field>``, or
        (None, reason) when the layer could not be traced."""
        layer, field = name.rsplit(".", 1)
        if layer in self.absent:
            return None, self.absent[layer]
        stat = self.stats.get(layer) or LayerStat()
        if field == "s":
            return stat.incl_s, None
        if field == "self_s":
            return stat.self_s, None
        if field == "calls":
            return stat.calls, None
        if layer in self.count_errors:
            return None, self.count_errors[layer]
        return stat.counts.get(field, 0), None
