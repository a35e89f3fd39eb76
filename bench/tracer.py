"""Span tracer installed around igeolab's layers from outside the package.

The tracer rebinds the public functions of every igeolab module (and the
family methods of the density classes) to thin wrappers that record one
span per call: name, start, end and the index of the enclosing span.
Spans stay in memory; `layer_table` turns them into per-name call counts
and self time (a span's duration minus the time its direct children
cover) plus the work counters gathered at the same boundaries.

Nothing inside igeolab changes: `installed()` restores every original
object on exit, and the wrappers pass arguments and results through
untouched, so no random draw moves.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("grassmann", "densities", "geometry", "functionals", "report",
          "rearrange", "verify", "config", "runner")
FAMILIES = ("EllipsoidIndicator", "GaussianDensity", "TruncatedGaussian",
            "RadialGridDensity", "ProductDensity")
# density-model members timed per class; mass and sup are properties
METHODS = ("slice", "slice_stats_batch", "sample", "eval_many", "power")
PROPERTIES = ("mass", "sup")
# private helpers that carry a layer's bulk work and get a span of their own
EXTRA_FUNCTIONS = {"geometry": ("_tuple_volumes",),
                   "functionals": ("_section_norms_batch", "_section_norm_mc")}
# always reported, zero when a workload never reaches them
COUNTED = [f"densities.{member}.{fam}.{stat}" for fam in FAMILIES
           for member, stat in (("slice", "calls"),
                                ("slice_stats_batch", "rows"),
                                ("sample", "points"))] + [
    "densities.eval_many.points", "geometry.tuple_volumes.tuples",
    "grassmann.haar_bases.bases", "grassmann.flat_frames.frames",
    "report.mc_estimate.draws", "functionals.section_norm.calls"]
TIMED = [f"{layer}.self_s" for layer in LAYERS] + [
    f"densities.{member}.{fam}.self_s" for fam in FAMILIES
    for member in ("slice", "slice_stats_batch", "sample")] + [
    f"{name}.self_s" for name in (
        "densities.eval_many", "geometry.tuple_volumes",
        "grassmann.haar_bases", "grassmann.flat_frames",
        "report.mc_estimate", "runner.run_suite")]


class Tracer:
    """Collects spans and counters while installed; see module docstring."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def call(self, name, fn, args, kwargs, count=None):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)
        if count is not None:
            count(self, args, kwargs, result)
        return result

    def parent_name(self) -> str | None:
        """Name of the span enclosing the current call (after it ended)."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- installation ----------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        try:
            self._install()
            yield self
        finally:
            self.uninstall()

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _install(self):
        modules = [importlib.import_module(f"igeolab.{m}") for m in LAYERS]
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "igeolab" or name.startswith("igeolab.")]
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            names = list(getattr(mod, "__all__", ()))
            names += EXTRA_FUNCTIONS.get(layer, ())
            for name in names:
                fn = getattr(mod, name, None)
                if not callable(fn) or isinstance(fn, type) \
                        or hasattr(fn, "__wrapped__") \
                        or getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap_function(f"{layer}.{name.lstrip('_')}",
                                              fn, _FUNCTION_COUNTS.get(name))
                # rebind every alias, e.g. verify's `from .grassmann import
                # haar_bases`, so calls through any module reach the wrapper
                for ns in namespaces:
                    for alias, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, alias, wrapper)
        densities = importlib.import_module("igeolab.densities")
        base = densities.DensityModel
        for cls in vars(densities).values():
            if isinstance(cls, type) and issubclass(cls, base):
                self._wrap_class(cls, base)
        config = importlib.import_module("igeolab.config")
        for spec in config.CHECKS.values():
            self._set(spec, "run", self._wrap_function("config.run_check",
                                                       spec.run, None))

    def _wrap_function(self, name, fn, count):
        tracer = self
        if name == "report.mc_estimate":
            @functools.wraps(fn)
            def wrapper(draw, *args, **kwargs):
                return tracer.call(name, fn, (tracer._wrap_draw(draw),) + args,
                                   kwargs, count)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, count)
        return wrapper

    def _wrap_draw(self, draw):
        """Charge an mc_estimate draw closure to the module defining it."""
        layer = draw.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.draw"
        tracer = self

        def traced_draw(*args, **kwargs):
            return tracer.call(name, draw, args, kwargs)
        return traced_draw

    def _wrap_class(self, cls, base):
        tracer = self
        for meth in METHODS:
            fn = vars(cls).get(meth)
            if fn is None:
                continue
            scalar_path = cls is base
            count = _method_counter(meth, scalar_path)

            def make(meth=meth, fn=fn, count=count):
                @functools.wraps(fn)
                def wrapper(self_, *args, **kwargs):
                    return tracer.call(
                        f"densities.{meth}.{type(self_).__name__}", fn,
                        (self_,) + args, kwargs, count)
                return wrapper
            self._set(cls, meth, make())
        for prop in PROPERTIES:
            original = vars(cls).get(prop)
            if not isinstance(original, property):
                continue

            def make_prop(prop=prop, fget=original.fget):
                def getter(self_):
                    return tracer.call(
                        f"densities.{prop}.{type(self_).__name__}", fget,
                        (self_,), {})
                return property(getter, doc=fget.__doc__)
            self._set(cls, prop, make_prop())

    # -- aggregation -----------------------------------------------------
    def span_table(self) -> dict[str, dict]:
        """Per span name: calls and self seconds."""
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += end - start - child_time[idx]
        return table

    def layer_table(self, wall_s: float) -> dict[str, float]:
        """Flat metric map: self time and calls per span name and per
        layer, work counters and ratios.  Every name in COUNTED and TIMED
        is present, zero when the workload never reached it.  wall_s is
        the traced region's wall time, measured outside the root span."""
        out: dict[str, float] = dict.fromkeys(TIMED, 0.0)
        out.update(dict.fromkeys(COUNTED, 0))
        spans = self.span_table()
        for name, row in spans.items():
            out[f"{name}.calls"] = row["calls"]
            out[f"{name}.self_s"] = row["self_s"]
            parts = name.split(".")
            out[f"{parts[0]}.self_s"] += row["self_s"]
            if len(parts) == 3:      # a density member: sum over classes
                member = f"densities.{parts[1]}.self_s"
                out[member] = out.get(member, 0.0) + row["self_s"]
        out.update(self.counts)
        batched = self.counts["densities.slice_stats_batch.batched_rows"]
        rows = batched + self.counts["densities.slice_stats_batch.scalar_rows"]
        # no rows at all means no row took the scalar loop
        out["densities.batched_row_share"] = batched / rows if rows else 1.0
        tests = self.counts["grassmann.perturb_subspace.tests"]
        out["grassmann.perturb_subspace.accept_ratio"] = (
            self.counts["grassmann.perturb_subspace.accepted"] / tests
            if tests else 1.0)
        out["trace.spans"] = len(self.spans)
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(
            row["self_s"] for row in spans.values())
        return out


# -- work counters, recorded at the same boundaries as the spans -----------

def _rows(tracer, metric, n):
    tracer.counts[metric] += int(n)


def _method_counter(meth, scalar_path):
    if meth == "slice_stats_batch":
        path = "densities.slice_stats_batch." + (
            "scalar_rows" if scalar_path else "batched_rows")

        def count(tracer, args, kwargs, result):
            if result is None:       # not answered: the caller falls back
                return
            rows = len(result[0])
            _rows(tracer, f"densities.slice_stats_batch."
                  f"{type(args[0]).__name__}.rows", rows)
            _rows(tracer, path, rows)
    elif meth == "sample":
        def count(tracer, args, kwargs, result):
            _rows(tracer, f"densities.sample.{type(args[0]).__name__}.points",
                  len(result))
    elif meth == "eval_many":
        def count(tracer, args, kwargs, result):
            # pushforward models evaluate through their base: count once
            if not (tracer.parent_name() or "").startswith(
                    "densities.eval_many."):
                _rows(tracer, "densities.eval_many.points", len(result))
    else:
        count = None
    return count


def _count_tuples(tracer, args, kwargs, result):
    _rows(tracer, "geometry.tuple_volumes.tuples", result.size)


def _count_haar(tracer, args, kwargs, result):
    _rows(tracer, "grassmann.haar_bases.bases", len(result))


def _count_frames(tracer, args, kwargs, result):
    _rows(tracer, "grassmann.flat_frames.frames", len(result[0]))


def _count_distance(tracer, args, kwargs, result):
    if tracer.parent_name() == "grassmann.perturb_subspace":
        _rows(tracer, "grassmann.perturb_subspace.tests", 1)


def _count_perturb(tracer, args, kwargs, result):
    _rows(tracer, "grassmann.perturb_subspace.accepted", 1)


def _count_mc(tracer, args, kwargs, result):
    _rows(tracer, "report.mc_estimate.draws", result.samples)


_FUNCTION_COUNTS = {
    "_tuple_volumes": _count_tuples,
    "haar_bases": _count_haar,
    "flat_frames": _count_frames,
    "grassmann_distance": _count_distance,
    "perturb_subspace": _count_perturb,
    "mc_estimate": _count_mc,
}

