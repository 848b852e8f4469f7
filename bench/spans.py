"""Span and counter recording around ramsey_bounds' public functions.

The benchmark installs these wrappers from its own files; the package is not
edited. Each wrapped call is a span (name, start, end, parent). Self time is
a span's duration minus the time its child spans cover. A call that re-enters
a span of the same name (``DephasingModel.dgamma_dt`` calling ``dgamma_dt``)
is counted once, so both call styles are covered without double counting.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

import numpy as np

PACKAGE = "ramsey_bounds"

# (module, attribute, span name, index of the time/frequency argument whose
# size counts as points, index of a callable argument whose calls are counted)
SPANS = [
    ("numerics", "integrate_semi_infinite", "numerics.integrate", None, 0),
    ("numerics", "solve_bracketed_root", "numerics.root", None, 0),
    ("dephasing", "DephasingModel.gamma", "dephasing.gamma", 1, None),
    ("dephasing", "gamma_closed", "dephasing.gamma", 1, None),
    ("dephasing", "DephasingModel.dgamma_dt", "dephasing.dgamma", 1, None),
    ("dephasing", "dgamma_dt", "dephasing.dgamma", 1, None),
    ("dephasing", "gamma_quadrature", "dephasing.quad", None, None),
    ("metrology", "optimal_interrogation", "metrology.optimum", None, None),
    ("metrology", "ratio_r", "metrology.ratio", None, None),
    ("metrology", "optimal_resolution", "metrology.resolution", None, None),
    ("oracle", "brute_force_optimum", "oracle.brute_force", None, None),
    ("oracle", "reference_gamma", "oracle.reference_gamma", None, None),
    ("cli", "main", "cli.main", None, None),
]

# Counted calls that are not spans: points through the spectral density, and
# panel refinement passes (the first pass of each integration seeds, every
# later one is a refinement round).
_SPECTRAL = ("dephasing", "spectral_density")
_REFINE = ("numerics", "_refined_panels")

# Name of the counter each callable argument feeds.
_ARG_COUNTER = {"numerics.integrate": "numerics.integrate.points",
                "numerics.root": "numerics.root.evals"}

SPAN_RECORD_CAP = 20000


def _fed_names():
    """Every counter the wrappers write, so that a name nothing feeds is an
    error rather than a silent 0."""
    names = {"_refine", "dephasing.spectral.points", "metrology.no_optimum",
             "metrology.optimum.dgamma_points", "numerics.integrate.rounds",
             *_ARG_COUNTER.values()}
    for _, _, name, points_arg, _ in SPANS:
        names.update(name + suffix for suffix in (".calls", ".self_ms", ".ms"))
        if points_arg is not None:
            names.add(name + ".points")
    return sorted(names)


class Tracer:
    """Aggregates per-layer counts and self times; keeps raw spans up to a cap."""

    def __init__(self, scope=("",)):
        self.scope = scope  # prefixes of the span names recorded
        self.stats = dict.fromkeys(_fed_names(), 0.0)  # unknown names raise KeyError
        self.spans = []
        self._stack = []  # open spans: [start_ns, child_ns, span_id]
        self._open = defaultdict(int)  # open spans by name
        self._next_id = 0
        self._patches = []
        self._no_optimum = None

    # --- installation -------------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        """Wrap the package's functions for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def install(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}")
                   for m in ("numerics", "dephasing", "metrology", "oracle", "cli")}
        self._no_optimum = importlib.import_module(f"{PACKAGE}.errors").NoFiniteOptimum
        every = [importlib.import_module(PACKAGE), *modules.values()]
        for mod_name, attr, name, points_arg, fn_arg in SPANS:
            owner, leaf = modules[mod_name], attr
            if "." in attr:
                cls, leaf = attr.split(".")
                owner = getattr(owner, cls)
            original = getattr(owner, leaf)
            wrapper = self._span(name, original, points_arg, fn_arg)
            self._replace(every, original, wrapper)
            if "." in attr:
                self._patch(owner, leaf, wrapper)
        spectral = getattr(modules[_SPECTRAL[0]], _SPECTRAL[1])
        self._replace(every, spectral,
                      self._counter(spectral, "dephasing.spectral.points", 1))
        refine = getattr(modules[_REFINE[0]], _REFINE[1])
        self._replace(every, refine, self._counter(refine, "_refine", None))

    def _replace(self, modules, original, wrapper):
        """Rebind every module-level name bound to ``original``, so that
        ``from .x import f`` copies in other modules are wrapped too."""
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, obj, key, wrapper):
        self._patches.append((obj, key, getattr(obj, key)))
        setattr(obj, key, wrapper)

    def uninstall(self):
        for obj, key, original in reversed(self._patches):
            setattr(obj, key, original)
        self._patches.clear()

    # --- recording ----------------------------------------------------------

    def _counter(self, fn, key, points_arg):
        """Count calls of ``fn`` (or the size of one argument) under ``key``."""
        stats = self.stats

        def wrapper(*args, **kwargs):
            stats[key] += 1 if points_arg is None else np.size(args[points_arg])
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn, points_arg, fn_arg):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._open[name] or not name.startswith(tracer.scope):
                return fn(*args, **kwargs)
            stats = tracer.stats
            stats[name + ".calls"] += 1
            if points_arg is not None and len(args) > points_arg:
                size = np.size(args[points_arg])
                stats[name + ".points"] += size
                if name == "dephasing.dgamma" and tracer._open["metrology.optimum"]:
                    stats["metrology.optimum.dgamma_points"] += size
            if fn_arg is not None:
                key = _ARG_COUNTER[name]
                counted = tracer._counter(args[fn_arg], key,
                                          0 if key.endswith(".points") else None)
                args = (*args[:fn_arg], counted, *args[fn_arg + 1:])
            refine_before = stats["_refine"]
            parent = tracer._stack[-1][2] if tracer._stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [time.perf_counter_ns(), 0, span_id]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            try:
                return fn(*args, **kwargs)
            except tracer._no_optimum:
                if name == "metrology.optimum":
                    stats["metrology.no_optimum"] += 1
                raise
            finally:
                end = time.perf_counter_ns()
                tracer._open[name] -= 1
                tracer._stack.pop()
                duration = end - frame[0]
                stats[name + ".self_ms"] += (duration - frame[1]) * 1e-6
                stats[name + ".ms"] += duration * 1e-6
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if name == "numerics.integrate":
                    stats["numerics.integrate.rounds"] += max(
                        0.0, stats["_refine"] - refine_before - 1)
                if len(tracer.spans) < SPAN_RECORD_CAP:
                    tracer.spans.append((span_id, parent, name, frame[0], end))
        return wrapper
