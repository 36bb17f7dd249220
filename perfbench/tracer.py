"""Outside-in span tracer for the equiweyl package.

The tracer never edits the package source.  It replaces every binding of
every public function (and every public method of a public class) in the
loaded ``equiweyl`` modules with a thin wrapper that records a span.  Modules
bind names directly (``from .util import pairwise_sum``), so patching only
the home module would miss calls: every module attribute that is one of the
original function objects is replaced.  Private names (leading underscore)
are never wrapped, because planned rewrites will rename them.

Spans live in memory (name id, start, end, parent index) with one stack per
thread, and are written out once, when the benchmark ends.  Work counters
are derived from the wrapped calls' arguments and return values only.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import threading
import time
import types

PACKAGE = "equiweyl"
LAYERS = ("cli", "lab", "spectral", "eigensolve", "specfun", "statphase",
          "weylcoef", "geometry", "util")

_BASIS_BUILDERS = ("eigensolve.sphere_basis", "eigensolve.torus_basis",
                   "eigensolve.surface_of_revolution_basis")


def _assoc_ladder_steps(args, kwargs, result):
    m, k_max, alpha = _bind(args, kwargs, ("m", "k_max", "alpha"))
    size = getattr(alpha, "size", 1)
    return {"specfun.assoc_ladder.steps": (int(k_max) - abs(int(m)) + 1) * int(size)}


def _quad_nodes(args, kwargs, result):
    return {"statphase.quad_nodes": math.prod(int(n) for n in result)}


def _written_text_bytes(args, kwargs, result):
    _, text = _bind(args, kwargs, ("path", "text"))
    return {"util.atomic_write_text.bytes": len(text.encode())}


def _exported_bytes(args, kwargs, result):
    _, path = _bind(args, kwargs, ("basis", "path"))
    return {"eigensolve.export_basis.bytes": os.path.getsize(path)}


def _modes_built(args, kwargs, result):
    return {"eigensolve.modes_built": len(result.modes)}


def _bind(args, kwargs, names):
    return [args[i] if i < len(args) else kwargs[name] for i, name in enumerate(names)]


# counters keyed by span name; each maps (args, kwargs, result) -> increments
COUNTERS = {
    "specfun.assoc_ladder": _assoc_ladder_steps,
    "statphase.StationaryPhaseProblem.resolve_nodes": _quad_nodes,
    "util.atomic_write_text": _written_text_bytes,
    "eigensolve.export_basis": _exported_bytes,
    **{name: _modes_built for name in _BASIS_BUILDERS},
}

# spans whose name is refined by their first argument, e.g. the experiment id
TAGGED = {"lab.run_experiment"}


def _is_traceable_function(obj, module):
    if isinstance(obj, types.FunctionType):
        return obj.__module__ == module.__name__
    # functools.lru_cache wrappers (util.gauss_nodes) are callables too
    wrapped = getattr(obj, "__wrapped__", None)
    return (isinstance(wrapped, types.FunctionType) and hasattr(obj, "cache_info")
            and wrapped.__module__ == module.__name__)


def _own_method(func, module):
    # dataclass-generated methods are compiled from strings, not the module file
    return (isinstance(func, types.FunctionType)
            and func.__code__.co_filename == getattr(module, "__file__", None))


class Tracer:
    """Records spans at every public boundary of the package's modules."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name_id, start, end, parent_index]
        self.counters = {}
        self._local = threading.local()
        self._lock = threading.Lock()  # guards names and counters across threads
        self._patches = []  # (owner, attribute, original)

    # -- installation

    def _name_id(self, name):
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def install(self):
        """Wrap every public function and public method of the loaded modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if mod is not None and name.startswith(PACKAGE + ".")]
        if not modules:
            raise RuntimeError(f"no {PACKAGE} module is loaded")
        wrappers = {}  # id(original) -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if _is_traceable_function(obj, mod):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, mod, layer)
        # replace every binding, including re-exports in other modules and
        # in the package namespace itself
        owners = modules + [sys.modules[PACKAGE]]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrapper)

    def _wrap_methods(self, cls, mod, layer):
        for attr, func in list(vars(cls).items()):
            public = not attr.startswith("_") or attr == "__init__"
            if public and _own_method(func, mod):
                self._patches.append((cls, attr, func))
                setattr(cls, attr, self._wrap(func, f"{layer}.{cls.__name__}.{attr}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, func, name):
        nid = self._name_id(name)
        counter = COUNTERS.get(name)
        tagged = name in TAGGED
        spans = self.spans
        local = self._local
        lock = self._lock
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = nid
            if tagged:
                sid = tracer._name_id(f"{name}.{_bind(args, kwargs, ('name',))[0]}")
            span = [sid, 0.0, 0.0, stack[-1] if stack else -1]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                increments = counter(args, kwargs, result)
                with lock:
                    for key, inc in increments.items():
                        tracer.counters[key] = tracer.counters.get(key, 0) + inc
            return result

        return traced

    # -- output

    def summary(self):
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rows = {}
        for (nid, start, end, _), inner in zip(self.spans, child_time):
            row = rows.setdefault(self.names[nid], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += (end - start) - inner
        return {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in rows.items()}

    def write(self, path):
        """Write every span as one CSV row: name,start_s,end_s,parent."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{self.names[nid]},{start:.9f},{end:.9f},{parent}\n")


# ---------------------------------------------------------------------------
# per-layer metrics, with the names every later change is judged by


def per_layer_spec(experiment_ids):
    """(metric name, unit) for every per-layer metric, in report order."""
    spec = [("cli.main.self_s", "s")]
    spec += [(f"lab.run_experiment.{eid}.s", "s") for eid in experiment_ids]
    spec += [("lab.write_report.calls", "count"), ("lab.write_report.self_s", "s"),
             ("lab.fit_power_law.calls", "count"),
             ("specfun.assoc_ladder.calls", "count"), ("specfun.assoc_ladder.self_s", "s"),
             ("specfun.assoc_ladder.steps", "count"),
             ("eigensolve.surface_of_revolution_basis.self_s", "s"),
             ("eigensolve.sphere_basis.self_s", "s"),
             ("eigensolve.modes_built", "count"),
             ("eigensolve.EigenMode.density.calls", "count"),
             ("eigensolve.export_basis.self_s", "s"), ("eigensolve.export_basis.bytes", "bytes"),
             ("eigensolve.import_basis.self_s", "s")]
    for fn in ("kuznecov_sum", "reduced_spectral_diag", "sphere_diag_direct", "cluster_lp_norm"):
        spec += [(f"spectral.{fn}.calls", "count"), (f"spectral.{fn}.self_s", "s")]
    spec += [("spectral.counting_function.calls", "count")]
    for fn in ("oscillatory_integral", "critical_set_scan", "hybrid_integral",
               "stationary_expansion"):
        spec += [(f"statphase.{fn}.calls", "count"), (f"statphase.{fn}.self_s", "s")]
    spec += [("statphase.StationaryPhaseProblem.init_self_s", "s"),
             ("statphase.quad_nodes", "count")]
    for fn in ("local_leading_coefficient", "global_leading_coefficient"):
        spec += [(f"weylcoef.{fn}.calls", "count"), (f"weylcoef.{fn}.self_s", "s")]
    spec += [("geometry.lifted_orbit_volume.calls", "count"),
             ("geometry.lifted_orbit_volume.self_s", "s"),
             ("geometry.cosphere_fiber_slice.self_s", "s"),
             ("util.pairwise_sum.calls", "count"), ("util.pairwise_sum.self_s", "s"),
             ("util.gauss_nodes.hit_ratio", "ratio"), ("util.gauss_nodes.lookups", "count"),
             ("util.gauss_nodes.cold_hit_ratio", "ratio"),
             ("util.gauss_nodes.cold_lookups", "count"),
             ("util.atomic_write_text.calls", "count"), ("util.atomic_write_text.bytes", "bytes"),
             ("util.atomic_write_text.self_s", "s")]
    spec += [(f"{layer}.self_s", "s") for layer in LAYERS]
    spec += [("trace.overhead_ratio", "ratio"), ("trace.coverage_ratio", "ratio")]
    return spec


# metric names that read a span under another name
_ALIASES = {"statphase.StationaryPhaseProblem.init_self_s":
            "statphase.StationaryPhaseProblem.__init__.self_s"}


def span_values(summary, counters):
    """Flat values from the span summary: <span>.calls, .self_s, .s (inclusive),
    the work counters, and the <layer>.self_s rollups."""
    values = dict(counters)
    for name, row in summary.items():
        values[f"{name}.calls"] = row["calls"]
        values[f"{name}.self_s"] = row["self_s"]
        values[f"{name}.s"] = row["total_s"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(row["self_s"] for name, row in summary.items()
                                        if name.startswith(layer + "."))
    for alias, name in _ALIASES.items():
        if name in values:
            values[alias] = values[name]
    return values
