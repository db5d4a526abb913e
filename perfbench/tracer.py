"""Span tracer for the traced run: wraps aperiodic's public functions in place.

Every public module-level function of every ``aperiodic`` module, plus the
window ``accepts`` methods and ``LatticeScheme.star_exact``, is replaced by a
wrapper at every ``aperiodic.*`` attribute that binds it (``enumerate_cut``
is bound in ``cli``, ``torus``, ``scheme`` and the package itself).  A
wrapper records one span -- name, start, end, parent -- and, for the
functions below, work counts derived from its arguments and return value.
Spans stay in memory until ``Tracer.take`` hands them to the caller, which
writes them out when the run ends.

Self time of a span is its duration minus the durations of its child spans,
so the self times of all spans under one root add up to the root's
duration.  Layers are the package modules; ``star_exact`` counts as
``exactmath`` because its work is exact quadratic arithmetic.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time

import numpy as np

# (module, class, method, span name) of the wrapped methods
METHODS = (("scheme", "LatticeScheme", "star_exact", "exactmath.star_exact"),
           ("window", "IntervalUnion", "accepts", "window.accepts"),
           ("window", "ConvexPolygon", "accepts", "window.accepts"))


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _eta_counts(args, kwargs, result):
    pos = _arg(args, kwargs, 0, "pos")
    deltas = _arg(args, kwargs, 1, "deltas")
    tol = _arg(args, kwargs, 4, "tol")
    lo = np.searchsorted(pos, np.asarray(_arg(args, kwargs, 2, "box_lo")) - tol, side="left")
    hi = np.searchsorted(pos, np.asarray(_arg(args, kwargs, 3, "box_hi")) + tol, side="right")
    return {"lookups": int((hi - lo).sum()) * len(deltas), "n": len(pos)}


def _weyl_terms(args, kwargs, result):
    ks = _arg(args, kwargs, 1, "ks")
    lo = np.asarray(_arg(args, kwargs, 2, "slice_lo"))
    hi = np.asarray(_arg(args, kwargs, 3, "slice_hi"))
    return {"terms": len(ks) * int((hi - lo).sum())}


def _file_bytes(args, kwargs, result):
    return {"bytes_written": os.path.getsize(_arg(args, kwargs, 1, "path"))}


# span name -> work counts of one call, from (args, kwargs, return value)
COUNTERS = {
    "scheme.enumerate_cut": lambda a, k, r: {"points": len(r)},
    "scheme.dual_candidates": lambda a, k, r: {"count": len(r.k)},
    "pointset.difference_set": lambda a, k, r: {"deltas": len(r), "n": len(a[0])},
    "kernels.eta_counts_1d": _eta_counts,
    "kernels.pairs_within_1d": lambda a, k, r: {"pairs": len(r[0])},
    "kernels.weyl_sums_1d": _weyl_terms,
    "autocorr.eta_table_for_deltas": lambda a, k, r: {"deltas": len(r.deltas),
                                                      "boxes": len(r.boxes)},
    "spectral.diffraction_table": lambda a, k, r: {"frequencies": len(r.entries)
                                                   + len(r.controls)},
    "spectral.separation_fraction": lambda a, k, r: {"samples": r.n_samples},
    "torus.singularity_test": lambda a, k, r: {"hits": len(r)},
    "serialize.pointset_to_csv": _file_bytes,
    "serialize.peak_table_to_csv": _file_bytes,
    "serialize.almost_periods_to_csv": _file_bytes,
    "serialize.json_dumps_stable": lambda a, k, r: {"bytes_written": len(r)},
    "serialize.ingest_csv": lambda a, k, r: {"rows_read": len(r[0])},
    "serialize.ingest_json": lambda a, k, r: {"rows_read": len(r[0])},
}


class Tracer:
    """Installs span-recording wrappers into the imported ``aperiodic`` package."""

    def __init__(self, package):
        self.package = package
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]
        self.spans: list = []      # [name, parent id, start, end, counts]
        self._stack: list = []
        self._saved: list = []     # (owner, attribute, original)

    def _targets(self) -> dict:
        """Function object -> span name, for every public function of the package."""
        names = {}
        for mod in self.modules[1:]:
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                # kernels binds each kernel twice (eta_counts_1d and eta_counts_1d_np)
                name = f"{mod.__name__.rsplit('.', 1)[-1]}.{attr}"
                if obj not in names or len(name) < len(names[obj]):
                    names[obj] = name
        return names

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # read the clock first, so that the wrapper's own work (and any
            # garbage collection it triggers) falls inside the span
            start = perf_counter()
            # cli.execute spans are named after the operation they run
            label = f"cli.{args[0]['operation']}" if name == "cli.execute" else name
            rec = [label, stack[-1] if stack else -1, start, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[4] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        if self._saved:
            return
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(getattr(self.package, mod_name), cls_name)
            original = vars(cls)[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def take(self) -> list:
        """Spans recorded since the last call, as a list of dicts."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        out = [{"name": n, "parent": p, "start": s, "end": e, "counts": c or {}}
               for n, p, s, e, c in self.spans]
        self.spans.clear()
        return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list) -> dict:
    """Per-span-name and per-layer totals of one traced sample.

    ``s`` is inclusive time not counted twice under a same-named ancestor,
    ``self_s`` is time outside every child span, and work counts are summed
    over calls.  Layer ``s`` counts a span only when no ancestor is in the
    same layer.
    """
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp["parent"] >= 0:
            child_time[sp["parent"]] += sp["end"] - sp["start"]
    funcs: dict = {}
    layers: dict = {}
    for i, sp in enumerate(spans):
        dur = sp["end"] - sp["start"]
        self_t = dur - child_time[i]
        name, layer = sp["name"], layer_of(sp["name"])
        same_name = same_layer = False
        p = sp["parent"]
        while p >= 0:
            same_name |= spans[p]["name"] == name
            same_layer |= layer_of(spans[p]["name"]) == layer
            p = spans[p]["parent"]
        f = funcs.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        f["calls"] += 1
        f["self_s"] += self_t
        if not same_name:
            f["s"] += dur
        for key, val in sp["counts"].items():
            f[key] = f.get(key, 0) + val
        lay = layers.setdefault(layer, {"s": 0.0, "self_s": 0.0})
        lay["self_s"] += self_t
        if not same_layer:
            lay["s"] += dur
    return {"funcs": funcs, "layers": layers}
