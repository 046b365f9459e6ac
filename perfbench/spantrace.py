"""Run-time span tracing of spankit's layers, installed from outside the
package.

Every public module-level function of each spankit module is replaced,
in every spankit module namespace that binds it, by a wrapper that
records one span (parent, layer, name, start, end).  The layer of a span
is the module that defines the function.  Hot leaves (functions called
hundreds of thousands of times for microseconds each) stay unwrapped so
that the traced run still resembles the untraced one; their time counts
as self time of the calling span.

Spans are kept in memory and written out once, when the traced pass
ends.  Nothing under ``src/`` is modified: wrappers live only in the
traced process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import time

LAYERS = ("cli", "verify", "simplex", "fincat", "pathnerve", "spans",
          "pushpull", "crw", "ratlin")

# Leaf helpers that each cost a few microseconds and run in inner loops.
# Wrapping them would multiply the traced run time without telling which
# layer the work belongs to: the caller's span already does.
HOT_LEAVES = frozenset({
    "crw.poly_zero", "crw.poly_const", "crw.poly_gen", "crw.poly_add",
    "crw.poly_scale", "crw.poly_mul", "crw.mono_weight", "crw.mono_parity",
    "crw.poly_str",
    "ratlin.mat", "ratlin.zeros", "ratlin.identity", "ratlin.shape",
    "ratlin.transpose",
    "simplex.all_monotone_maps",
    "pathnerve.is_degenerate", "pathnerve.act",
})


class Tracer:
    """Collects spans and boundary counters for one traced process."""

    def __init__(self):
        self.spans = []      # index = span id; (parent, layer, name, t0, t1)
        # ids of the open spans, innermost last
        self.stack = []
        self.enabled = True
        self.counters = {"ratlin.rref_entries": 0, "ratlin.rref_max_cols": 0,
                         "crw.d_matrix_entries": 0,
                         "pathnerve.nerve_candidates": 0,
                         "pathnerve.nerve_simplices": 0}
        self._wrappers = {}  # id(original) -> wrapper

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, layer, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = _OBSERVERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            spans.append((parent, layer, name, t0, t0))
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, layer, name, t0, t1)
            if observe is not None:
                observe(counters, args, result)
            return result

        traced.__perfbench_original__ = fn
        return traced

    def install(self):
        """Wrap the public functions of every imported spankit module and
        rebind them in every spankit namespace that refers to them.
        Safe to call again after more modules were imported."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name.startswith("spankit.") and mod is not None}
        for modname, mod in modules.items():
            layer = modname.split(".", 1)[1]
            if layer not in LAYERS:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname
                        or hasattr(fn, "__perfbench_original__")
                        or id(fn) in self._wrappers
                        or "%s.%s" % (layer, attr) in HOT_LEAVES):
                    continue
                self._wrappers[id(fn)] = (fn, self.wrap(
                    fn, layer, "%s.%s" % (layer, attr)))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        pathnerve = modules.get("spankit.pathnerve")
        if pathnerve is not None and not isinstance(pathnerve.itertools,
                                                    _CountingItertools):
            pathnerve.itertools = _CountingItertools(self)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


class _CountingItertools:
    """Stands in for ``itertools`` inside ``spankit.pathnerve`` and counts,
    without touching any item, the tuples each ``product(..., repeat=k)``
    call made directly inside ``nerve`` offers to its filter: the
    candidate chains.  An implementation that generates chains without
    such a product reports no candidates."""

    def __init__(self, tracer):
        self._tracer = tracer
        self._real = importlib.import_module("itertools")

    def __getattr__(self, name):
        return getattr(self._real, name)

    def product(self, *iterables, repeat=None):
        tracer = self._tracer
        if repeat is None:
            return self._real.product(*iterables)
        if (tracer.enabled and tracer.stack
                and tracer.spans[tracer.stack[-1]][2] == "pathnerve.nerve"):
            pools = [list(it) for it in iterables]
            tracer.counters["pathnerve.nerve_candidates"] += (
                math.prod(len(p) for p in pools) ** repeat)
            return self._real.product(*pools, repeat=repeat)
        return self._real.product(*iterables, repeat=repeat)


def _observe_rref(counters, args, result):
    rows = len(args[0])
    cols = len(args[0][0]) if rows else 0
    counters["ratlin.rref_entries"] += rows * cols
    counters["ratlin.rref_max_cols"] = max(counters["ratlin.rref_max_cols"],
                                           cols)


def _observe_d_matrix(counters, args, result):
    rows = len(result)
    counters["crw.d_matrix_entries"] += rows * (len(result[0]) if rows else 0)


def _observe_nerve(counters, args, result):
    counters["pathnerve.nerve_simplices"] += len(result)


_OBSERVERS = {"ratlin.rref": _observe_rref, "crw.d_matrix": _observe_d_matrix,
              "pathnerve.nerve": _observe_nerve}
