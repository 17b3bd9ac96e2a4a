"""Span tracing of ellipticlab's layers from outside the package.

``Tracer.install`` replaces every public function of every layer module
(``ellipticlab.<layer>``) by a timing wrapper, in the module that defines it
and wherever another ellipticlab module (or the package namespace) has
imported it by name, so that nested calls across layers produce nested
spans.  ``Tracer.remove`` puts the originals back, which makes an untraced
pass in the same process exactly as fast as one in a process that never
installed the wrappers.

A span is (name, parent span, start, end), kept in compact arrays until the
pass ends; ``Tracer.collect`` turns the spans of one phase into per-layer
metrics and clears them.  A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("grids", "operators", "stencils", "solvers", "simplex", "viscosity",
          "decay", "mollify", "fixtures", "fileio", "cli")

# span names whose call counts are reported on their own
COUNTED_CALLS = ("stencils.eval_discrete", "stencils.discrete_hessian",
                 "operators.op_eval", "mollify.mollify", "grids.sample_bilinear")
SOLVES = ("solvers.solve_dirichlet", "solvers.solve_obstacle")
GRID_IO = ("grids.write_grid_function", "grids.read_grid_function")


def per_layer_names() -> list:
    """Every metric ``collect`` reports, in a fixed order, with its unit."""
    out = [("%s.self_s" % layer, "s") for layer in LAYERS]
    out += [("%s.calls" % name, "count") for name in COUNTED_CALLS]
    out += [("solvers.calls", "count"), ("solvers.steps", "count"),
            ("viscosity.candidates", "count"), ("viscosity.fired", "count"),
            ("viscosity.fired_per_candidate", "ratio"),
            ("simplex.fits", "count"), ("simplex.pivots", "count"),
            ("simplex.samples", "count"),
            ("grids.io_s", "s"), ("grids.io_bytes", "B")]
    return out


def _solve_steps(counters, args, kwargs, result):
    counters["solvers.steps"] += int(result.iterations)


def _touching_candidates(counters, args, kwargs, result):
    counters["viscosity.candidates"] += len(result)


def _touching_fired(counters, args, kwargs, result):
    counters["viscosity.fired"] += int(result.triggered)


def _simplex_fit(counters, args, kwargs, result):
    values = args[1] if len(args) > 1 else kwargs["values"]
    counters["simplex.pivots"] += int(result.iterations)
    counters["simplex.samples"] += int(np.size(values))


def _written_bytes(counters, args, kwargs, result):
    counters["grids.io_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _read_bytes(counters, args, kwargs, result):
    counters["grids.io_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


# counters taken from the values that layer functions return
HOOKS = {
    "solvers.solve_dirichlet": _solve_steps,
    "solvers.solve_obstacle": _solve_steps,
    "viscosity.make_touching_dictionary": _touching_candidates,
    "viscosity.check_touching": _touching_fired,
    "simplex.minimax_affine": _simplex_fit,
    "grids.write_grid_function": _written_bytes,
    "grids.read_grid_function": _read_bytes,
}


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self, package):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counters = Counter()
        self.patches = self._plan(package)

    def _wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(self.stack[-1])
            self.span_end.append(0.0)
            self.stack.append(idx)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = perf_counter()
                self.stack.pop()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def _plan(self, package):
        """(module, attribute, original, wrapper) for every binding to patch."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules["%s.%s" % (package.__name__, layer)]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap("%s.%s" % (layer, attr), value))
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(prefix)]
        patches = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    patches.append((module, attr, value, hit[1]))
        return patches

    def install(self):
        for module, attr, _, wrapper in self.patches:
            setattr(module, attr, wrapper)

    def remove(self):
        for module, attr, original, _ in self.patches:
            setattr(module, attr, original)

    def collect(self) -> dict:
        """Per-layer metrics of the spans recorded since the last call."""
        # np.array copies, so the arrays can be cleared below
        names = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.span_parent, dtype=np.int64)
        dur = np.array(self.span_end) - np.array(self.span_start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=dur.size)
        self_time = np.bincount(names, weights=dur - child, minlength=len(self.names))
        total_time = np.bincount(names, weights=dur, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        by_name = {n: i for i, n in enumerate(self.names)}

        def calls_of(name):
            return int(calls[by_name[name]]) if name in by_name else 0

        out = {("%s.self_s" % layer): 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            out["%s.self_s" % name.partition(".")[0]] += float(self_time[i])
        for name in COUNTED_CALLS:
            out["%s.calls" % name] = calls_of(name)
        out["solvers.calls"] = sum(calls_of(n) for n in SOLVES)
        out["simplex.fits"] = calls_of("simplex.minimax_affine")
        out["grids.io_s"] = float(sum(total_time[by_name[n]] for n in GRID_IO if n in by_name))
        for key in ("solvers.steps", "viscosity.candidates", "viscosity.fired",
                    "simplex.pivots", "simplex.samples", "grids.io_bytes"):
            out[key] = int(self.counters[key])
        for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del column[:]
        self.counters.clear()
        return out
