"""Outside-in tracer for the deconf layers.

Everything is installed at run time by replacing names in the already
imported modules; no file of the package changes. A span is recorded for:

* every function one ``deconf`` module imports from another, under the name
  the importing module uses, attributed to the layer that defines it;
* every public function of a layer module, in its own namespace, so that
  the benchmark's own entry calls (``deconf.io.read_instance``) and
  intra-layer calls such as ``bounds.solve_min_m -> finite_feasible`` are
  seen too;
* ``__post_init__`` of every dataclass a layer defines (validations);
* ``numpy.random.default_rng`` stream creation and the Generator draw
  methods ``multinomial``, ``choice`` and ``permutation``, attributed to the
  pseudo-layer ``rng`` (reported under ``simulation.*``).

Spans are kept in memory as ``[name, layer, start, end, parent]`` and written
out by :meth:`Tracer.write`. A layer's self time is its spans' durations
minus the part covered by their child spans; a layer's ``calls`` are the
spans entered from another layer (or from the benchmark), so nested
same-layer spans are not counted twice.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
import time
import types

import numpy as np

LAYERS = ("model", "policies", "estimation", "bounds", "simulation", "io")
RNG = "rng"
DRAW_METHODS = ("multinomial", "choice", "permutation")


class Tracer:
    """Records nested spans for one process; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.estimates = 0
        self.fallback_estimates = 0
        self.io_bytes = 0
        self._stack = []
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent])
        return idx

    def _exit(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _is_boundary(self, idx):
        parent = self.spans[idx][4]
        return parent < 0 or self.spans[parent][1] != self.spans[idx][1]

    def _wrap(self, func, name, layer):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = tracer._enter(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if not tracer._is_boundary(idx):
                return result
            if layer == "estimation":
                groups = getattr(result, "degenerate_groups", None)
                if groups is not None:
                    tracer.estimates += 1
                    tracer.fallback_estimates += bool(groups)
            elif layer == "io":
                for arg in args:
                    if isinstance(arg, (str, os.PathLike)) and os.path.isfile(arg):
                        tracer.io_bytes += os.path.getsize(arg)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- install / uninstall ----------------------------------------------

    def install(self, package):
        """Wrap the layers of an imported package (``deconf``) and numpy's RNG."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__ + "."
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package.__name__ or name.startswith(prefix))
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", None) or ""
                layer = owner[len(prefix):] if owner.startswith(prefix) else None
                if layer not in LAYERS:
                    continue
                if isinstance(obj, types.FunctionType):
                    imported = owner != mod.__name__
                    if imported or not attr.startswith("_"):
                        self._patch(mod, attr, self._wrap(obj, f"{layer}.{obj.__name__}", layer))
                elif (
                    isinstance(obj, type)
                    and owner == mod.__name__
                    and dataclasses.is_dataclass(obj)
                    and "__post_init__" in vars(obj)
                ):
                    name = f"{layer}.{obj.__name__}.__post_init__"
                    self._patch(obj, "__post_init__", self._wrap(obj.__post_init__, name, layer))
        self._patch(np.random, "default_rng", self._traced_default_rng())
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _traced_default_rng(self):
        tracer = self

        def draw_method(meth):
            base = getattr(np.random.Generator, meth)

            def draw(self, *args, **kwargs):
                idx = tracer._enter(f"rng.{meth}", RNG)
                try:
                    return base(self, *args, **kwargs)
                finally:
                    tracer._exit(idx)

            return draw

        traced_generator = type(
            "TracedGenerator",
            (np.random.Generator,),
            {meth: draw_method(meth) for meth in DRAW_METHODS},
        )

        def default_rng(seed=None):
            # same dispatch as numpy: pass Generators through, wrap BitGenerators
            if isinstance(seed, np.random.Generator):
                return seed
            idx = tracer._enter("rng.default_rng", RNG)
            try:
                if not isinstance(seed, np.random.BitGenerator):
                    seed = np.random.PCG64(seed)
                return traced_generator(seed)
            finally:
                tracer._exit(idx)

        return default_rng

    # -- results ----------------------------------------------------------

    def layer_metrics(self):
        """Per-layer counts and times, named as in BENCHMARK.json."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = dict.fromkeys(LAYERS + (RNG,), 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        inclusive = dict.fromkeys(LAYERS, 0.0)
        by_name = {}
        for i, (name, layer, start, end, parent) in enumerate(spans):
            self_s[layer] += end - start - child[i]
            by_name[name] = by_name.get(name, 0) + 1
            if layer in calls and self._is_boundary(i):
                calls[layer] += 1
                inclusive[layer] += end - start
        rng_create = [s for s in spans if s[0] == "rng.default_rng"]
        draws = [s for s in spans if s[1] == RNG and s[0] != "rng.default_rng"]
        solves = {i for i, s in enumerate(spans) if s[0] == "bounds.solve_min_m"}
        solver_iters = sum(
            1 for s in spans if s[0] == "bounds.finite_feasible" and s[4] in solves
        )

        def per_call_us(layer):
            return 1e6 * inclusive[layer] / calls[layer] if calls[layer] else 0.0

        metrics = {
            "estimation.calls": (calls["estimation"], "count"),
            "estimation.self_s": (self_s["estimation"], "s"),
            "estimation.us_per_call": (per_call_us("estimation"), "us"),
            "estimation.fallback_frac": (
                self.fallback_estimates / self.estimates if self.estimates else 0.0,
                "ratio",
            ),
            "model.calls": (calls["model"], "count"),
            "model.self_s": (self_s["model"], "s"),
            "model.validations": (
                sum(n for name, n in by_name.items()
                    if name.startswith("model.") and name.endswith(".__post_init__")),
                "count",
            ),
            "simulation.rng_streams": (len(rng_create), "count"),
            "simulation.rng_setup_s": (sum(s[3] - s[2] for s in rng_create), "s"),
            "simulation.draws": (len(draws), "count"),
            "simulation.draw_s": (sum(s[3] - s[2] for s in draws), "s"),
            "simulation.self_s": (self_s["simulation"], "s"),
            "policies.calls": (calls["policies"], "count"),
            "policies.self_s": (self_s["policies"], "s"),
            "policies.us_per_call": (per_call_us("policies"), "us"),
            "io.calls": (calls["io"], "count"),
            "io.self_s": (self_s["io"], "s"),
            "io.bytes": (self.io_bytes, "bytes"),
            "bounds.calls": (calls["bounds"], "count"),
            "bounds.self_s": (self_s["bounds"], "s"),
            "bounds.feasibility_checks": (by_name.get("bounds.finite_feasible", 0), "count"),
            "bounds.solver_iters": (
                solver_iters / len(solves) if solves else 0.0,
                "count",
            ),
        }
        return metrics

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "layer": layer, "start": start - t0,
                     "end": end - t0, "parent": parent}
                ))
                fh.write("\n")
