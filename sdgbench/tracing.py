"""Timing shims around sdglab's public calls, installed only for traced passes.

A span is one call into a shimmed function.  Its self time is its
duration minus the time covered by shimmed calls made inside it, so
``simulate_to_exit``'s self time excludes the policy lookups and value
interpolation it triggers.  Spans live in memory and are summed per name;
counts (rows passed to policies, ensemble steps, solver iterations) are
recorded at the same boundaries.

The shims replace module attributes and class attributes in place and
``uninstall`` puts the originals back, so untraced passes run the
program exactly as shipped.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> layer; the layers are sdglab's modules
LAYER_OF = {
    "load_experiment": "config",
    "DomainGrid.build": "grids",
    "ValueField.interpolate": "grids",
    "IsaacsSolver.fit": "pde",
    "evaluate_H": "pde",
    "convergence_study": "pde",
    "select": "policies",
    "respond": "policies",
    "build_alpha_selector": "policies",
    "build_beta_selector": "policies",
    "simulate_to_exit": "simulate",
    "supermartingale_test": "simulate",
    "submartingale_test": "simulate",
    "estimate_value": "harness",
    "run_invariance_suite": "harness",
}
LAYERS = ("config", "grids", "pde", "policies", "simulate", "harness")


def size_label(grid) -> str:
    """Grid size tag such as ``1d_h128`` (dimension and 1/h)."""
    return f"{grid.d}d_h{round(1.0 / float(min(grid.spacing)))}"


class _Span:
    __slots__ = ("name", "child_s")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Collects per-span totals and work counts between ``reset`` calls."""

    def __init__(self):
        self._undo = []
        self._stack: list[_Span] = []
        self._lane = None
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.lanes = []  # (n_paths, d1, steps, alive_rows) per ensemble call
        self.fits = []  # (size, seconds, n_iter, interior nodes) per top-level fit
        self.evals = []  # (size, seconds) per evaluate_H call

    # -- span bookkeeping ---------------------------------------------------

    def _in_layer(self, layer: str) -> bool:
        return any(LAYER_OF[s.name] == layer for s in self._stack)

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        def shim(*args, **kwargs):
            ctx = before(args, kwargs) if before else None
            span = _Span(name)
            stack = tracer._stack
            stack.append(span)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dur
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - span.child_s
            if after:
                after(args, kwargs, result, dur, ctx)
            return result

        shim.__wrapped__ = fn
        return shim

    # -- hooks that turn arguments into work counts --------------------------

    def _lane_start(self, args, kwargs):
        # simulate_to_exit(problem, spec, x0, alpha, beta, cfg) and the drift
        # tests (problem, spec, x0, value, alpha, beta, cfg, ...) both take
        # the problem first and a SimConfig among the positional arguments
        problem = args[0]
        cfg = next(a for a in args if isinstance(a, self._sim_config))
        outer = self._lane
        self._lane = [cfg.n_paths, problem.d1, 0, 0]
        return outer

    def _lane_end(self, args, kwargs, result, dur, outer):
        self.lanes.append(tuple(self._lane))
        self._lane = outer

    def _select_rows(self, args, kwargs, result, dur, ctx):
        x = args[3]
        self.counts["policies.rows"] += x.shape[0]
        if self._lane is not None:
            # the leader's policy is asked once per ensemble step, for the
            # rows still alive
            self._lane[2] += 1
            self._lane[3] += x.shape[0]

    def _respond_rows(self, args, kwargs, result, dur, ctx):
        self.counts["policies.rows"] += args[4].shape[0]

    def _interp_rows(self, args, kwargs, result, dur, ctx):
        self.counts["grids.interpolate_rows"] += len(result)

    def _fit_start(self, args, kwargs):
        return self._in_layer("pde")

    def _fit_end(self, args, kwargs, solver, dur, nested):
        if nested:  # solves inside convergence_study are reported with it
            return
        grid = solver.grid_
        self.fits.append((size_label(grid), dur, int(solver.n_iter_), int(grid.interior.sum())))

    def _eval_end(self, args, kwargs, result, dur, ctx):
        self.evals.append((size_label(args[1].grid), dur))

    # -- installation ---------------------------------------------------------

    def _patch_function(self, name, before=None, after=None):
        import sdglab

        original = getattr(sdglab, name)
        shim = self._wrap(name, original, before, after)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sdglab" or modname.startswith("sdglab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, shim)

    def _patch_method(self, cls, attr, name, before=None, after=None, static=False):
        raw = cls.__dict__[attr]
        fn = raw.__func__ if static else raw
        shim = self._wrap(name, fn, before, after)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, staticmethod(shim) if static else shim)

    def install(self) -> None:
        import sdglab
        from sdglab import policies

        if self._undo:
            raise RuntimeError("tracer already installed")
        self._sim_config = sdglab.SimConfig
        self._patch_function("load_experiment")
        self._patch_method(sdglab.DomainGrid, "build", "DomainGrid.build", static=True)
        self._patch_method(
            sdglab.ValueField, "interpolate", "ValueField.interpolate", after=self._interp_rows
        )
        self._patch_method(
            sdglab.IsaacsSolver, "fit", "IsaacsSolver.fit", before=self._fit_start, after=self._fit_end
        )
        self._patch_function("evaluate_H", after=self._eval_end)
        self._patch_function("convergence_study")
        self._patch_function("build_alpha_selector")
        self._patch_function("build_beta_selector")
        for name in ("simulate_to_exit", "supermartingale_test", "submartingale_test"):
            self._patch_function(name, before=self._lane_start, after=self._lane_end)
        self._patch_function("estimate_value")
        self._patch_function("run_invariance_suite")
        for cls in vars(policies).values():
            if not isinstance(cls, type) or cls.__module__ != policies.__name__:
                continue
            if "select" in cls.__dict__:
                self._patch_method(cls, "select", "select", after=self._select_rows)
            if "respond" in cls.__dict__:
                self._patch_method(cls, "respond", "respond", after=self._respond_rows)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- per-layer views --------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if LAYER_OF[k] == layer)
