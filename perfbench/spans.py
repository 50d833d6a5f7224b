"""Nested timing spans around chainguide's layer boundaries, from outside.

The program itself carries no instrumentation. ``Tracer.install`` swaps
each traced callable for a timing wrapper wherever the package binds it:
a module-level function is replaced in every chainguide module that
imported it by name (``from .chain import simulate_chain`` gives
``strategy`` a binding of its own), and a method is replaced on the class
that defines it. ``Tracer.uninstall`` puts the originals back.

Spans nest: a wrapper that runs while another is open is its child, and a
span's self time is its duration minus the durations of its children.
Spans are aggregated per name as they close (calls, self time, total
time, an optional work amount, and optionally every call duration), so a
run of a few hundred thousand calls keeps a few counters in memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("harness", "models", "value", "strategy", "chain", "guide", "simplex")

# model hooks that evaluate rates or drifts; all count into one span name
RATE_HOOKS = (
    "rate_matrix", "rate_matrix_grid", "rate_matrix_grid_multi",
    "rate_matrix_multi", "drift_grid_multi", "drift_control_values",
)

# spans whose every call duration is kept, for percentiles
KEEP_DURATIONS = ("chain.simulate_chain",)


class SpanStat:
    """Aggregate of every closed span with one name."""

    __slots__ = ("calls", "self_s", "total_s", "amount", "durations")

    def __init__(self, keep_durations=False):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.amount = 0
        self.durations = [] if keep_durations else None


def _rows(array_like):
    return int(np.shape(array_like)[0])


class Tracer:
    """Timing wrappers for the public functions of every chainguide layer."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self._patches = []

    # -- wrapping ------------------------------------------------------------
    def _stat(self, name):
        if name not in self.stats:
            self.stats[name] = SpanStat(name in KEEP_DURATIONS)
        return self.stats[name]

    def _wrap(self, name, fn, amount=None):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - children[0]
                if stat.durations is not None:
                    stat.durations.append(elapsed)
            if amount is not None:
                stat.amount += amount(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every public function of each layer, plus the traced methods."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("chainguide")
        modules = {layer: importlib.import_module(f"chainguide.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        amounts = {
            "chain.simulate_chain": lambda args, kwargs, path: path.candidates,
            "guide.advance_guides": lambda args, kwargs, out: _rows(
                args[4] if len(args) > 4 else kwargs["guides"]),
        }
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj, amounts.get(name))
                for namespace in namespaces:
                    for bound, value in list(vars(namespace).items()):
                        if value is obj:
                            self._patch(namespace, bound, wrapper)

        simplex, value, models = modules["simplex"], modules["value"], modules["models"]
        self._patch(simplex.LatticeState, "__init__",
                    self._wrap("simplex.LatticeState", simplex.LatticeState.__init__))
        self._patch(value.SimplexGrid, "interpolate",
                    self._wrap("value.interpolate", value.SimplexGrid.interpolate,
                               lambda args, kwargs, out: _rows(out)))
        model_classes = {models.RateModel, *models.MODEL_REGISTRY.values()}
        for cls in sorted(model_classes, key=lambda c: c.__name__):
            for hook in RATE_HOOKS:
                if hook in vars(cls):
                    self._patch(cls, hook, self._wrap("models.rates", vars(cls)[hook]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------
    def get(self, name):
        return self.stats.get(name) or SpanStat()

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum(stat.self_s for name, stat in self.stats.items()
                   if name.startswith(prefix))

    def table(self, per):
        """Every span seen, as {name: {calls, self_s, total_s, amount}} per ``per`` runs."""
        return {
            name: {"calls": stat.calls / per, "self_s": stat.self_s / per,
                   "total_s": stat.total_s / per, "amount": stat.amount / per}
            for name, stat in sorted(self.stats.items()) if stat.calls
        }
