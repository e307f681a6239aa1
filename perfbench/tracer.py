"""Spans around the package's public functions, for the traced run.

Every public function of a package module is wrapped in each module
namespace that binds it: `auction.run_auction` is wrapped as bound in
`analysis`, `bounds`, `equilibrium`, `cli` and `auction` itself, so calls
through `from .auction import run_auction` are seen and attributed to the
module they were made from. Spans (function, site, parent, start, end)
are kept in flat arrays and reduced once the run is over; `restore` puts
the original functions back.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from types import ModuleType


class Tracer:
    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.labels: list[tuple[str, str, str]] = []  # (layer, function, site)
        self.label = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._distinct: dict[str, set] = {}
        self.hook_errors = 0
        self._keep: list = []  # objects whose id() is part of a distinct key
        self._stack = [-1]
        self._saved: list[tuple[ModuleType, str, object]] = []

    def install(self) -> None:
        owners = {module.__name__: layer for layer, module in self.modules.items()}
        for site, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                layer = owners.get(getattr(obj, "__module__", None))
                if layer is None:
                    continue
                self._saved.append((module, name, obj))
                setattr(module, name, self._wrap(obj, layer, name, site))

    def restore(self) -> None:
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def _wrap(self, fn, layer: str, name: str, site: str):
        label = len(self.labels)
        self.labels.append((layer, name, site))
        hook = _HOOKS.get(f"{layer}.{name}")
        labels, parents, starts, ends = self.label, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(labels)
            labels.append(label)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[index] = clock()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (IndexError, KeyError, TypeError, AttributeError):
                    self.hook_errors += 1  # the traced signature changed
            return result

        return traced

    def distinct(self, key: str, value, *alive) -> None:
        """Add `value` to the set counted as `key`; `alive` holds objects
        whose id() is part of the value."""
        self._keep.extend(alive)
        self._distinct.setdefault(key, set()).add(value)

    def reduce(self) -> dict:
        """Per (layer, function): calls, inclusive and self nanoseconds, and
        calls per site; per layer: self nanoseconds; plus boundary counts."""
        child = array("q", bytes(8 * len(self.label)))
        for i in range(len(self.label)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        functions: dict[str, dict] = {}
        layer_self: Counter = Counter()
        for i, lab in enumerate(self.label):
            layer, name, site = self.labels[lab]
            span = self.end[i] - self.start[i]
            own = span - child[i]
            entry = functions.setdefault(
                f"{layer}.{name}", {"calls": 0, "ns": 0, "self_ns": 0, "sites": Counter()}
            )
            entry["calls"] += 1
            entry["ns"] += span
            entry["self_ns"] += own
            entry["sites"][site] += 1
            layer_self[layer] += own
        counts = dict(self.counts)
        for key, seen in self._distinct.items():
            counts[key] = len(seen)
        return {"functions": functions, "layer_self_ns": dict(layer_self), "counts": counts}


def _rows(tracer, args, kwargs, result):
    rows = kwargs["rows"] if "rows" in kwargs else args[2]
    tracer.counts["io.write_csv.rows"] += len(rows)


def _scenarios(tracer, args, kwargs, result):
    tracer.counts["analysis.enumerate_scenarios.rows"] += len(result)
    instance = args[0] if args else kwargs["instance"]
    tracer.distinct("analysis.enumerate_scenarios.distinct", id(instance), instance)


def _welfare(tracer, args, kwargs, result):
    instance = args[0] if args else kwargs["instance"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    tracer.distinct("analysis.expected_welfare.distinct", (id(instance), params), instance)


def _optimum(tracer, args, kwargs, result):
    tracer.counts["analysis.optimize_cap_and_price.candidates"] += result.searched


def _equilibria(tracer, args, kwargs, result):
    tracer.counts["equilibrium.find_grid_equilibria.profiles"] += result.searched


_HOOKS = {
    "io.write_csv": _rows,
    "analysis.enumerate_scenarios": _scenarios,
    "analysis.expected_welfare": _welfare,
    "analysis.optimize_cap_and_price": _optimum,
    "equilibrium.find_grid_equilibria": _equilibria,
}
