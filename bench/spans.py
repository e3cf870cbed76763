"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the spindimer modules from the
outside. `verify`, `cli` and `oracle` bind functions of other modules with
`from .x import ...`, so every module namespace that binds a function gets
the wrapper, not only the module that defines it; the quantifier table's
entries are wrapped too, as `quantifiers.kernels`. Spans are kept in memory
as flat arrays (name, parent, start, end) and written out at the end.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("spin_core", "scattering", "quantifiers", "oracle", "verify", "cli")
PACKAGE = "spindimer"
KERNEL_SPAN = "quantifiers.kernels"

# Functions whose cost depends on one argument get one span name per value,
# as "<layer>.<function>[<value>]".
SPLIT_BY_ARGUMENT = {"oracle.trace_norm_discord": "method"}


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.kernel_points = 0
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        split = SPLIT_BY_ARGUMENT.get(name)
        signature = inspect.signature(fn) if split else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span = f"{name}[{bound.arguments[split]}]"
            index = self.open(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def wrap_kernel(self, fn):
        @functools.wraps(fn)
        def traced(x, *args, **kwargs):
            self.kernel_points += int(np.size(x))
            index = self.open(KERNEL_SPAN)
            try:
                return fn(x, *args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self) -> None:
        """Wrap every public spindimer function wherever a module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self.wrap(value, f"{layer}.{attr}")
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        table = sys.modules[f"{PACKAGE}.quantifiers"].QUANTIFIER_FUNCTIONS
        for key, fn in list(table.items()):
            self._patch(table, key, self.wrap_kernel(wrappers.get(fn, fn)))

    def _patch(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), kernel_points=self.kernel_points, **self.arrays())


def summarize(names, name, parent, start, end) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    name = np.asarray(name)
    parent = np.asarray(parent)
    duration = np.asarray(end) - np.asarray(start)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    self_time = duration - child_time
    calls = np.bincount(name, minlength=len(names))
    total = np.bincount(name, weights=duration, minlength=len(names))
    own = np.bincount(name, weights=self_time, minlength=len(names))
    return {
        n: {"calls": int(calls[k]), "total_s": float(total[k]), "self_s": float(own[k])}
        for k, n in enumerate(names)
    }
