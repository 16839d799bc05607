"""Span tracing of the reachopt layers from outside the library.

``Tracer.install`` replaces every public function and method of each layer
module with a wrapper that records one span per call: name, start, end,
parent span and op. Every module attribute bound to an original function is
replaced, so names re-bound by ``from .x import y`` (for example
``reachopt.operators.decompose`` or the names imported into ``reachopt.cli``)
nest their spans correctly. ``uninstall`` puts every original back.

Spans live in flat arrays while the run is going and are only aggregated
after it ends.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("spectral", "operators", "directions", "kernels", "cones", "ascent", "io", "cli")

#: Name of the span the benchmark opens around each top-level operation.
OP_SPAN = "op"


def _layer_targets(package):
    """Yield ``(span name, owner, attribute, function)`` for every traced callable.

    Functions are named ``layer.function``, methods ``layer.method`` and the
    constructor of a hand-written (non-dataclass) class ``layer.Class``.
    """
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value.__module__ == module.__name__:
                if not attr.startswith("_"):
                    yield f"{layer}.{attr}", module, attr, value
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for name, member in vars(value).items():
                    if not inspect.isfunction(member):
                        continue
                    if name == "__init__" and not dataclasses.is_dataclass(value):
                        yield f"{layer}.{value.__name__}", value, name, member
                    elif not name.startswith("_"):
                        yield f"{layer}.{name}", value, name, member


class Tracer:
    """In-memory span recorder that wraps the library's public callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        #: Spans are recorded only inside ``begin_op`` / ``end_op``.
        self.active = False
        #: span name -> callable(span index, args, kwargs, result), run after the call.
        self.hooks: dict = {}
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def _wrap(self, span_name: str, fn):
        tracer = self
        name_id = self._name_id(span_name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[index] = t0
                tracer.end[index] = t1
            hook = tracer.hooks.get(span_name)
            if hook is not None:
                hook(index, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        wrappers: dict[int, object] = {}
        for span_name, owner, attr, fn in list(_layer_targets(package)):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = (fn, self._wrap(span_name, fn))
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrappers[id(fn)][1])
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        index = self._open(self._name_id(OP_SPAN))
        self.active = True
        self.start[index] = perf_counter()
        return index

    def end_op(self, index: int) -> float:
        self.end[index] = perf_counter()
        self.active = False
        self._stack.pop()
        self.op_id = -1
        return self.end[index] - self.start[index]

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-span durations, self times and per-name aggregates as numpy arrays."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.op = np.frombuffer(tracer.op, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        self.duration = end - start
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent],
            weights=self.duration[has_parent],
            minlength=self.duration.size,
        )
        self.self_time = self.duration - child_time
        count = len(self.names)
        self.calls = np.bincount(self.name, minlength=count)
        self.self_by_name = np.bincount(self.name, weights=self.self_time, minlength=count)
        self.total_by_name = np.bincount(self.name, weights=self.duration, minlength=count)

    def index(self, span_name: str) -> int | None:
        try:
            return self.names.index(span_name)
        except ValueError:
            return None

    def mask(self, span_name: str) -> np.ndarray:
        name_id = self.index(span_name)
        if name_id is None:
            return np.zeros(self.name.size, dtype=bool)
        return self.name == name_id

    def calls_of(self, span_name: str) -> int:
        name_id = self.index(span_name)
        return 0 if name_id is None else int(self.calls[name_id])

    def self_of(self, span_name: str) -> float:
        name_id = self.index(span_name)
        return 0.0 if name_id is None else float(self.self_by_name[name_id])

    def median_duration(self, span_name: str) -> float:
        durations = self.duration[self.mask(span_name)]
        return float(np.median(durations)) if durations.size else 0.0

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return float(
            sum(self.self_by_name[i] for i, n in enumerate(self.names) if n.startswith(prefix))
        )

    def table(self) -> list[tuple[str, int, float, float]]:
        """``(name, calls, total_s, self_s)`` rows, largest self time first."""
        rows = [
            (n, int(self.calls[i]), float(self.total_by_name[i]), float(self.self_by_name[i]))
            for i, n in enumerate(self.names)
        ]
        return sorted(rows, key=lambda row: -row[3])
