"""In-memory span tracer for the public functions of resgate's layers.

``Tracer.install`` replaces every public function defined in a layer module
by one wrapper, at every module attribute that names it, the package
namespace included. Wrapping only the defining module would miss calls made
through names imported elsewhere: ``resgate.sweep`` calls ``extract_channel``,
``b_factor`` and ``fit_local_z`` through its own module globals.

Each call records a span (id, parent id, name, start, end) in memory. The
benchmark opens one root span per unit of work and calls ``fold`` after it,
which turns the spans into per-name call counts, total time and self time
(duration minus the part covered by direct children) and frees them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("config", "device", "noise", "channel", "fidelity", "lindblad", "sweep")


def _layer_of(fn, package: str) -> str | None:
    prefix = package + "."
    mod = getattr(fn, "__module__", None) or ""
    layer = mod[len(prefix):] if mod.startswith(prefix) else None
    return layer if layer in LAYERS else None


class Tracer:
    """Spans with parent ids, folded into per-name calls, total and self time."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack = [0]
        self._next_id = 1
        self._hooks: dict = {}
        self._patched: list[tuple[object, str, object]] = []

    def on(self, name: str, hook) -> None:
        """Call ``hook(span_id, parent_id, duration_s, args, kwargs, result)``
        after each completed call of the traced function ``name``."""
        self._hooks[name] = hook

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack
        hooks = self._hooks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._enter()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            hook = hooks.get(name)
            if hook is not None:
                hook(sid, parent, end - start, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (e.g. the root of a cycle)."""
        sid, parent = self._enter()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def install(self, package: str = "resgate") -> list[str]:
        """Wrap every public layer function at every name that refers to it.

        Returns the sorted span names. Only modules already imported are
        patched, so import the package (all its layers) first.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        wrappers: dict[int, object] = {}
        names = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = _layer_of(value, package)
                if layer is None or value.__name__.startswith("_"):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    name = f"{layer}.{value.__name__}"
                    wrapper = wrappers[id(value)] = self._wrap(name, value)
                    names.add(name)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)
        return sorted(names)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def fold(self) -> None:
        """Fold the recorded spans into the per-name aggregates and drop them."""
        duration = {}
        covered: Counter = Counter()
        for sid, parent, _, start, end in self.spans:
            duration[sid] = end - start
            covered[parent] += end - start
        for sid, _, name, _, _ in self.spans:
            self.calls[name] += 1
            self.total_s[name] += duration[sid]
            self.self_s[name] += duration[sid] - covered[sid]
        self.spans.clear()

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
