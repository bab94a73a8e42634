"""Span tracer that wraps the package's public functions from outside.

Modules of the package import each other's functions by name (for example
``experiments`` binds ``solve_endemic`` and ``spectral`` binds
``assemble_reaction_operator``), so patching only the defining module would
miss most calls.  ``Tracer.install`` therefore replaces the function in
every loaded namespace of the package that holds it, under whatever name,
and ``Tracer.restore`` puts every original back.

Spans stay in memory as ``Span`` records and are summarised (or dumped) when
the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAYERS = ("domain", "operators", "spectral", "equilibrium", "dynamics",
          "experiments")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float
    error: str | None = None
    iterations: int | None = None
    matrix_bytes: int | None = None
    steps: int | None = None
    bytes: int | None = None


def _measure(result) -> dict:
    """Work counters read off a returned value, where the type carries them."""
    out = {}
    iterations = getattr(result, "iterations", None)
    if isinstance(iterations, (int, np.integer)):
        out["iterations"] = int(iterations)
    for attr in ("entries", "matrix"):  # DispersalMatrix, ReactionDispersalOperator
        dense = getattr(result, attr, None)
        if isinstance(dense, np.ndarray) and dense.ndim == 2:
            out["matrix_bytes"] = int(dense.nbytes)
    times, dt = getattr(result, "times", None), getattr(result, "dt", None)
    if isinstance(times, np.ndarray) and times.size and dt:
        out["steps"] = int(round(float(times[-1]) / dt))
    if isinstance(result, list) and result and all(isinstance(p, Path) for p in result):
        out["bytes"] = sum(p.stat().st_size for p in result)
    return out


class Tracer:
    def __init__(self, package, error_type: type[BaseException]):
        self.package = package
        self.error_type = error_type
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, error_type = self.spans, self._stack, self.error_type

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(name, stack[-1] if stack else None, 0.0, 0.0))
            stack.append(index)
            span = spans[index]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            for key, value in _measure(result).items():
                setattr(span, key, value)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        namespaces = [self.package] + [mod for key, mod in sorted(sys.modules.items())
                                       if key.startswith(prefix)]
        for layer in LAYERS:
            module = sys.modules[prefix + layer]
            for public in module.__all__:
                fn = getattr(module, public)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{public}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            ns, attr, fn = self._patches.pop()
            setattr(ns, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def summary(self) -> dict:
        """Per-function ``calls``, ``total_s``, ``self_s``, ``failures`` and
        the summed work counters, keyed ``<module>.<function>``."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        stats: dict = {}
        for span, inner in zip(self.spans, child_time):
            entry = stats.setdefault(span.name, {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "failures": 0,
                "iterations": 0, "matrix_bytes": 0, "steps": 0, "bytes": 0})
            duration = span.end - span.start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - inner
            entry["failures"] += span.error is not None
            for key in ("iterations", "matrix_bytes", "steps", "bytes"):
                entry[key] += getattr(span, key) or 0
        return stats

    def dump(self) -> list:
        return [[s.name, s.parent, s.start, s.end, s.error] for s in self.spans]
