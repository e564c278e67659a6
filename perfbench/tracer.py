"""Span tracing of one run_bgsub call, from outside the package.

While a Tracer is active, every public function of the pipeline's modules is
replaced, in every dmdmotion namespace that binds it, by a wrapper that
records a span: name, start, end and the index of the enclosing span. A
function reached through `from .x import f` is rebound in the importing
module too, so each call is seen where the pipeline looks the function up.
Spans stay in memory; the caller writes them out after the run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# The package's modules, in pipeline order. synthetic only feeds the input
# generator and cli is not on the timed path, so neither is traced.
LAYERS = ("io_formats", "linalg", "dmd", "background", "evaluation", "pipeline")


def _nbytes(obj, depth: int = 0) -> int:
    """Bytes of the arrays in a return value, looking two levels deep."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth >= 2:
        return 0
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x, depth + 1) for x in obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(_nbytes(getattr(obj, f.name), depth + 1) for f in dataclasses.fields(obj))
    return 0


class Tracer:
    """Context manager that records spans for the calls made while it is active."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.out_bytes: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.out_bytes.append(0)
            self.ends.append(float("nan"))
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
                self.out_bytes[idx] = _nbytes(out)
                return out
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"dmdmotion.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dmdmotion" and not mod_name.startswith("dmdmotion."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        duration = np.asarray(self.ends) - np.asarray(self.starts)
        own = duration.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.subtract.at(own, parents[has_parent], duration[has_parent])
        return own

    def stats(self) -> dict[str, dict[str, float]]:
        """Per function: summed self seconds, call count and output MB (computed)."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "calls": 0, "out_mb": 0.0}
        )
        for name, own, nbytes in zip(self.names, self.self_times(), self.out_bytes):
            entry = out[name]
            entry["self_s"] += float(own)
            entry["calls"] += 1
            entry["out_mb"] += nbytes / 1e6
        return dict(out)

    def write(self, path: str) -> None:
        """Spans as JSON: a name table and rows of (name, start, end, parent)."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [index[n], s - t0, e - t0, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"names": table, "columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh)
