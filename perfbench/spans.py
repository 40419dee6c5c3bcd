"""In-memory span tracer for the benchmark's traced runs.

A span wraps one call that crosses a trimcusum module boundary: every function
that one package module imports from another (``montecarlo.stream_generator``,
``resampling.cusum_path``, ``cli.resampled_critical_value``, ...) is replaced,
in the importing module's namespace only, by a wrapper that records the call.
The library's own files are never edited; ``uninstall`` puts every original
binding back.  Calls a module makes to its own functions are not wrapped, so a
layer's spans cover exactly the time spent below its entry points.

A span's layer is the module that defines the callee.  Its self time is its
duration minus the time covered by its direct child spans.  Spans are kept in
a flat int64 array, one row per span, and written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "trimcusum"
LAYERS = (
    "cli",
    "montecarlo",
    "resampling",
    "trimmed_cusum",
    "heavy_tail_models",
    "_streams",
    "limit_dist",
)
COLUMNS = ("span", "parent", "name", "start_ns", "end_ns", "child_ns", "elems")

# Work counted at a boundary, by callee name: the size of the uniforms block
# handed to the inverse CDF is the number of samples drawn.
_ELEMS = {"_quantile_unchecked": lambda args: int(np.size(args[1]))}


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans = array("q")
        self._stack: list[list[int]] = []  # [span id, start ns, child ns]
        self._next_id = 0
        self._bindings: list[tuple[object, str, object, object]] = []
        self._installed = False

    def wrap(self, fn, name: str, layer: str):
        """Callable that runs fn inside a span called `name` of `layer`."""
        name_id = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        count = _ELEMS.get(fn.__name__)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            frame = [span_id, 0, 0]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                parent = -1
                if stack:
                    parent = stack[-1][0]
                    stack[-1][2] += duration
                elems = count(args) if count is not None else 0
                spans.extend((span_id, parent, name_id, frame[1], end, frame[2], elems))

        return traced

    def install(self) -> None:
        """Put the wrappers in place.  The first call wraps every cross-module
        function binding of the package, plus cli.load_series (a cli-internal
        call the per-layer metrics name); later calls reuse those wrappers."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if not self._bindings:
            self._bindings = self._discover()
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for module, attr, original, _ in reversed(self._bindings):
            setattr(module, attr, original)
        self._installed = False

    def _discover(self) -> list[tuple[object, str, object, object]]:
        bindings = []
        for importer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{importer}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not home.startswith(PACKAGE + ".") or home == module.__name__:
                    continue
                layer = home.rsplit(".", 1)[1]
                wrapper = self.wrap(obj, f"{importer}.{attr}", layer)
                bindings.append((module, attr, obj, wrapper))
        cli = sys.modules[f"{PACKAGE}.cli"]
        wrapper = self.wrap(cli.load_series, "cli.load_series", "cli")
        bindings.append((cli, "load_series", cli.load_series, wrapper))
        return bindings

    def table(self) -> np.ndarray:
        """Recorded spans as an (N, 7) int64 array with columns COLUMNS."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(COLUMNS)).copy()

    def summary(self) -> dict:
        """Totals per span name and self time per layer, in seconds."""
        rows = self.table()
        duration = rows[:, 4] - rows[:, 3]
        self_ns = duration - rows[:, 5]
        by_name: dict[str, dict] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name_id, name in enumerate(self.names):
            mask = rows[:, 2] == name_id
            if not mask.any():
                continue
            entry = by_name.setdefault(
                name, {"layer": self.layers[name_id], "calls": 0, "total_s": 0.0, "elems": 0}
            )
            entry["calls"] += int(mask.sum())
            entry["total_s"] += float(duration[mask].sum()) * 1e-9
            entry["elems"] += int(rows[mask, 6].sum())
            layer = self.layers[name_id]
            layer_self[layer] = layer_self.get(layer, 0.0) + float(self_ns[mask].sum()) * 1e-9
        return {"names": by_name, "layer_self_s": layer_self, "spans": int(rows.shape[0])}

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            spans=self.table(),
            columns=np.array(COLUMNS),
            names=np.array(self.names),
            layers=np.array(self.layers),
        )
