"""Spans recorded from the benchmark's own files, around calls into gcs.

A span is (name, start, end, parent); its layer is the name up to the
first dot.  `instrument` wraps every function a gcs module imported from
another gcs module, plus the prior's per-context lookups the sampler
makes, so each call across a layer boundary becomes a span without any
change under src/.  `core` is left unwrapped: its cost sits inside calls
from the other layers.  Spans live in flat arrays and are written out once
at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import types
from array import array
from pathlib import Path

LAYERS = ("cli", "world", "formats", "prior", "distributions", "guidance", "sampler", "metrics", "rng")
_NULL = contextlib.nullcontext()


def span_name(fn) -> str:
    """`<layer>.<function>` for a gcs function."""
    return f"{fn.__module__.removeprefix('gcs.')}.{fn.__name__}"


class NullTracer:
    """Tracing off: a span costs one call."""

    def span(self, name: str):
        return _NULL

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextlib.contextmanager
    def instrument(self):
        yield


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        stack, ids, parent, start, end = self._stack, self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def call(self, fn, *args, **kwargs):
        """Call a gcs function inside a span named after it."""
        with self.span(span_name(fn)):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def instrument(self):
        """Wrap cross-layer calls inside gcs for the duration of the block."""
        from gcs.prior import MarkovGridPrior

        patched = []
        for layer in LAYERS:
            module = importlib.import_module(f"gcs.{layer}")
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                owner = value.__module__ or ""
                if not owner.startswith("gcs.") or owner in (module.__name__, "gcs.core"):
                    continue
                patched.append((module, attr, value))
                setattr(module, attr, self.wrap(span_name(value), value))
        for attr in ("distribution_for_context", "next_distribution"):
            value = vars(MarkovGridPrior)[attr]
            patched.append((MarkovGridPrior, attr, value))
            setattr(MarkovGridPrior, attr, self.wrap(f"prior.{attr}", value))
        try:
            yield
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        import numpy as np

        ids = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        return ids, parent, start, end

    def durations(self, name: str, within: str | None = None) -> np.ndarray:
        """Durations of spans called `name`, optionally only under a root span.

        Raises LookupError when there are none: the gcs function the span
        wraps was renamed or is no longer called there.
        """
        ids, parent, start, end = self.arrays()
        mask = ids == self._ids.get(name, -1)
        if within is not None:
            mask &= self._roots(ids, parent) == self._ids.get(within, -2)
        if not mask.any():
            raise LookupError(f"no {name!r} span under {within!r}; update the benchmark's span names")
        return (end - start)[mask]

    def _roots(self, ids, parent) -> np.ndarray:
        """Name id of each span's outermost ancestor."""
        import numpy as np

        root = np.arange(len(ids))
        while True:
            up = parent[root]
            step = np.where(up >= 0, up, root)
            if np.array_equal(step, root):
                return ids[root]
            root = step

    def self_seconds(self) -> dict[str, float]:
        """Each layer's self time: span time not covered by its child spans."""
        import numpy as np

        ids, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - covered
        layer_of = np.array([name.split(".", 1)[0] for name in self.names])
        out: dict[str, float] = {}
        for layer in np.unique(layer_of):
            out[str(layer)] = float(own[np.isin(ids, np.flatnonzero(layer_of == layer))].sum())
        return out

    def save(self, path: Path) -> None:
        import numpy as np

        ids, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=ids, parent=parent, start=start, end=end
        )

    def __len__(self) -> int:
        return len(self.start)
