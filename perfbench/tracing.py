"""Span tracing from the benchmark's side of each layer boundary.

The traced run wraps public functions and methods of the ``repro``
layers *in the benchmark process*: no ``src/`` file changes.  Each call
through a wrapper is one span.  A span's self time is its duration minus
the durations of the wrapped calls made inside it (on the same thread),
so the self times of one call tree add up to its wall time and each
metric charges a layer only for the work it did itself.

Every wrapped target is one row of :data:`TARGETS`.  A target a later
change removes or renames is reported in :attr:`Tracer.absent` and its
metrics stay at zero; the benchmark keeps running.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["Target", "TARGETS", "Tracer", "covered_time"]

Counter = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """One wrapped attribute.

    ``path`` is ``"module:attr"`` or ``"module:Class.method"``.  Its
    span time goes to ``time_metric`` (self time, or the whole duration
    when ``inclusive``); ``counts`` maps a call's ``(args, kwargs,
    result)`` to increments of count metrics.  A call that raises adds
    time but no counts.
    """

    layer: str
    path: str
    time_metric: str
    counts: Optional[Counter] = None
    inclusive: bool = False


def _calls(name: str) -> Counter:
    return lambda args, kwargs, result: {name: 1}


def _fetch_outcome(args, kwargs, result) -> Dict[str, float]:
    hit = result is not None
    return {"cache.hits": int(hit), "cache.misses": int(not hit)}


# The layer table: which calls are timed, and into which metric.
TARGETS: Tuple[Target, ...] = (
    Target("core.generator", "repro.core.generator:structure_batch",
           "generator.structure_s"),
    Target("core.generator",
           "repro.core.generator:artificial_matrix_generation",
           "generator.structure_s"),
    Target("core.generator", "repro.core.generator:row_length_profile",
           "generator.profile_s",
           lambda a, k, r: {"generator.profile_rows": len(r)}),
    Target("core.features", "repro.core.features:extract_features",
           "features.extract_s", _calls("features.calls")),
    Target("formats",
           "repro.perfmodel.fused:FusedSpecSource.format_stats_columns",
           "formats.stats_s"),
    Target("formats", "repro.perfmodel.instance:MatrixInstance.format_stats",
           "formats.stats_s"),
    Target("devices.parallel",
           "repro.devices.parallel:imbalance_for_strategy_fast",
           "parallel.imbalance_s", _calls("parallel.imbalance_calls")),
    Target("devices.parallel",
           "repro.devices.parallel:imbalance_for_strategy",
           "parallel.imbalance_s", _calls("parallel.imbalance_calls")),
    Target("devices.parallel", "repro.devices.parallel:sell_chunk_widths",
           "parallel.sell_widths_s"),
    Target("devices.parallel",
           "repro.perfmodel.fused:FusedSpecSource.simd_utilisation",
           "parallel.simd_s"),
    Target("devices.parallel",
           "repro.perfmodel.instance:MatrixInstance.simd_utilisation",
           "parallel.simd_s"),
    # Inclusive: the instance route's whole build of one instance,
    # generator spans included (its own self time is ~0).
    Target("perfmodel", "repro.perfmodel.instance:MatrixInstance.from_spec",
           "perfmodel.materialise_s", inclusive=True),
    Target("perfmodel", "repro.perfmodel.batch:_score_grid",
           "perfmodel.score_s",
           lambda a, k, r: {"perfmodel.cells": r.n_cells}),
    Target("core.table", "repro.core.dataset:_grid_sweep_table",
           "table.assemble_s"),
    Target("core.table", "repro.core.table:SweepTable.concat",
           "table.assemble_s"),
    Target("pipeline.engine", "repro.pipeline.engine:run_sweep",
           "engine.overhead_s"),
    Target("pipeline.cache", "repro.pipeline.cache:InstanceCache.fetch",
           "cache.fetch_s", _fetch_outcome),
    Target("pipeline.cache", "repro.pipeline.cache:InstanceCache.store",
           "cache.store_s"),
    Target("pipeline.cache", "repro.pipeline.cache:_atomic_write_bytes",
           "cache.store_s",
           lambda a, k, r: {"cache.bytes_written": len(a[1])}),
    Target("ml", "repro.ml.selector:FormatSelector.fit", "ml.fit_s",
           _calls("ml.fit_calls")),
    Target("ml", "repro.ml.selector:FormatSelector.evaluate",
           "ml.evaluate_s"),
)


def covered_time(intervals: List[Tuple[int, int]]) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Span recorder plus the attribute patches that feed it.

    Use as a context manager: entering installs every target that
    resolves, leaving restores the original attributes.
    """

    def __init__(self, targets=TARGETS,
                 clock: Callable[[], int] = time.perf_counter_ns):
        self.targets = tuple(targets)
        self.clock = clock
        self.times_ns: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.roots: List[Tuple[int, int]] = []
        self.absent: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- spans -----------------------------------------------------------
    def wrap(self, fn: Callable, target: Target) -> Callable:
        """``fn`` with a span around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            # Each frame accumulates the durations of its direct children.
            stack.append(0)
            start = self.clock()
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = self.clock()
                children = stack.pop()
                duration = end - start
                charged = duration if target.inclusive else (
                    duration - children
                )
                increments = (
                    target.counts(args, kwargs, result)
                    if ok and target.counts is not None else {}
                )
                with self._lock:
                    name = target.time_metric
                    self.times_ns[name] = (
                        self.times_ns.get(name, 0) + charged
                    )
                    for key, value in increments.items():
                        self.counts[key] = self.counts.get(key, 0) + value
                    if not stack:
                        self.roots.append((start, end))
                if stack:
                    stack[-1] += duration

        traced.__wrapped_target__ = target
        return traced

    # -- installation ----------------------------------------------------
    def _resolve(self, path: str):
        module_name, _, attr = path.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None
        owner, _, name = attr.rpartition(".")
        holder = module
        if owner:
            holder = getattr(module, owner, None)
            if holder is None or name not in vars(holder):
                return None
        elif not hasattr(module, name):
            return None
        return module, holder, name

    def install(self) -> None:
        for target in self.targets:
            found = self._resolve(target.path)
            if found is None:
                self.absent.append(target.path)
                continue
            module, holder, name = found
            if holder is module:
                self._patch_function(module, name, target)
            else:
                self._patch_method(holder, name, target)

    def _patch_function(self, module, name: str, target: Target) -> None:
        original = getattr(module, name)
        wrapped = self.wrap(original, target)
        # ``from x import f`` binds ``f`` into the importer too: rebind
        # every loaded repro module that holds the same function object.
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith(
                    "repro"):
                continue
            if vars(mod).get(name) is original:
                setattr(mod, name, wrapped)
                self._undo.append(
                    functools.partial(setattr, mod, name, original)
                )

    def _patch_method(self, cls, name: str, target: Target) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, classmethod):
            patched = classmethod(self.wrap(raw.__func__, target))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self.wrap(raw.__func__, target))
        elif isinstance(raw, property):
            patched = property(self.wrap(raw.fget, target), raw.fset,
                               raw.fdel, raw.__doc__)
        else:
            patched = self.wrap(raw, target)
        setattr(cls, name, patched)
        self._undo.append(functools.partial(setattr, cls, name, raw))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
