"""Spans around the program's public functions, recorded from outside.

The benchmark never edits ``src/``. A :class:`Tracer` instead replaces
each probed function or method with a wrapper for the duration of a
traced phase, and puts the originals back afterwards. Module-level
functions are replaced in every loaded ``repro`` module that imported
them by name, so ``from repro.core.bounds import entropy_intervals``
call sites are covered too.

Three kinds of probe exist:

* span probes record ``(name, start, end, parent, request, counts)``;
* count probes only bump a counter on the innermost open span (used for
  calls too frequent to time cheaply, such as ``ColumnStore.column``);
* byte probes count what ``repro.durability.atomic`` puts on disk, the
  one module through which the program writes files. They are the
  only probes installed in untraced runs, to measure
  ``bytes_written_per_plan`` without timing anything.

Spans stay in memory; :func:`write_spans` dumps them once at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

# A meter sees the call's arguments before the call and returns a
# function that turns the result into counts for the span.
Meter = Callable[[tuple, dict], Callable[[Any], dict[str, int]]]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: int | None = None
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from one thread; with ``spans=False`` only counts bytes."""

    def __init__(self, *, spans: bool = True) -> None:
        self.record_spans = spans
        self.spans: list[Span] = []
        self.bytes_written = 0
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self.request: int | None = None

    def _owner(self) -> bool:
        return threading.get_ident() == self._thread

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, request=self.request)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, counts: dict[str, int] | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if counts:
            for key, value in counts.items():
                span.counts[key] = span.counts.get(key, 0) + value
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def count(self, key: str, amount: int = 1) -> None:
        if self._stack:
            counts = self.spans[self._stack[-1]].counts
            counts[key] = counts.get(key, 0) + amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.record_spans:
            yield
            return
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _span_wrapper(tracer: Tracer, fn: Callable, name: str, meter: Meter | None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer._owner():
            return fn(*args, **kwargs)
        finish = meter(args, kwargs) if meter is not None else None
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end(index)
            raise
        tracer.end(index, finish(result) if finish is not None else None)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, fn: Callable, key: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer._owner():
            tracer.count(key)
        return fn(*args, **kwargs)

    return wrapper


def _file_bytes_wrapper(tracer: Tracer, fn: Callable):
    """``atomic_write_bytes(path, data)``: bytes = ``len(data)``.

    ``atomic_write_text`` delegates here through the module global, so
    text writes are counted once, by this wrapper.
    """

    @functools.wraps(fn)
    def wrapper(path, data, *args, **kwargs):
        result = fn(path, data, *args, **kwargs)
        if tracer._owner():
            tracer.bytes_written += len(data)
            tracer.count("bytes", len(data))
        return result

    return wrapper


def _stream_bytes_wrapper(tracer: Tracer, fn: Callable):
    """``AtomicTextFile.write(self, text)``: bytes = the encoded text."""

    @functools.wraps(fn)
    def wrapper(self, text, *args, **kwargs):
        result = fn(self, text, *args, **kwargs)
        if tracer._owner():
            size = len(text) if text.isascii() else len(text.encode("utf-8"))
            tracer.bytes_written += size
            tracer.count("bytes", size)
        return result

    return wrapper


# ----------------------------------------------------------------------
# Meters (counts taken at the probed boundary)
# ----------------------------------------------------------------------
def _sampler_cells(args: tuple, kwargs: dict):
    sampler = args[0]
    scanned, saved = sampler.cells_scanned, sampler.cells_saved
    return lambda _result: {
        "cells_scanned": sampler.cells_scanned - scanned,
        "cells_saved": sampler.cells_saved - saved,
    }


def _backend_rows(args: tuple, kwargs: dict):
    columns = args[1] if len(args) > 1 else kwargs["columns"]
    rows = args[3] if len(args) > 3 else kwargs["rows"]
    if isinstance(rows, slice):
        length = rows.stop - rows.start
    else:
        length = len(rows)
    return lambda _result: {"rows": length * len(columns)}


def _joint_rows(args: tuple, kwargs: dict):
    length = len(args[1])
    return lambda _result: {"rows": length}


def _iterations(args: tuple, kwargs: dict):
    return lambda result: {"iterations": result.stats.iterations}


def _hit(args: tuple, kwargs: dict):
    return lambda result: {"hit": int(result is not None)}


@dataclass(frozen=True)
class Probe:
    """``module.path`` becomes span ``span``; a dotted path is a method.

    A module-level function is replaced in every ``repro`` module that
    holds it, unless ``call_sites_only``: then only the references in
    ``module`` are replaced, so calls from elsewhere stay inside their
    caller's span.
    """

    module: str
    path: str
    span: str
    meter: Meter | None = None
    call_sites_only: bool = False


SPAN_PROBES: tuple[Probe, ...] = (
    Probe("repro.core.plan", "plan_queries", "plan.plan_queries"),
    Probe("repro.core.plan", "PlanExecutor.__init__", "plan.executor_init"),
    Probe("repro.core.plan", "PlanExecutor.execute", "plan.execute"),
    Probe("repro.core.cost", "CostModel.estimate", "cost.estimate"),
    Probe("repro.core.engine", "adaptive_top_k", "engine.loop", _iterations),
    Probe("repro.core.engine", "adaptive_filter", "engine.loop", _iterations),
    # Bounds as the engine's score providers call them; the cost model's
    # own interval calls stay in cost.estimate.
    Probe("repro.core.engine", "entropy_intervals", "bounds.entropy_intervals",
          call_sites_only=True),
    Probe("repro.core.engine", "mi_intervals", "bounds.mi_intervals",
          call_sites_only=True),
    Probe("repro.data.sampling", "PrefixSampler.__init__", "sampling.init"),
    Probe("repro.data.sampling", "PrefixSampler.shuffle_fingerprint",
          "sampling.fingerprint"),
    Probe("repro.data.sampling", "PrefixSampler.marginal_counts_batch",
          "sampling.marginal_batch", _sampler_cells),
    Probe("repro.data.sampling", "PrefixSampler.joint_counts_batch",
          "sampling.joint_batch", _sampler_cells),
    Probe("repro.data.sampling", "PrefixSampler.state_snapshot",
          "sampling.snapshot"),
    Probe("repro.data.backends", "NumpyBackend.count_columns",
          "backend.count_columns", _backend_rows),
    Probe("repro.data.backends", "ProcessBackend.count_columns",
          "backend.count_columns", _backend_rows),
    Probe("repro.data.joint", "JointCounter.update", "joint.update", _joint_rows),
    Probe("repro.data.column_store", "ColumnStore.__init__", "store.build"),
    Probe("repro.data.mmap_store", "MmapStoreWriter.append", "store.build"),
    Probe("repro.data.mmap_store", "MmapStoreWriter.finalize", "store.build"),
    Probe("repro.data.mmap_store", "MmapStore.open", "store.build"),
    Probe("repro.cache.store", "PlanCache.__init__", "cache.open"),
    Probe("repro.cache.store", "PlanCache.partition", "cache.partition"),
    Probe("repro.cache.store", "PlanCache.flush", "cache.flush"),
    Probe("repro.cache.store", "CachePartition.lookup_answer", "cache.lookup", _hit),
    Probe("repro.cache.store", "CachePartition.best_marginal", "cache.warm", _hit),
    Probe("repro.cache.store", "CachePartition.best_joint", "cache.warm", _hit),
    Probe("repro.cache.store", "CachePartition.put_answer", "cache.put"),
    Probe("repro.cache.store", "CachePartition.absorb_sampler_state",
          "cache.absorb"),
    Probe("repro.durability.checkpoint", "encode_sampler_state",
          "checkpoint.encode"),
    Probe("repro.durability.checkpoint", "save_checkpoint", "checkpoint.save"),
    Probe("repro.durability.checkpoint", "store_fingerprint",
          "checkpoint.store_fingerprint"),
    Probe("repro.obs.sinks", "JsonlSink.__init__", "trace.open"),
    Probe("repro.obs.sinks", "JsonlSink.emit", "trace.emit"),
    Probe("repro.obs.sinks", "JsonlSink.close", "trace.close"),
    Probe("repro.obs.metrics", "record_query", "metrics.record"),
    Probe("repro.obs.metrics", "record_plan", "metrics.record"),
    Probe("repro.obs.metrics", "record_cache", "metrics.record"),
    Probe("repro.obs.metrics", "record_checkpoint", "metrics.record"),
)

COUNT_PROBES: tuple[tuple[str, str, str], ...] = (
    ("repro.data.column_store", "ColumnStore.column", "column_calls"),
    ("repro.data.mmap_store", "MmapStore.column", "column_calls"),
)

BYTE_PROBES: tuple[tuple[str, str, Callable], ...] = (
    ("repro.durability.atomic", "atomic_write_bytes", _file_bytes_wrapper),
    ("repro.durability.atomic", "AtomicTextFile.write", _stream_bytes_wrapper),
)


def _replace(
    module_name: str,
    path: str,
    make: Callable[[Callable], Callable],
    call_sites_only: bool = False,
):
    """Swap one target for ``make(original)``; return an undo callable."""
    module = sys.modules[module_name]
    if "." in path:
        class_name, attr = path.split(".")
        owner = getattr(module, class_name)
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, attr, replacement)
        return lambda: setattr(owner, attr, original)
    original = getattr(module, path)
    wrapped = make(original)
    modules = (
        [module]
        if call_sites_only
        else [
            mod
            for name, mod in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
    )
    holders = [
        (mod, key)
        for mod in modules
        for key, value in list(vars(mod).items())
        if value is original
    ]
    for mod, key in holders:
        setattr(mod, key, wrapped)

    def undo() -> None:
        for mod, key in holders:
            setattr(mod, key, original)

    return undo


def _import_targets() -> None:
    import importlib

    names = {p.module for p in SPAN_PROBES}
    names |= {m for m, *_ in COUNT_PROBES + BYTE_PROBES}
    for module_name in names:
        importlib.import_module(module_name)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the probed functions while the block runs, then restore them."""
    _import_targets()
    undo: list[Callable[[], None]] = []
    try:
        for module_name, path, make in BYTE_PROBES:
            undo.append(_replace(module_name, path, lambda fn, m=make: m(tracer, fn)))
        if tracer.record_spans:
            for probe in SPAN_PROBES:
                undo.append(
                    _replace(
                        probe.module,
                        probe.path,
                        lambda fn, p=probe: _span_wrapper(tracer, fn, p.span, p.meter),
                        probe.call_sites_only,
                    )
                )
            for module_name, path, key in COUNT_PROBES:
                undo.append(
                    _replace(
                        module_name, path, lambda fn, k=key: _count_wrapper(tracer, fn, k)
                    )
                )
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread's call stack, so children never overlap
    and their union is their sum.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - child for span, child in zip(spans, child_time)]


def write_spans(spans: list[Span], path: Path) -> None:
    """Dump spans as JSON lines (start/end relative to the first span)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0].start if spans else 0.0
    with path.open("w", encoding="utf-8") as handle:
        for index, span in enumerate(spans):
            handle.write(
                json.dumps(
                    {
                        "id": index,
                        "name": span.name,
                        "start_s": span.start - origin,
                        "end_s": span.end - origin,
                        "parent": span.parent,
                        "request": span.request,
                        "counts": span.counts,
                    }
                )
                + "\n"
            )
