"""Span recording from outside the program.

The traced run wraps each layer's *public* entry points with a timing
wrapper, runs the same inputs as the untraced run, and restores the
originals afterwards.  Nothing under ``src/`` knows about it; in-program
spans (``repro.profiling``) are a later change that must reproduce these
numbers.

A span is (layer, name, start, end, parent, request, thread).  Spans live
in flat arrays in memory and are written out only when the run ends.
Nesting is tracked per thread; a span that starts on a worker thread with
nothing open there is attached afterwards to the client-thread span
(``submit`` / ``drain``) it overlaps, because in the lock-step load model
the client is blocked for exactly that interval.

Self time of a span is its duration minus the part of it that child
spans cover, minus a calibrated per-child cost of the wrapper itself
(measured on a no-op at install time): the cost-model and selectivity
entry points run for well under a microsecond, so without that
correction their callers would be charged mostly for the tracing.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

_perf = time.perf_counter


class Tracer:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.enabled = False
        #: request id stamped on every span opened from now on; the
        #: harness bumps it once per statement
        self.request_id = 0
        self.kinds: List[Tuple[str, str]] = []
        self._kind_ids: Dict[Tuple[str, str], int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.thread = array("i")
        self.start = array("d")
        self.end = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = 0
        #: seconds one wrapper costs its caller outside the wrapped span
        self.wrapper_cost = 0.0
        #: (span id, iterations, optimizer calls, created, drop-listed,
        #: retained) of every ``mnsad_for_query`` call
        self.notes: List[tuple] = []

    def kind_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        if key not in self._kind_ids:
            self._kind_ids[key] = len(self.kinds)
            self.kinds.append(key)
        return self._kind_ids[key]

    def _stack(self) -> list:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            with self._lock:
                local.thread = self._threads
                self._threads += 1
            local.stack = []
            return local.stack

    def open(self, kind: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            sid = len(self.start)
            self.kind.append(kind)
            self.parent.append(parent)
            self.request.append(self.request_id)
            self.thread.append(self._local.thread)
            self.end.append(0.0)
            self.start.append(_perf())
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = _perf()
        self._local.stack.pop()

    def wrap(
        self, layer: str, name: str, fn: Callable, hook=None
    ) -> Callable:
        """``fn`` with a span around each call.

        ``hook`` (optional) sees the call from outside the span:
        ``hook.before(args)`` runs ahead of it and
        ``hook.after(tracer, sid, args, before, result)`` once it
        returned, to relabel the span or note a count from the result.
        """
        kind = self.kind_id(layer, name)
        tracer = self

        if hook is None:

            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                sid = tracer.open(kind)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(sid)

        else:

            def traced(*args, **kwargs):
                if not tracer.enabled:
                    return fn(*args, **kwargs)
                before = hook.before(args)
                sid = tracer.open(kind)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(sid)
                hook.after(tracer, sid, args, before, result)
                return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def calibrate(self, calls: int = 20000) -> None:
        """Measure what one wrapper costs its caller (see module doc)."""

        def noop():
            return None

        wrapped = self.wrap("trace", "calibrate", noop)
        was = self.enabled
        self.enabled = True
        first = len(self.start)
        try:
            begin = _perf()
            for _ in range(calls):
                wrapped()
            total = _perf() - begin
            inside = sum(
                self.end[i] - self.start[i]
                for i in range(first, first + calls)
            )
        finally:
            self.enabled = was
            self._truncate(first)
        self.wrapper_cost = max(0.0, (total - inside) / calls)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def _truncate(self, first: int) -> None:
        for column in (
            self.kind, self.parent, self.request, self.thread,
            self.start, self.end,
        ):
            del column[first:]

    def clear(self) -> None:
        """Forget the recorded spans (between repetitions)."""
        self._truncate(0)
        del self.notes[:]

    def write(self, path: str) -> None:
        """Dump every recorded span as JSON lines."""
        with open(path, "w") as handle:
            for sid in range(len(self.start)):
                layer, name = self.kinds[self.kind[sid]]
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "layer": layer,
                            "name": name,
                            "start": self.start[sid],
                            "end": self.end[sid],
                            "parent": self.parent[sid],
                            "request": self.request[sid],
                            "thread": self.thread[sid],
                        }
                    )
                    + "\n"
                )


class SpanTable:
    """Self times and counts of the spans inside one measured window."""

    #: client-thread spans during which the client only waits for a
    #: worker thread, so worker-thread root spans count as their children
    WAITS = (("service", "submit"), ("service", "drain"))

    def __init__(self, tracer: Tracer, t0: float, t1: float) -> None:
        start = np.frombuffer(tracer.start, dtype=np.float64)
        end = np.frombuffer(tracer.end, dtype=np.float64)
        ids = np.nonzero((start >= t0) & (end <= t1) & (end > 0.0))[0]
        self.kinds = list(tracer.kinds)
        self.kind = np.frombuffer(tracer.kind, dtype=np.int32)[ids]
        self.duration = end[ids] - start[ids]
        parent = np.frombuffer(tracer.parent, dtype=np.int32)[ids]
        thread = np.frombuffer(tracer.thread, dtype=np.int32)[ids]
        # position of each span's parent inside the window (-1: none)
        position = np.full(len(start) + 1, -1, dtype=np.int64)
        position[ids] = np.arange(len(ids))
        parent_pos = position[parent]  # parent -1 reads the spare slot
        covered = np.zeros(len(ids))
        children = np.zeros(len(ids))
        nested = parent_pos >= 0
        np.add.at(covered, parent_pos[nested], self.duration[nested])
        np.add.at(children, parent_pos[nested], 1.0)
        self._adopt(start[ids], end[ids], thread, parent_pos, covered)
        own = np.maximum(0.0, self.duration - covered)
        #: what the wrappers around each span's children cost it
        self.tracing = np.minimum(own, children * tracer.wrapper_cost)
        self.self_time = own - self.tracing
        self.wall = t1 - t0
        self.notes = [n for n in tracer.notes if position[n[0]] >= 0]

    def _adopt(self, start, end, thread, parent_pos, covered):
        """Charge worker-thread root spans to the client span they overlap."""
        wait_kinds = [
            i for i, kind in enumerate(self.kinds) if kind in self.WAITS
        ]
        waits = np.nonzero(np.isin(self.kind, wait_kinds))[0]
        if not len(waits):
            return
        client = thread[waits[0]]
        roots = np.nonzero((thread != client) & (parent_pos < 0))[0]
        w_start, w_end = start[waits], end[waits]
        for root in roots:
            lo = np.searchsorted(w_end, start[root], side="right")
            hi = np.searchsorted(w_start, end[root], side="left")
            for w in range(lo, hi):
                overlap = min(end[root], w_end[w]) - max(
                    start[root], w_start[w]
                )
                if overlap > 0.0:
                    covered[waits[w]] += overlap

    def _mask(self, layer: str, names=None) -> np.ndarray:
        wanted = [
            i
            for i, (l, n) in enumerate(self.kinds)
            if l == layer and (names is None or n in names)
        ]
        return np.isin(self.kind, wanted)

    def count(self, layer: str, names=None) -> int:
        return int(self._mask(layer, names).sum())

    def self_seconds(self, layer: str, names=None) -> float:
        return float(self.self_time[self._mask(layer, names)].sum())

    def seconds(self, layer: str, names=None) -> float:
        """Inclusive time (children included) of the matching spans."""
        return float(self.duration[self._mask(layer, names)].sum())

    def durations(self, layer: str, names=None) -> np.ndarray:
        return self.duration[self._mask(layer, names)]

    def self_seconds_by_layer(self) -> Dict[str, float]:
        """Self time per layer, plus what the tracing itself cost."""
        totals: Dict[str, float] = {"(tracing)": float(self.tracing.sum())}
        for layer in sorted({layer for layer, _ in self.kinds}):
            mask = self._mask(layer)
            if mask.any():
                totals[layer] = float(self.self_time[mask].sum())
        return totals

    def attributed_share(self) -> float:
        """Share of the window's wall that the spans account for: the
        self time of every layer span plus the tracing cost taken out of
        it.  The rest is the harness's own time between calls."""
        layers = ~self._mask("bench")
        attributed = self.self_time[layers].sum() + self.tracing.sum()
        return float(attributed) / self.wall


# ----------------------------------------------------------------------
# installing the wrappers
# ----------------------------------------------------------------------


class _ColdOrCached:
    """Relabel an ``optimize_request`` span that ran a full plan search."""

    @staticmethod
    def before(args):
        return args[0].cold_optimize_count

    @staticmethod
    def after(tracer, sid, args, before, result):
        if args[0].cold_optimize_count != before:
            tracer.kind[sid] = tracer.kind_id("optimizer", "cold_optimize")


class _MnsadOutcome:
    """Note what one ``mnsad_for_query`` call decided."""

    @staticmethod
    def before(args):
        return None

    @staticmethod
    def after(tracer, sid, args, before, result):
        tracer.notes.append(
            (
                sid,
                result.iterations,
                result.optimizer_calls,
                len(result.created),
                len(result.dropped),
                len(result.retained),
            )
        )


def _targets():
    """(owner, attribute, layer, span name, hook) for every entry point.

    Functions that callers import by name are patched in the namespace of
    each caller the workloads reach, as well as in their home module.
    """
    from repro.core import mnsad
    from repro.executor import dml
    from repro.executor.executor import Executor
    from repro.feedback.store import FeedbackStore
    from repro.optimizer.cache import PlanCache
    from repro.optimizer.cost_model import CostModel
    from repro.optimizer.optimizer import Optimizer
    from repro.optimizer.selectivity import SelectivityEstimator
    from repro.service import service, worker
    from repro.service.monitor import StalenessMonitor
    from repro.sql import binder
    from repro.stats.manager import StatisticsManager

    rows = [
        (binder, "parse_and_bind", "sql", "parse_and_bind", None),
        (
            Optimizer,
            "optimize_request",
            "optimizer",
            "optimize_request",
            _ColdOrCached,
        ),
        (Executor, "execute", "executor", "execute", None),
        (dml, "apply_dml", "executor", "apply_dml", None),
        (service, "apply_dml", "executor", "apply_dml", None),
        (FeedbackStore, "record_all", "feedback", "record_all", None),
        (mnsad, "mnsad_for_workload", "core", "mnsad_for_workload", None),
        (mnsad, "mnsad_for_query", "core", "mnsad_for_query", _MnsadOutcome),
        (worker, "mnsad_for_query", "core", "mnsad_for_query", _MnsadOutcome),
        (service.StatsService, "submit", "service", "submit", None),
        (service.StatsService, "drain", "service", "drain", None),
        (StalenessMonitor, "run_once", "service.monitor", "run_once", None),
    ]
    for name in (
        "predicate_selectivity",
        "table_filter_selectivity",
        "join_group_selectivity",
        "group_by_fraction",
        "predicate_has_statistics",
        "join_has_statistics",
        "group_by_has_statistics",
        "missing_variables",
    ):
        rows.append(
            (SelectivityEstimator, name, "optimizer.selectivity", name, None)
        )
    for name in (
        "table_scan",
        "index_seek",
        "nested_loop_index",
        "nested_loop_scan",
        "hash_join",
        "merge_join",
        "sort",
        "hash_aggregate",
        "stream_aggregate",
    ):
        rows.append((CostModel, name, "optimizer.cost_model", name, None))
    for name in ("get_fresh", "get_validated", "store"):
        rows.append((PlanCache, name, "optimizer.cache", name, None))
    for name in (
        "create",
        "rebuild",
        "refresh_table",
        "histogram_for",
        "density_for_columns",
        "joint_for_columns",
    ):
        rows.append((StatisticsManager, name, "stats", name, None))
    return rows


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point for the duration of the block."""
    patched = []
    wrappers: Dict[int, Callable] = {}
    try:
        for owner, attribute, layer, name, hook in _targets():
            original = owner.__dict__[attribute]
            # one wrapper per function, however many namespaces hold it
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = tracer.wrap(layer, name, original, hook)
                wrappers[id(original)] = wrapper
            setattr(owner, attribute, wrapper)
            patched.append((owner, attribute, original))
        tracer.calibrate()
        yield tracer
    finally:
        tracer.enabled = False
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
