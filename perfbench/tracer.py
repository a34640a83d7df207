"""The traced run's span recorder, installed around the program from outside.

:func:`install` replaces the public entry points of each layer with thin
wrappers that open a span on entry and close it on exit.  A span records
its name, start, end, parent and request id; its *self time* is its
duration minus the time its child spans cover.  Children opened on another
thread (the serve tier's executor thread) are charged to the request's root
span, which is safe because the benchmark keeps one operation in flight.

Spans of the outer layers are kept in memory as records and written when
the run ends.  Accessor and page-fetch calls happen hundreds of times per
query, so for those two layers only per-request self-time totals are kept,
not one record per call.

Counts are never re-counted here: the wrappers read the program's own
statistics objects (``QueryStatistics`` on search results,
``CacheStatistics`` of the query service, ``SnapshotStatistics`` of the
temporal executor) and add up their deltas per request.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time

__all__ = ["SpanRecorder", "install"]

#: Layers recorded as per-request totals instead of one record per call.
_LEAF_LAYERS = frozenset({"network.accessor", "storage.page_fetch"})


class SpanRecorder:
    """Collects spans and counters, keyed by request id."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: Id of the operation in flight (set by the harness or the dispatch wrapper).
        self.request_id: str | None = None
        self._root: list | None = None
        self.records: list[tuple[str, int, int, int, str | None]] = []
        self.self_ns: dict[str, dict[str, int]] = {}
        self.total_ns: dict[str, dict[str, int]] = {}
        self.counts: dict[str, dict[str, int]] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        # frame: name, start, child ns, record index, parent frame, request id
        frame = [name, time.perf_counter_ns(), 0, -1, parent, self.request_id]
        if name not in _LEAF_LAYERS and self.request_id is not None:
            frame[3] = len(self.records)
            self.records.append((name, frame[1], 0, -1, self.request_id))
        stack.append(frame)
        return frame

    def end(self, frame: list, *, name: str | None = None) -> None:
        """Close ``frame``; ``name`` re-labels it (e.g. a lookup that built)."""
        end = time.perf_counter_ns()
        stack = self._stack()
        stack.pop()
        label = name or frame[0]
        duration = end - frame[1]
        parent = frame[4]
        if parent is not None:
            parent[2] += duration
        rid = frame[5]
        if rid is None:
            return
        per_self = self.self_ns.setdefault(rid, {})
        per_self[label] = per_self.get(label, 0) + duration - frame[2]
        per_total = self.total_ns.setdefault(rid, {})
        per_total[label] = per_total.get(label, 0) + duration
        if frame[3] >= 0:
            parent_index = parent[3] if parent is not None else -1
            self.records[frame[3]] = (label, frame[1], end, parent_index, rid)

    def set_root(self, frame: list | None) -> None:
        """Make ``frame`` the parent of spans opened on other threads."""
        self._root = frame

    def add(self, counter: str, value: int) -> None:
        rid = self.request_id
        if rid is None or not value:
            return
        per = self.counts.setdefault(rid, {})
        per[counter] = per.get(counter, 0) + value

    def to_payload(self) -> dict:
        return {
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent": p, "request": r}
                for n, s, e, p, r in self.records
            ],
            "self_ns": self.self_ns,
            "total_ns": self.total_ns,
            "counts": self.counts,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_payload(), handle)


def _wrap(recorder: SpanRecorder, owner: type, attr: str, name: str, after=None) -> None:
    """Replace ``owner.attr`` by a span-recording wrapper.

    ``after(instance, result, before)`` may read statistics once the call
    returns; ``before`` is what ``after.prepare(instance)`` returned on entry.
    It returns an optional new label for the span.
    """
    original = getattr(owner, attr)
    prepare = getattr(after, "prepare", None)
    if inspect.iscoroutinefunction(original):
        raise TypeError(f"{owner.__name__}.{attr} is a coroutine; wrap it explicitly")

    @functools.wraps(original)
    def wrapper(self, *args, **kwargs):
        before = prepare(self) if prepare is not None else None
        frame = recorder.begin(name)
        label = None
        try:
            result = original(self, *args, **kwargs)
            if after is not None:
                label = after(self, result, before)
            return result
        finally:
            recorder.end(frame, name=label)

    setattr(owner, attr, wrapper)


def install(recorder: SpanRecorder, *, serve: bool = False) -> None:
    """Wrap every measured layer's public entry points (idempotent per process)."""
    from repro.api.session import MonitorHandle, Session
    from repro.core.maintenance import SkylineMaintainer, TopKMaintainer
    from repro.core.skyline import MCNSkylineSearch
    from repro.core.topk import MCNTopKSearch
    from repro.monitor.service import MonitoringService
    from repro.network.accessor import FetchOnceCache, InMemoryAccessor
    from repro.service.cache import CrossQueryExpansionCache
    from repro.service.service import QueryService
    from repro.storage.catalog import PackedNetworkStorage
    from repro.storage.persist import FileDisk
    from repro.storage.scheme import NetworkStorage
    from repro.temporal.executor import TemporalExecutor

    if serve:
        from repro.serve.app import ServeApp

        dispatch = ServeApp.dispatch

        @functools.wraps(dispatch)
        async def traced_dispatch(self, request):
            recorder.request_id = request.header("x-bench-op")
            frame = recorder.begin("serve.dispatch")
            recorder.set_root(frame)
            try:
                return await dispatch(self, request)
            finally:
                recorder.end(frame)
                recorder.set_root(None)
                recorder.request_id = None

        ServeApp.dispatch = traced_dispatch

    _wrap(recorder, Session, "query", "api.session")
    _wrap(recorder, MonitorHandle, "tick", "api.session")

    def cache_counts(service, _result, before):
        now = service.cache_statistics
        recorder.add("result_hits", now.result_hits - before.result_hits)
        recorder.add("result_misses", now.result_misses - before.result_misses)
        recorder.add("record_hits", now.record_hits - before.record_hits)
        recorder.add("record_misses", now.record_misses - before.record_misses)

    cache_counts.prepare = lambda service: service.cache_statistics.snapshot()
    _wrap(recorder, QueryService, "execute", "service.execute", cache_counts)

    def search_counts(_search, result, _before):
        recorder.add("heap_pops", result.statistics.heap_pops)
        recorder.add("dominance_checks", result.statistics.dominance_checks)

    _wrap(recorder, MCNSkylineSearch, "run", "core.search", search_counts)
    _wrap(recorder, MCNTopKSearch, "run", "core.search", search_counts)

    for maintainer in (SkylineMaintainer, TopKMaintainer):
        for attr in ("cost_vector", "note_insert", "note_delete", "refresh"):
            _wrap(recorder, maintainer, attr, "core.maintenance")

    _wrap(recorder, MonitoringService, "apply_tick", "monitor.tick")

    def snapshot_counts(executor, _result, before):
        now = executor.statistics
        hits, built = now.hits - before[0], (now.builds + now.rebuilds) - before[1]
        recorder.add("snapshot_hits", hits)
        recorder.add("snapshot_builds", built)
        return "temporal.snapshot_build" if built else "temporal.snapshot_lookup"

    snapshot_counts.prepare = lambda executor: (
        executor.statistics.hits,
        executor.statistics.builds + executor.statistics.rebuilds,
    )
    _wrap(recorder, TemporalExecutor, "session_at", "temporal.snapshot_lookup", snapshot_counts)

    for accessor in (
        CrossQueryExpansionCache,
        FetchOnceCache,
        InMemoryAccessor,
        NetworkStorage,
        PackedNetworkStorage,
    ):
        for attr in ("adjacency", "edge_facilities", "facility_edge"):
            _wrap(recorder, accessor, attr, "network.accessor")
    _wrap(recorder, FileDisk, "read", "storage.page_fetch")
