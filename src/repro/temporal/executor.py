"""Snapshot materialisation and reuse behind temporal policies.

A :class:`TemporalExecutor` owns the moving part of ``temporal="profiles"``
execution: it evaluates a :class:`~repro.timedep.TimeVaryingMCN` (the
session's registered profile set) into the ordinary static MCN valid at one
departure time, wraps it in a full static :class:`~repro.api.Session` stack
(engine, caches, optionally storage), and keeps a small LRU of those stacks
keyed by *quantised* departure time, so nearby requests share one warm
stack instead of opening a cold session per query.  A snapshot shares the
base graph's topology and owns only the costs of the profiled edges, so
building one re-costs those edges and copies the facility indexes; on the
compiled path its session's :class:`~repro.network.compiled.CompiledGraph`
is derived from the base session's the same way (topology and facility
table shared, cost lists copied and patched for the profiled edges).

Every cached stack remembers the base graph's cost revision and the live
facility set's revision at build time; a monitoring tick that re-profiles an
edge (:class:`~repro.monitor.EdgeCostUpdate`) or mutates the facility set
therefore invalidates the stack on its next use — the executor rebuilds it
from the current base state, which is exactly the "fresh static session over
the profile-evaluated snapshot" the temporal differential oracle pins.  The
rebuild is the only staleness path: a stack is never patched in place.
"""

from __future__ import annotations

import math
import time as time_module
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace as dataclasses_replace

from repro.api.policy import ExecutionPolicy
from repro.api.session import Response, Session
from repro.errors import PolicyError, QueryError
from repro.network.accessor import AccessStatistics
from repro.network.facilities import FacilitySet
from repro.network.graph import EdgeId, MultiCostGraph
from repro.service.requests import QueryRequest, SkylineRequest, TopKRequest
from repro.temporal.requests import (
    SkylineSweepRequest,
    SweepRequest,
    TopKSweepRequest,
)
from repro.timedep.network import TimeVaryingMCN, rebind_facilities
from repro.timedep.queries import StableInterval, TimedResult, stable_intervals

__all__ = ["SnapshotStatistics", "SweepResponse", "TemporalExecutor"]


@dataclass
class SnapshotStatistics:
    """How the executor's snapshot LRU behaved (the ``bench timedep`` metric).

    ``builds`` counts snapshot stacks materialised from scratch, ``hits``
    reuses of a warm cached stack, ``rebuilds`` stacks thrown away because
    the base graph's costs or the facility set moved underneath them, and
    ``evictions`` stacks dropped by the LRU bound.
    """

    builds: int = 0
    hits: int = 0
    rebuilds: int = 0
    evictions: int = 0


@dataclass(frozen=True)
class SweepResponse:
    """The answer to one period sweep.

    ``results`` holds the per-instant answers in time order; ``intervals``
    the maximal runs of consecutive instants sharing one answer (the
    paper's "stable intervals").  ``io`` sums the per-instant accessor
    deltas.
    """

    request: SweepRequest
    results: tuple[TimedResult, ...]
    intervals: tuple[StableInterval, ...]
    io: AccessStatistics
    elapsed_seconds: float
    policy: ExecutionPolicy

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)


@dataclass
class _SnapshotEntry:
    session: Session
    facilities_revision: int
    costs_revision: int


class TemporalExecutor:
    """LRU of static snapshot stacks, keyed by quantised departure time.

    ``policy`` is the owning session's static policy (``temporal="off"``):
    every snapshot session runs under it, its ``temporal_quantum``
    quantises departure times and its ``temporal_cache_size`` bounds the
    LRU.  ``open_session(snapshot, facilities, recosted)`` opens the static
    session over one snapshot (``recosted`` names the profiled edges); the
    owning session passes its own, which derives the snapshot's compiled
    graph from the session's.
    """

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        network: TimeVaryingMCN,
        *,
        policy: ExecutionPolicy,
        open_session: Callable[[MultiCostGraph, FacilitySet, Sequence[EdgeId]], Session],
    ):
        if network.base_graph is not graph:
            raise PolicyError(
                "the profile set was registered over a different base graph "
                "than the session's"
            )
        self._graph = graph
        self._facilities = facilities
        self._network = network
        self._policy = policy
        self._open_session = open_session
        self._entries: OrderedDict[int, _SnapshotEntry] = OrderedDict()
        self._statistics = SnapshotStatistics()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> TimeVaryingMCN:
        return self._network

    @property
    def statistics(self) -> SnapshotStatistics:
        return self._statistics

    @property
    def cached_times(self) -> tuple[float, ...]:
        """The quantised departure times currently held by the LRU."""
        return tuple(key * self._policy.temporal_quantum for key in self._entries)

    def key(self, departure_time: float) -> int:
        """The snapshot key of ``departure_time``: its nearest multiple of the quantum."""
        return math.floor(departure_time / self._policy.temporal_quantum + 0.5)

    def quantise(self, departure_time: float) -> float:
        """The snapshot time a request at ``departure_time`` is served from."""
        return self.key(departure_time) * self._policy.temporal_quantum

    # ------------------------------------------------------------------ #
    # Snapshot stacks
    # ------------------------------------------------------------------ #
    def session_at(self, departure_time: float) -> Session:
        """The (cached) static session over the snapshot at ``departure_time``."""
        key = self.key(departure_time)
        entry = self._entries.get(key)
        if entry is not None:
            if (
                entry.facilities_revision == self._facilities.revision
                and entry.costs_revision == self._graph.costs_revision
            ):
                self._entries.move_to_end(key)
                self._statistics.hits += 1
                return entry.session
            # The base moved underneath the snapshot: rebuild from scratch.
            del self._entries[key]
            entry.session.close()
            self._statistics.rebuilds += 1
        snapshot = self._network.snapshot(self.quantise(departure_time))
        rebound = rebind_facilities(snapshot, self._facilities)
        session = self._open_session(snapshot, rebound, self._network.profiled_edges)
        self._entries[key] = _SnapshotEntry(
            session=session,
            facilities_revision=self._facilities.revision,
            costs_revision=self._graph.costs_revision,
        )
        self._statistics.builds += 1
        while len(self._entries) > self._policy.temporal_cache_size:
            _evicted_key, evicted = self._entries.popitem(last=False)
            evicted.session.close()
            self._statistics.evictions += 1
        return session

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    @staticmethod
    def strip(request: QueryRequest) -> QueryRequest:
        """The equivalent static request (``departure_time`` removed)."""
        if request.departure_time is None:
            return request
        return dataclasses_replace(request, departure_time=None)

    def query(self, request: QueryRequest) -> Response:
        """Answer one departure-time request on its snapshot stack."""
        departure_time = request.departure_time
        if departure_time is None:
            raise QueryError("the temporal executor only serves departure-time requests")
        session = self.session_at(departure_time)
        inner = session.query(self.strip(request))
        # Re-carry the original (time-bearing) request; answer and I/O are
        # exactly what the snapshot session measured.
        return dataclasses_replace(inner, request=request)

    def sweep(self, request: SweepRequest) -> SweepResponse:
        """Answer one period sweep instant by instant, snapshot stacks reused.

        Per-instant answers mirror :func:`repro.timedep.queries.skyline_over_period`
        / :func:`~repro.timedep.queries.top_k_over_period` exactly: sorted
        facility ids for a skyline, rank order for a top-k.
        """
        start = time_module.perf_counter()
        results: list[TimedResult] = []
        io = AccessStatistics()
        for instant in request.times:
            session = self.session_at(instant)
            if isinstance(request, SkylineSweepRequest):
                response = session.query(
                    SkylineRequest(request.location, algorithm=request.algorithm)
                )
                ids = tuple(sorted(response.result.facility_ids()))
            elif isinstance(request, TopKSweepRequest):
                response = session.query(
                    TopKRequest(
                        request.location,
                        request.k,
                        weights=request.weights,
                        aggregate=request.aggregate,
                        algorithm=request.algorithm,
                    )
                )
                ids = tuple(response.result.facility_ids())
            else:
                raise QueryError(
                    f"expected a sweep request, got {type(request).__name__}"
                )
            io.accumulate(response.io)
            results.append(TimedResult(instant, ids))
        return SweepResponse(
            request=request,
            results=tuple(results),
            intervals=tuple(stable_intervals(results)),
            io=io,
            elapsed_seconds=time_module.perf_counter() - start,
            policy=self._policy,
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Tear down every cached snapshot stack (idempotent)."""
        entries, self._entries = self._entries, OrderedDict()
        for entry in entries.values():
            entry.session.close()
