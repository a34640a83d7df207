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

Every cached stack remembers the revisions of the base graph's costs, of
the live facility set and of the profile set at build time; a monitoring
tick that re-profiles an edge (:class:`~repro.monitor.EdgeCostUpdate`),
a mutation of the facility set or a
:meth:`~repro.timedep.TimeVaryingMCN.set_profile` call therefore
invalidates the stack on its next use — the executor closes it and opens a
new one over the current state, which is exactly the "fresh static session
over the profile-evaluated snapshot" the temporal differential oracle
pins.  The rebuild is the only staleness path: a stack is never patched in
place.  Where the new stack takes its costs from depends on what moved.
While the profiles stand and the base's bounded changelog still covers the
gap, the snapshot graph is
:meth:`~repro.network.graph.MultiCostGraph.recosted` from the stale
stack's own graph with ``cost_at`` re-evaluated for the edges ticked since
(none after a facility-only tick), and its compiled snapshot copies the
stale stack's cost lists and patches those edges only.  A key's first
build, an overflowed changelog and a moved profile set (whose profiled
edges may have grown) evaluate every profiled edge through
:meth:`~repro.timedep.TimeVaryingMCN.snapshot` and patch all of them.
Both use ``cost_at``, so the costs are bit-identical.  Either way the live
facility set is rebound to the new graph, and its session derives its
compiled snapshot from the base session's plan-free one, which lends it
the topology and the facility table: only a copy of the cost lists comes
from the stale stack, so a replaced stack keeps nothing alive.
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
from repro.network.compiled import CompiledGraph
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

    ``builds`` counts snapshot stacks opened, ``hits`` reuses of a warm
    cached stack, ``rebuilds`` the builds that replaced a stack because the
    base graph's costs, the facility set or the profile set moved
    underneath it (most re-costed from the stale stack, yet counted as one
    build and one rebuild), and ``evictions`` stacks dropped by the LRU
    bound.  A build that is neither a key's first nor a rebuild is a
    capacity miss: the LRU evicted that key earlier.  The default ``temporal_cache_size`` of 16
    holds a four-hour window at the default quarter-hour quantum, so a
    rush hour's departure keys stay cached and only ticks force builds.
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
    profiles_revision: int


class TemporalExecutor:
    """LRU of static snapshot stacks, keyed by quantised departure time.

    ``policy`` is the owning session's static policy (``temporal="off"``):
    every snapshot session runs under it, its ``temporal_quantum``
    quantises departure times and its ``temporal_cache_size`` bounds the
    LRU.  ``open_session(snapshot, facilities, recosted, costs)`` opens the
    static session over one snapshot: ``recosted`` names the profiled edges,
    or, when ``costs`` is the stale stack's compiled graph, the edges
    ticked since that stack was built.  The owning session passes its own,
    which derives the snapshot's compiled graph from the session's.
    """

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        network: TimeVaryingMCN,
        *,
        policy: ExecutionPolicy,
        open_session: Callable[
            [MultiCostGraph, FacilitySet, Sequence[EdgeId], CompiledGraph | None], Session
        ],
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
        network = self._network
        if (
            entry is not None
            and entry.facilities_revision == self._facilities.revision
            and entry.costs_revision == self._graph.costs_revision
            and entry.profiles_revision == network.revision
        ):
            self._entries.move_to_end(key)
            self._statistics.hits += 1
            return entry.session
        instant = self.quantise(departure_time)
        snapshot = costs = None
        recosted = network.profiled_edges
        if entry is not None:
            # Something moved underneath the snapshot: rebuild it.  Unless
            # the profiles moved, re-cost its own graph and copy its cost
            # lists, patching only the edges ticked since it was built.
            del self._entries[key]
            if entry.profiles_revision == network.revision:
                changed = self._graph.changed_edges_since(entry.costs_revision)
                if changed is not None:
                    stale = entry.session
                    snapshot = stale.graph.recosted(
                        {edge: network.cost_at(edge, instant) for edge in changed}
                    )
                    costs = stale.engine_for().compiled_graph
                    recosted = changed
            entry.session.close()
            self._statistics.rebuilds += 1
        if snapshot is None:
            snapshot = network.snapshot(instant)
        rebound = rebind_facilities(snapshot, self._facilities)
        session = self._open_session(snapshot, rebound, recosted, costs)
        self._entries[key] = _SnapshotEntry(
            session=session,
            facilities_revision=self._facilities.revision,
            costs_revision=self._graph.costs_revision,
            profiles_revision=network.revision,
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
