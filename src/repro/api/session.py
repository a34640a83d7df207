"""The unified execution facade: :class:`Session`.

The reproduction grew four entry points — :class:`~repro.MCNQueryEngine`
(one-shot), :class:`~repro.QueryService` (batched),
:class:`~repro.ShardedQueryService` (parallel) and
:class:`~repro.MonitoringService` (continuous) — each with its own
overlapping construction knobs.  A :class:`Session` owns the *dataset* (one
graph and one facility set, or one dataset pack) and hides all four stacks
behind three verbs:

* :meth:`Session.query` (plus the :meth:`skyline` / :meth:`top_k`
  convenience builders) — one request, one :class:`Response`;
* :meth:`Session.run_batch` — a request sequence, executed sequentially or
  sharded depending on the policy's ``workers``, one :class:`BatchResponse`;
* :meth:`Session.monitor` — long-lived subscriptions over the session's live
  facility set, returning a :class:`MonitorHandle` whose ticks yield
  :class:`TickResponse` envelopes.

All three accept the same request types
(:class:`~repro.service.SkylineRequest` / :class:`~repro.service.TopKRequest`).
The session's own :class:`~repro.api.policy.ExecutionPolicy` is the only
thing that shapes what it keeps: one data layer, one engine, one
:class:`~repro.QueryService` and one :class:`~repro.MonitoringService`,
each built lazily, plus one snapshot executor per registered profile set.
:meth:`Session.query`, :meth:`Session.run_batch` and :meth:`Session.sweep`
accept a per-call policy that may change only how that call runs
(``algorithm``, ``workers``, ``routing``, ``executor``, ``temporal``,
``profile_source``); :meth:`Session.check_policy` refuses any other change.

A session's data layer is one decision: a session opened on a dataset pack
always runs on that pack; every other session runs on what its policy's
``residency`` names — the in-memory accessor, or a simulated-disk
:class:`~repro.storage.NetworkStorage` shaped by ``page_size`` and
``buffer_fraction``.  Policy conflicts (a call policy changing a kept
field, a temporal policy on a pack) are rejected with
:class:`~repro.errors.PolicyError` when the policy is *resolved* — at
session construction or call entry — never mid-batch.

Example
-------
>>> from repro.api import ExecutionPolicy, Session
>>> from repro.datagen import WorkloadSpec, make_workload
>>> w = make_workload(WorkloadSpec(num_nodes=150, num_facilities=60, num_queries=2, seed=5))
>>> session = Session(w.graph, w.facilities)
>>> len(session.skyline(w.queries[0]).result) >= 1
True
>>> batch = session.run_batch(
...     [SkylineRequest(q) for q in w.queries],
...     policy=ExecutionPolicy(workers=2, executor="serial"),
... )
>>> len(batch)
2
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import time
import weakref
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.api.policy import DEFAULT_POLICY, ExecutionPolicy
from repro.api.stats import LatencyRecorder
from repro.core.aggregates import AggregateFunction
from repro.core.engine import MCNQueryEngine
from repro.core.maintenance import MaintenanceStatistics, SkylineMaintainer, TopKMaintainer
from repro.core.results import SkylineResult, TopKResult
from repro.errors import PolicyError, QueryError
from repro.network.accessor import AccessStatistics
from repro.network.compiled import CompiledGraph
from repro.network.facilities import FacilityId, FacilitySet
from repro.network.graph import EdgeId, MultiCostGraph
from repro.network.location import NetworkLocation
from repro.service.cache import CacheStatistics
from repro.service.requests import (
    QueryOutcome,
    QueryRequest,
    SkylineRequest,
    TopKRequest,
)
from repro.service.service import QueryService
from repro.storage.catalog import PackedNetworkStorage, open_dataset
from repro.storage.scheme import NetworkStorage

if TYPE_CHECKING:  # pragma: no cover - the executor is imported lazily
    from repro.temporal.executor import SweepResponse, TemporalExecutor
    from repro.temporal.requests import SweepRequest

__all__ = [
    "BatchResponse",
    "MonitorHandle",
    "Response",
    "Session",
    "TickResponse",
]

#: The policy fields a call may change: they pick how that one call runs.
#: Every other field shapes what the session keeps, so only the session's
#: own policy sets it.
_CALL_FIELDS = ("algorithm", "workers", "routing", "executor", "temporal", "profile_source")
_KEPT_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(ExecutionPolicy)
    if field.name not in _CALL_FIELDS
)


@dataclass(frozen=True)
class Response:
    """The uniform envelope of one executed query.

    Carries the answer (:class:`~repro.core.results.SkylineResult` or
    :class:`~repro.core.results.TopKResult`), the per-query I/O counter
    delta, the wall-clock latency and the *resolved* policy the query ran
    under — one shape regardless of which execution stack did the work.
    """

    request: QueryRequest
    result: SkylineResult | TopKResult
    io: AccessStatistics
    elapsed_seconds: float
    policy: ExecutionPolicy
    served_from_memo: bool = False
    ticket: int = 0

    @property
    def kind(self) -> str:
        """``"skyline"`` or ``"topk"``."""
        return "skyline" if isinstance(self.request, SkylineRequest) else "topk"

    def __len__(self) -> int:
        return len(self.result)

    def __iter__(self) -> Iterator:
        return iter(self.result)

    @classmethod
    def from_outcome(cls, outcome: QueryOutcome, policy: ExecutionPolicy) -> "Response":
        """Wrap a service-layer :class:`~repro.service.QueryOutcome`."""
        return cls(
            request=outcome.request,
            result=outcome.result,
            io=outcome.io,
            elapsed_seconds=outcome.elapsed_seconds,
            policy=policy,
            served_from_memo=outcome.served_from_memo,
            ticket=outcome.ticket,
        )


@dataclass(frozen=True)
class BatchResponse:
    """The uniform envelope of one executed batch.

    One shape for sequential and sharded runs: per-request
    :class:`Response` envelopes in submission order, the batch's summed I/O
    and cache counter deltas, and the resolved policy.  For a sharded run
    ``workers``/``routing``/``executor`` echo the policy, ``shard_sizes``
    records how the batch was partitioned and ``shard_io`` carries each
    shard's own counter delta (their sum equals :attr:`io`).
    """

    responses: tuple[Response, ...]
    elapsed_seconds: float
    io: AccessStatistics
    cache: CacheStatistics
    policy: ExecutionPolicy
    shard_sizes: tuple[int, ...] = ()
    shard_io: tuple[AccessStatistics, ...] = ()

    @property
    def workers(self) -> int:
        return self.policy.workers

    @property
    def sharded(self) -> bool:
        """Whether the batch ran through the sharded parallel service."""
        return bool(self.shard_sizes)

    @property
    def page_reads(self) -> int:
        return self.io.page_reads

    @property
    def memo_hits(self) -> int:
        return sum(1 for response in self.responses if response.served_from_memo)

    def throughput_qps(self) -> float:
        """Queries answered per wall-clock second (0.0 for an empty batch)."""
        if not self.responses or self.elapsed_seconds <= 0:
            return 0.0
        return len(self.responses) / self.elapsed_seconds

    def describe(self) -> dict[str, object]:
        """Summary dictionary (CLI / replay-driver friendly)."""
        summary: dict[str, object] = {
            "queries": len(self.responses),
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "throughput_qps": round(self.throughput_qps(), 1),
            "page_reads": self.io.page_reads,
            "buffer_hits": self.io.buffer_hits,
            "memo_hits": self.memo_hits,
            "cache_hit_rate": round(self.cache.hit_rate(), 4),
        }
        if self.sharded:
            summary.update(
                workers=self.policy.workers,
                routing=self.policy.routing,
                executor=self.policy.executor,
                shards=list(self.shard_sizes),
            )
        return summary

    def __len__(self) -> int:
        return len(self.responses)

    def __iter__(self) -> Iterator[Response]:
        return iter(self.responses)

    @classmethod
    def from_report(cls, report, policy: ExecutionPolicy) -> "BatchResponse":
        """Wrap a :class:`~repro.service.BatchReport` (sharded or not)."""
        shards = tuple(getattr(report, "shards", ()))
        return cls(
            responses=tuple(
                Response.from_outcome(outcome, policy) for outcome in report.outcomes
            ),
            elapsed_seconds=report.elapsed_seconds,
            io=report.io,
            cache=report.cache,
            policy=policy,
            shard_sizes=tuple(shard.size for shard in shards),
            shard_io=tuple(shard.report.io for shard in shards),
        )


@dataclass(frozen=True)
class TickResponse:
    """The uniform envelope of one applied monitoring tick.

    Mirrors :class:`~repro.monitor.TickReport` (per-subscription deltas,
    maintenance-path counters, I/O) with the resolved policy attached.
    """

    index: int
    updates: int
    deltas: tuple
    counters: MaintenanceStatistics
    fallback_subscriptions: tuple[int, ...]
    sharded: bool
    elapsed_seconds: float
    io: AccessStatistics
    policy: ExecutionPolicy

    @property
    def incremental_updates(self) -> int:
        return self.counters.incremental_updates

    @property
    def recomputations(self) -> int:
        return self.counters.recomputations

    @property
    def changed_subscriptions(self) -> tuple[int, ...]:
        return tuple(delta.subscription_id for delta in self.deltas if delta.changed)

    @classmethod
    def from_report(cls, report, policy: ExecutionPolicy) -> "TickResponse":
        """Wrap a :class:`~repro.monitor.TickReport`."""
        return cls(
            index=report.index,
            updates=report.updates,
            deltas=tuple(report.deltas),
            counters=report.counters,
            fallback_subscriptions=report.fallback_subscriptions,
            sharded=report.sharded,
            elapsed_seconds=report.elapsed_seconds,
            io=report.io,
            policy=policy,
        )


class MonitorHandle:
    """The subscriptions one :meth:`Session.monitor` call registered.

    A thin, policy-carrying view over the session's shared
    :class:`~repro.MonitoringService`: ticks applied through any handle
    advance *all* of the session's subscriptions (they share one live
    facility set); the handle's :attr:`subscription_ids` identify the
    subset this call created.  After every tick the handle calls
    ``session``'s :meth:`Session.invalidate_result_caches`, because the tick
    moved the facility set or the edge costs the session's result memo and
    cross-query cache were filled from.  It holds the session weakly: a
    handle kept past its session's end does not keep the session's graph,
    facility set and profile sets alive.
    """

    def __init__(
        self,
        service,
        subscription_ids: tuple[int, ...],
        policy: ExecutionPolicy,
        recorder: LatencyRecorder | None = None,
        *,
        session: "Session",
    ):
        self._service = service
        self._subscription_ids = subscription_ids
        self._policy = policy
        self._recorder = recorder
        self._session = weakref.ref(session)

    @property
    def service(self):
        """The underlying :class:`~repro.MonitoringService` (escape hatch).

        A tick applied on it directly leaves the session's caches as they
        were; call :meth:`Session.invalidate_result_caches` after it.
        """
        return self._service

    @property
    def subscription_ids(self) -> tuple[int, ...]:
        return self._subscription_ids

    @property
    def policy(self) -> ExecutionPolicy:
        return self._policy

    @property
    def statistics(self) -> MaintenanceStatistics:
        """The service's lifetime maintenance counters."""
        return self._service.statistics

    def tick(self, tick) -> TickResponse:
        """Apply one :class:`~repro.monitor.UpdateTick` atomically.

        The session's result memo and cross-query cache are dropped after it,
        and a disk session's pages with them (see
        :meth:`Session.invalidate_result_caches`).
        """
        response = TickResponse.from_report(self._service.apply_tick(tick), self._policy)
        session = self._session()
        if session is not None:
            session.invalidate_result_caches()
        if self._recorder is not None:
            self._recorder.observe("tick", response.elapsed_seconds)
        return response

    def run(self, stream) -> list[TickResponse]:
        """Apply a whole :class:`~repro.monitor.UpdateStream` tick by tick."""
        return [self.tick(tick) for tick in stream]

    def result_signature(self, subscription_id: int) -> dict[FacilityId, object]:
        """The subscription's current result as a comparable mapping."""
        return self._service.result_signature(subscription_id)

    def maintainer_of(self, subscription_id: int) -> SkylineMaintainer | TopKMaintainer:
        """The maintainer behind one subscription (current result + counters)."""
        return self._service.maintainer_of(subscription_id)

    def unsubscribe(self, subscription_id: int) -> None:
        """Drop one subscription from the underlying service."""
        self._service.unsubscribe(subscription_id)
        self._subscription_ids = tuple(
            sid for sid in self._subscription_ids if sid != subscription_id
        )


class Session:
    """One dataset, one object, one execution stack.

    The data layer picks the expansion: the session's engine, its monitor
    and its temporal snapshot sessions run the compiled kernel on one
    shared :class:`~repro.network.compiled.CompiledGraph` topology, and a
    session opened on a dataset pack runs the record-walking expansion.

    Parameters
    ----------
    graph:
        The multi-cost network.
    facilities:
        The facility set over ``graph``.  Monitoring mutates it in place.
    policy:
        The session's :class:`~repro.api.policy.ExecutionPolicy`.  It alone
        shapes the data layer (without ``dataset_path`` its ``residency``
        picks it), the engine, the batch service, the monitor and the
        snapshot LRUs; a per-call policy may change only ``algorithm``,
        ``workers``, ``routing``, ``executor``, ``temporal`` and
        ``profile_source`` (see :meth:`check_policy`).
    dataset_path:
        Open the session directly over a file-backed dataset pack (mutually
        exclusive with ``graph``/``facilities``).  The graph and facility
        set are then read-only ``mmap``-backed views of the pack, and every
        query runs through the pack's storage, whose buffer the session
        policy's ``buffer_fraction`` sizes; the policy's ``residency`` and
        page knobs do not apply.  A pack has no in-memory topology to
        compile, so a pack session runs the record path, and
        :meth:`monitor` is rejected.
    verify_checksum:
        Whether opening ``dataset_path`` verifies the pack's SHA-256
        (default ``True``).
    profiles:
        Named time-profile sets (``{name: TimeVaryingMCN}``) the temporal
        subsystem can evaluate.  A policy with ``temporal="profiles"``
        names one of them via ``profile_source``; the session then answers
        ``departure_time``-bearing requests (and :meth:`sweep` calls) over
        profile-evaluated snapshots.  Every set must be built over this
        session's graph.
    """

    def __init__(
        self,
        graph: MultiCostGraph | None = None,
        facilities: FacilitySet | None = None,
        *,
        policy: ExecutionPolicy | None = None,
        dataset_path: str | None = None,
        verify_checksum: bool = True,
        profiles: dict[str, object] | None = None,
    ):
        self._policy = self._coerce_policy(policy)
        self._pack: PackedNetworkStorage | None = None
        if dataset_path is not None:
            if graph is not None or facilities is not None:
                raise PolicyError(
                    "dataset_path fixes the session's data layer; do not also "
                    "pass graph/facilities — open the pack alone, or keep the "
                    "in-memory workload and pick its residency by policy"
                )
            dataset = open_dataset(dataset_path, verify_checksum=verify_checksum)
            self._pack = dataset.storage(buffer_fraction=self._policy.buffer_fraction)
            graph = self._pack.graph
            facilities = self._pack.facilities
        elif graph is None or facilities is None:
            raise QueryError(
                "a Session needs either a graph and its facility set, or a "
                "dataset_path naming a dataset pack"
            )
        if facilities.graph is not graph:
            raise QueryError("facility set was built for a different graph")
        self._graph = graph
        self._facilities = facilities
        self._profiles = self._coerce_profiles(graph, profiles)
        self._check_temporal(self._policy)
        # The one stack, built lazily from the session's policy; the
        # snapshot executors are keyed on the registered profile names.
        self._storage: NetworkStorage | None = self._pack
        self._engine: MCNQueryEngine | None = None
        # The plan-free compiled snapshot the monitor and the temporal
        # snapshots share (see _compiled_graph).
        self._plan_free: CompiledGraph | None = None
        self._service: QueryService | None = None
        self._monitor = None
        self._temporal: dict[str, TemporalExecutor] = {}
        self._latency = LatencyRecorder()
        self._closed = False
        #: Optional callable invoked with the verb name (``"query"`` /
        #: ``"batch"`` / ``"monitor"``) at every verb entry.  The serving
        #: tier's fault plane uses it to make a session verb fail on demand;
        #: it is ``None`` (and free) in normal operation.
        self.fault_hook: Callable[[str], None] | None = None
        # Computed eagerly: ticks mutate the facility set in place, and the
        # fingerprint must describe the *pristine* workload a journal was
        # opened against.
        self._fingerprint = self._compute_fingerprint()

    @classmethod
    def from_dataset(
        cls,
        path: str,
        *,
        policy: ExecutionPolicy | None = None,
        verify_checksum: bool = True,
    ) -> "Session":
        """Open a read-only session over a dataset pack (see ``dataset_path``)."""
        return cls(dataset_path=path, policy=policy, verify_checksum=verify_checksum)

    @staticmethod
    def _coerce_profiles(graph: MultiCostGraph, profiles: dict[str, object] | None) -> dict:
        if not profiles:
            return {}
        from repro.timedep.network import TimeVaryingMCN

        coerced = {}
        for name, network in profiles.items():
            if not isinstance(name, str) or not name:
                raise PolicyError(
                    f"profile-set names must be non-empty strings, got {name!r}"
                )
            if not isinstance(network, TimeVaryingMCN):
                raise PolicyError(
                    f"profile set {name!r} must be a TimeVaryingMCN, got "
                    f"{type(network).__name__}"
                )
            if network.base_graph is not graph:
                raise PolicyError(
                    f"profile set {name!r} was built over a different base "
                    "graph than the session's"
                )
            coerced[name] = network
        return coerced

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> MultiCostGraph:
        return self._graph

    @property
    def facilities(self) -> FacilitySet:
        """The session's live facility set (mutated by monitoring ticks)."""
        return self._facilities

    @property
    def policy(self) -> ExecutionPolicy:
        """The session's execution policy (it shapes everything the session keeps)."""
        return self._policy

    @property
    def profile_names(self) -> tuple[str, ...]:
        """The registered time-profile sets a temporal policy may name."""
        return tuple(sorted(self._profiles))

    def dataset_fingerprint(self) -> str:
        """A stable identifier of the workload this session serves.

        Dataset-backed sessions use the pack checksum; in-memory sessions
        hash the pristine workload shape.  The serving tier's batch-job
        journal records this at open time and refuses to recover against a
        different dataset (:class:`~repro.errors.JournalMismatchError`).
        """
        return self._fingerprint

    def _compute_fingerprint(self) -> str:
        if self._pack is not None:
            return "pack:" + self._pack.catalog.checksum
        shape = (
            f"{self._graph.num_nodes}:{self._graph.num_edges}:"
            f"{self._graph.num_cost_types}:{len(self._facilities)}"
        )
        return "shape:" + hashlib.sha256(shape.encode("ascii")).hexdigest()

    @property
    def latency(self) -> LatencyRecorder:
        """Rolling latency percentiles per verb (``query`` / ``batch`` / ``tick``).

        Always on and O(1) per call: a bounded window for the exact recent
        percentiles plus lifetime P² tail estimates — the structure the
        serving tier's ``/v1/metrics`` endpoint exposes.
        """
        return self._latency

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Tear down the session's stack deterministically (idempotent).

        Closes the monitoring service (folding its counters) and every
        snapshot executor, drops the batch service's cross-query cache and
        result memo, and releases the engine and the storage.  After
        ``close`` every execution verb raises
        :class:`~repro.errors.QueryError` — the serving tier (and tests)
        rely on this to never leak pooled state between cases.  Latency
        statistics survive, so a shutdown hook can still report.
        """
        if self._closed:
            return
        self._closed = True
        monitor, self._monitor = self._monitor, None
        if monitor is not None:
            monitor.close()
        temporal, self._temporal = self._temporal, {}
        for executor in temporal.values():
            executor.close()
        service, self._service = self._service, None
        if service is not None:
            service.reset_cache()
        self._engine = None
        self._plan_free = None
        self._storage = None
        pack, self._pack = self._pack, None
        if pack is not None:
            pack.disk.close()

    def __enter__(self) -> "Session":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def invalidate_result_caches(self) -> int:
        """Drop the batch service's cross-query cache and result memo.

        The caches memoise adjacency lists, facility placements and whole
        results, so they must be invalidated whenever the session's
        facility set or edge costs mutate *outside* the service's view.
        :meth:`MonitorHandle.tick` calls this after every tick.  Returns the
        number of services invalidated (0 before the first query, 1 after).
        A memory session's engine stays warm (a compiled graph refreshes
        itself via the revision changelogs).  A ``residency="disk"``
        session's pages and page-planned snapshot hold the network as it
        was bulk-loaded, so it drops its storage and engine too and keeps
        the plan-free snapshot: its next query bulk-loads the live network,
        derives the engine's snapshot from the plan-free one and replaces
        the service, whose engine is no longer the session's.
        """
        self._ensure_open()
        if self._policy.residency == "disk" and self._pack is None:
            self._storage = self._engine = None
        if self._service is None:
            return 0
        self._service.reset_cache()
        return 1

    def _ensure_open(self) -> None:
        if self._closed:
            raise QueryError(
                "this Session is closed; build a new Session (close() tears "
                "down the engine, the service and the monitoring stack)"
            )

    def storage_for(self) -> NetworkStorage | None:
        """The storage this session reads (``None`` for the in-memory layer).

        A pack session always answers with its pack's storage.  A
        ``residency="disk"`` session builds its storage, shaped by the
        policy's ``page_size`` and ``buffer_fraction``, the first time it
        is needed.
        """
        self._ensure_open()
        if self._storage is None and self._policy.residency == "disk":
            self._storage = NetworkStorage.build(
                self._graph,
                self._facilities,
                page_size=self._policy.page_size,
                buffer_fraction=self._policy.buffer_fraction,
            )
        return self._storage

    def engine_for(self) -> MCNQueryEngine:
        """The session's engine, built on first use.

        The data layer picks the expansion: the engine runs the kernel on a
        :class:`~repro.network.compiled.CompiledGraph` of its memory or disk
        layer, and the record path on a pack, which has no in-memory
        topology to compile.  The monitor and every temporal snapshot
        session share the engine's topology.
        """
        self._ensure_open()
        if self._engine is None:
            storage = self.storage_for()  # None for memory
            compiled = None
            if self._plan_free is not None:
                # A disk session's monitor or snapshots compiled first: the
                # engine's planned snapshot shares their topology.
                compiled = self._plan_free.derive(
                    self._graph, self._facilities, storage=storage
                )
            self._engine = MCNQueryEngine(
                self._graph, self._facilities, accessor=storage, compiled=compiled
            )
        return self._engine

    # ------------------------------------------------------------------ #
    # One-shot execution
    # ------------------------------------------------------------------ #
    def query(self, request: QueryRequest, *, policy: ExecutionPolicy | None = None) -> Response:
        """Execute one request and return its :class:`Response` envelope.

        The request runs through the session's batch service, so repeated
        calls share the cross-query expansion cache and — when the policy
        enables it — the result memo.  A request carrying a
        ``departure_time`` requires ``temporal="profiles"`` and runs on the
        (cached) snapshot stack of that time instead.
        """
        if self.fault_hook is not None:
            self.fault_hook("query")
        resolved = self._resolve(policy)
        if getattr(request, "departure_time", None) is not None:
            response = self._temporal_for(resolved).query(request)
            response = dataclasses.replace(response, policy=resolved)
        else:
            outcome = self._service_for().execute(request)
            response = Response.from_outcome(outcome, resolved)
        self._latency.observe("query", response.elapsed_seconds)
        return response

    def skyline(
        self, location: NetworkLocation, *, policy: ExecutionPolicy | None = None
    ) -> Response:
        """Convenience: a skyline request at ``location`` under the policy's algorithm."""
        resolved = self._resolve(policy)
        return self.query(
            SkylineRequest(location, algorithm=resolved.algorithm), policy=resolved
        )

    def top_k(
        self,
        location: NetworkLocation,
        k: int,
        *,
        weights: Sequence[float] | None = None,
        aggregate: AggregateFunction | None = None,
        policy: ExecutionPolicy | None = None,
    ) -> Response:
        """Convenience: a top-``k`` request at ``location`` under the policy's algorithm."""
        resolved = self._resolve(policy)
        request = TopKRequest(
            location,
            k,
            weights=tuple(float(w) for w in weights) if weights is not None else None,
            aggregate=aggregate,
            algorithm=resolved.algorithm,
        )
        return self.query(request, policy=resolved)

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        requests: Sequence[QueryRequest],
        *,
        policy: ExecutionPolicy | None = None,
    ) -> BatchResponse:
        """Execute ``requests`` under the resolved policy.

        The batch runs through the session's :class:`~repro.QueryService`:
        sequentially with ``workers == 1``, sharded across a
        :class:`~repro.ShardedQueryService` built for this batch with
        ``workers > 1``.  Either way the answers, their order and the summed
        counters are identical to the corresponding direct-service run.

        Requests carrying a ``departure_time`` (requires
        ``temporal="profiles"``) run on their snapshot stacks; see
        :meth:`_run_temporal_batch` for how a mixed batch is split.
        """
        if self.fault_hook is not None:
            self.fault_hook("batch")
        resolved = self._resolve(policy)
        if any(getattr(request, "departure_time", None) is not None for request in requests):
            response = self._run_temporal_batch(requests, resolved)
        else:
            report = self._service_for().run_batch(requests, policy=resolved)
            response = BatchResponse.from_report(report, resolved)
        self._latency.observe("batch", response.elapsed_seconds)
        return response

    def _run_temporal_batch(
        self, requests: Sequence[QueryRequest], resolved: ExecutionPolicy
    ) -> BatchResponse:
        """Run a (possibly mixed) temporal batch in one pass.

        Consecutive requests that share a snapshot key form one run: static
        requests (key ``None``) go through the session's own service,
        departure-time requests through the snapshot session of their
        quantised time in one call, so a run shares that snapshot's caches
        exactly as a fresh static session running it would.  Runs execute in
        submission order, and the envelope sums their counters (shard
        accounting is omitted).
        """
        executor = self._temporal_for(resolved)
        snapshot_policy = self._static_policy(resolved)

        def snapshot_key(request: QueryRequest) -> int | None:
            departure_time = getattr(request, "departure_time", None)
            return None if departure_time is None else executor.key(departure_time)

        start = time.perf_counter()
        responses: list[Response] = []
        io = AccessStatistics()
        cache = CacheStatistics()
        for key, group in itertools.groupby(requests, key=snapshot_key):
            run = list(group)
            if key is None:
                batch = BatchResponse.from_report(self._service_for().run_batch(run), resolved)
                responses.extend(batch.responses)
            else:
                batch = executor.session_at(run[0].departure_time).run_batch(
                    [executor.strip(request) for request in run], policy=snapshot_policy
                )
                # Re-carry the original (time-bearing) requests; answers and
                # I/O are exactly what the snapshot session measured.
                responses.extend(
                    dataclasses.replace(inner, request=original, policy=resolved)
                    for original, inner in zip(run, batch.responses)
                )
            io.accumulate(batch.io)
            cache.accumulate(batch.cache)
        return BatchResponse(
            responses=tuple(responses),
            elapsed_seconds=time.perf_counter() - start,
            io=io,
            cache=cache,
            policy=resolved,
        )

    # ------------------------------------------------------------------ #
    # Period sweeps (temporal subsystem)
    # ------------------------------------------------------------------ #
    def sweep(
        self, request: SweepRequest, *, policy: ExecutionPolicy | None = None
    ) -> SweepResponse:
        """Execute one period sweep and return its :class:`~repro.temporal.SweepResponse`.

        ``request`` is a :class:`~repro.temporal.SkylineSweepRequest` or
        :class:`~repro.temporal.TopKSweepRequest`; the resolved policy must
        enable ``temporal="profiles"``.  Every sampled instant is answered
        over its (cached) snapshot stack, and the per-instant answers are
        grouped into the paper's stable intervals.
        """
        if self.fault_hook is not None:
            self.fault_hook("query")
        resolved = self._resolve(policy)
        response = self._temporal_for(resolved).sweep(request)
        self._latency.observe("query", response.elapsed_seconds)
        return dataclasses.replace(response, policy=resolved)

    # ------------------------------------------------------------------ #
    # Continuous monitoring
    # ------------------------------------------------------------------ #
    def monitor(self, requests: Sequence[QueryRequest]) -> MonitorHandle:
        """Register long-lived subscriptions and return their :class:`MonitorHandle`.

        Every call registers on the session's one
        :class:`~repro.MonitoringService`, built from the session's policy
        on first use.  Monitoring always runs on the in-memory layer over the
        session's *live* facility set (the policy's ``residency`` / page
        knobs do not apply); ``workers``/``routing``/``executor`` and
        ``shard_fallback_threshold`` configure it.  The monitor runs the
        kernel on the session engine's
        :class:`~repro.network.compiled.CompiledGraph` (a disk-resident
        session's on a plan-free snapshot over the same topology), so the
        session holds one copy of the topology.
        """
        if self.fault_hook is not None:
            self.fault_hook("monitor")
        self._ensure_open()
        if self._pack is not None:
            raise PolicyError(
                "a dataset-backed session is read-only: monitoring mutates the "
                "facility set in place, and a pack's facility view cannot be "
                "mutated; rebuild the workload in memory (a graph-backed "
                "Session) to monitor it"
            )
        if self._monitor is None:
            from repro.monitor.service import MonitoringService

            self._monitor = MonitoringService(
                self._graph,
                self._facilities,
                policy=self._policy.replace(residency="memory"),
                compiled_graph=self._compiled_graph(),
            )
        subscription_ids = tuple(self._monitor.subscribe(request) for request in requests)
        return MonitorHandle(
            self._monitor,
            subscription_ids,
            self._policy,
            self._latency,
            session=self,
        )

    # ------------------------------------------------------------------ #
    # Policy resolution
    # ------------------------------------------------------------------ #
    def check_policy(self, policy: ExecutionPolicy) -> None:
        """Refuse a call policy this session cannot run as given.

        A call policy may differ from the session's only in the fields that
        pick how one call runs: ``algorithm``, ``workers``, ``routing``,
        ``executor``, ``temporal`` and ``profile_source``.  Any other field
        shapes what the session keeps, so changing it raises
        :class:`~repro.errors.PolicyError` naming each changed field with
        both values.  A temporal policy must also name a registered profile
        set, and a pack session refuses it.  Every verb runs this check
        before it builds anything; the serving tier runs it when it decodes
        a wire policy.
        """
        policy = self._coerce_policy(policy)
        kept = self._policy
        changed = [
            f"{name}={getattr(policy, name)!r} (session: {getattr(kept, name)!r})"
            for name in _KEPT_FIELDS
            if getattr(policy, name) != getattr(kept, name)
        ]
        if changed:
            raise PolicyError(
                "a call policy may change only how the call runs ("
                + ", ".join(_CALL_FIELDS)
                + "), not what the session keeps: "
                + ", ".join(changed)
                + "; open a Session with that policy instead"
            )
        self._check_temporal(policy)

    @staticmethod
    def _coerce_policy(policy: ExecutionPolicy | None) -> ExecutionPolicy:
        if policy is None:
            return DEFAULT_POLICY
        if not isinstance(policy, ExecutionPolicy):
            raise PolicyError(
                f"expected an ExecutionPolicy, got {type(policy).__name__} "
                "(build one with repro.api.ExecutionPolicy(...))"
            )
        return policy

    def _resolve(self, policy: ExecutionPolicy | None) -> ExecutionPolicy:
        self._ensure_open()
        if policy is None or policy is self._policy:
            return self._policy
        self.check_policy(policy)
        return policy

    def _check_temporal(self, policy: ExecutionPolicy) -> None:
        """Reject temporal policies this session has no profiles for."""
        if policy.temporal != "profiles":
            return
        if self._pack is not None:
            raise PolicyError(
                "temporal='profiles' needs an in-memory base graph to "
                "evaluate profiles over; a pack-backed session is "
                "read-only — open the workload as a graph-backed Session"
            )
        if policy.profile_source not in self._profiles:
            registered = ", ".join(sorted(self._profiles)) or "none registered"
            raise PolicyError(
                f"unknown profile_source {policy.profile_source!r}; this "
                f"session's profile sets: {registered} (register them via "
                "Session(profiles={name: TimeVaryingMCN(...)}))"
            )

    @staticmethod
    def _static_policy(policy: ExecutionPolicy) -> ExecutionPolicy:
        """The equivalent static policy a snapshot stack executes under."""
        return policy.replace(temporal="off", profile_source=None)

    def _temporal_for(self, policy: ExecutionPolicy) -> TemporalExecutor:
        """The snapshot executor of the resolved policy's profile set."""
        if policy.temporal != "profiles":
            raise PolicyError(
                "this request needs the temporal subsystem (it carries a "
                "departure_time or is a period sweep), but the resolved "
                "policy has temporal='off'; use "
                "ExecutionPolicy(temporal='profiles', profile_source=<name>) "
                "with a profile set registered on the Session"
            )
        source = policy.profile_source
        if source not in self._temporal:
            from repro.temporal.executor import TemporalExecutor

            self._temporal[source] = TemporalExecutor(
                self._graph,
                self._facilities,
                self._profiles[source],
                policy=self._static_policy(self._policy),
                open_session=self._open_snapshot,
            )
        return self._temporal[source]

    def _compiled_graph(self) -> CompiledGraph | None:
        """The plan-free snapshot the monitor and temporal snapshots share.

        A memory session's is its engine's.  A disk session's is a
        plan-free twin of its engine's or, while it has no engine, one
        compiled straight from the graph, so a session that only monitors
        or only answers departure-time requests never bulk-loads its own
        storage; the engine derives from it when built.  A pack session
        never asks: it refuses monitoring and temporal policies.
        """
        if self._plan_free is None:
            if self._engine is None and self._policy.residency == "disk":
                self._plan_free = CompiledGraph(self._graph, self._facilities)
            else:
                compiled = self.engine_for().compiled_graph
                if compiled is not None and compiled.has_page_plans:
                    compiled = compiled.derive(self._graph, self._facilities)
                self._plan_free = compiled
        return self._plan_free

    def _open_snapshot(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        recosted: Sequence[EdgeId],
        costs: CompiledGraph | None,
    ) -> Session:
        """A static session over a temporal snapshot of this session's graph.

        ``graph`` is :meth:`~repro.network.graph.MultiCostGraph.recosted`
        from this session's graph or from an earlier snapshot of it, so it
        shares this graph's topology, and ``facilities`` rebinds this
        session's set to it.  ``recosted`` names the edges whose costs may
        differ from this graph's or, when ``costs`` (the earlier
        snapshot's compiled graph) is given, from the earlier snapshot's.
        The snapshot session's engine runs on a snapshot
        :meth:`~repro.network.compiled.CompiledGraph.derive` builds from this
        session's: its topology and facility table, and its own cost lists,
        copied from ``costs`` when given.
        """
        session = Session(graph, facilities, policy=self._static_policy(self._policy))
        storage = session.storage_for()
        session._engine = MCNQueryEngine(
            graph,
            facilities,
            accessor=storage,
            compiled=self._compiled_graph().derive(
                graph, facilities, recosted=recosted, storage=storage, costs=costs
            ),
        )
        return session

    def _service_for(self) -> QueryService:
        engine = self.engine_for()
        if self._service is None or self._service.engine is not engine:
            self._service = QueryService(engine, policy=self._policy.replace(workers=1))
        return self._service
