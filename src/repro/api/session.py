"""The unified execution facade: :class:`Session`.

The reproduction grew four entry points — :class:`~repro.MCNQueryEngine`
(one-shot), :class:`~repro.QueryService` (batched),
:class:`~repro.ShardedQueryService` (parallel) and
:class:`~repro.MonitoringService` (continuous) — each with its own
overlapping construction knobs.  A :class:`Session` owns the *dataset* (one
graph, one facility set, optionally a pre-built storage or accessor) and
hides all four stacks behind three verbs:

* :meth:`Session.query` (plus the :meth:`skyline` / :meth:`top_k`
  convenience builders) — one request, one :class:`Response`;
* :meth:`Session.run_batch` — a request sequence, executed sequentially or
  sharded depending on the policy's ``workers``, one :class:`BatchResponse`;
* :meth:`Session.monitor` — long-lived subscriptions over the session's live
  facility set, returning a :class:`MonitorHandle` whose ticks yield
  :class:`TickResponse` envelopes.

All three accept the same request types
(:class:`~repro.service.SkylineRequest` / :class:`~repro.service.TopKRequest`)
and an optional per-call :class:`~repro.api.policy.ExecutionPolicy` override.
Engines, storages, compiled graphs, cross-query caches and shard pools are
constructed lazily and cached per resolved policy, so repeated calls with
the same configuration reuse one warm stack.

Policy/dataset conflicts (e.g. a parallel policy over an accessor that
cannot be snapshotted) are rejected with
:class:`~repro.errors.PolicyError` when the policy is *resolved* — at
session construction or call entry — never mid-batch.

Note that monitoring mutates the session's facility set: engines built for
``residency="disk"`` snapshot the set at build time and keep answering over
that snapshot, exactly as a directly-constructed
:class:`~repro.storage.NetworkStorage` would.

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
from repro.network.accessor import AccessStatistics, GraphAccessor
from repro.network.facilities import FacilityId, FacilitySet
from repro.network.graph import MultiCostGraph
from repro.network.location import NetworkLocation
from repro.service.cache import CacheStatistics
from repro.service.requests import (
    QueryOutcome,
    QueryRequest,
    SkylineRequest,
    TopKRequest,
)
from repro.service.service import QueryService
from repro.storage.catalog import PackedDataset, PackedNetworkStorage, open_dataset
from repro.storage.scheme import NetworkStorage

if TYPE_CHECKING:  # pragma: no cover - the executor is imported lazily
    from repro.temporal.executor import SweepResponse
    from repro.temporal.requests import SweepRequest

__all__ = [
    "BatchResponse",
    "MonitorHandle",
    "Response",
    "Session",
    "TickResponse",
]


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
    subset this call created.
    """

    def __init__(
        self,
        service,
        subscription_ids: tuple[int, ...],
        policy: ExecutionPolicy,
        recorder: LatencyRecorder | None = None,
    ):
        self._service = service
        self._subscription_ids = subscription_ids
        self._policy = policy
        self._recorder = recorder

    @property
    def service(self):
        """The underlying :class:`~repro.MonitoringService` (escape hatch)."""
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
        """Apply one :class:`~repro.monitor.UpdateTick` atomically."""
        response = TickResponse.from_report(self._service.apply_tick(tick), self._policy)
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
    """One dataset, one object, every execution stack.

    Parameters
    ----------
    graph:
        The multi-cost network.
    facilities:
        The facility set over ``graph``.  Monitoring mutates it in place.
    storage:
        Optional pre-built :class:`~repro.storage.NetworkStorage`; it backs
        every ``residency="disk"`` policy regardless of the policy's page
        knobs (the knobs only shape storages the session builds itself).
    accessor:
        Optional explicit :class:`~repro.network.accessor.GraphAccessor`
        that fixes the data layer outright (mutually exclusive with
        ``storage``).  A parallel policy then requires the accessor to
        support ``snapshot_view`` — checked when the policy resolves, not
        mid-batch.
    policy:
        The session's default :class:`~repro.api.policy.ExecutionPolicy`;
        every call accepts a per-call override.
    dataset_path:
        Open the session directly over a file-backed dataset pack (mutually
        exclusive with ``graph``/``facilities``/``storage``/``accessor``).
        The graph and facility set are then read-only ``mmap``-backed views
        of the pack: every query runs through the packed accessor, the
        compiled fast path is off (it needs the in-memory topology) and
        :meth:`monitor` is rejected.  To keep the fast path, build the
        workload in memory and attach the pack via
        ``ExecutionPolicy(residency="dataset", dataset_path=...)`` instead.
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
        storage: NetworkStorage | None = None,
        accessor: GraphAccessor | None = None,
        policy: ExecutionPolicy | None = None,
        dataset_path: str | None = None,
        verify_checksum: bool = True,
        profiles: dict[str, object] | None = None,
    ):
        if storage is not None and accessor is not None:
            raise PolicyError(
                "pass either a pre-built storage or an explicit accessor, not "
                "both — they each fix the session's data layer"
            )
        self._datasets: dict[str, PackedDataset] = {}
        self._dataset_storages: dict[tuple[str, float], PackedNetworkStorage] = {}
        self._dataset_path: str | None = None
        if dataset_path is not None:
            if graph is not None or facilities is not None or storage is not None or accessor is not None:
                raise PolicyError(
                    "dataset_path fixes the session's data layer; do not also "
                    "pass graph/facilities/storage/accessor — either open the "
                    "pack alone, or keep the in-memory workload and attach the "
                    "pack via ExecutionPolicy(residency='dataset', "
                    "dataset_path=...)"
                )
            coerced = self._coerce_policy(policy)
            dataset = self._open_dataset(dataset_path, verify_checksum=verify_checksum)
            packed = dataset.storage(buffer_fraction=coerced.buffer_fraction)
            self._dataset_storages[(dataset_path, float(coerced.buffer_fraction))] = packed
            self._dataset_path = dataset_path
            graph = packed.graph
            facilities = packed.facilities
            accessor = packed
        elif graph is None or facilities is None:
            raise QueryError(
                "a Session needs either a graph and its facility set, or a "
                "dataset_path naming a dataset pack"
            )
        if facilities.graph is not graph:
            raise QueryError("facility set was built for a different graph")
        self._graph = graph
        self._facilities = facilities
        self._explicit_storage = storage
        self._explicit_accessor = accessor
        self._profiles = self._coerce_profiles(graph, profiles)
        self._temporal: dict[tuple, object] = {}
        self._default_policy = self._coerce_policy(policy)
        self._check_policy(self._default_policy)
        self._storages: dict[tuple[int, float], NetworkStorage] = {}
        self._engines: dict[tuple, MCNQueryEngine] = {}
        self._services: dict[tuple, QueryService] = {}
        self._sharded: dict[tuple, object] = {}
        self._monitor = None
        self._monitor_key: tuple | None = None
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
        """The session's default execution policy."""
        return self._default_policy

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
        if self._dataset_path is not None:
            return "pack:" + self._datasets[self._dataset_path].catalog.checksum
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
        """Tear down every cached stack deterministically (idempotent).

        Closes the monitoring service (folding its counters), drops the
        cross-query caches and result memos of every cached
        :class:`~repro.QueryService`, and releases the cached engines,
        sharded services and storages.  After ``close`` every execution
        verb raises :class:`~repro.errors.QueryError` — the serving tier
        (and tests) rely on this to never leak pooled state between cases.
        Latency statistics survive, so a shutdown hook can still report.
        """
        if self._closed:
            return
        self._closed = True
        monitor, self._monitor = self._monitor, None
        self._monitor_key = None
        if monitor is not None:
            monitor.close()
        temporal, self._temporal = self._temporal, {}
        for executor in temporal.values():
            executor.close()
        for service in self._services.values():
            service.reset_cache()
        self._services.clear()
        self._sharded.clear()
        self._engines.clear()
        self._storages.clear()
        self._dataset_storages.clear()
        datasets, self._datasets = self._datasets, {}
        for dataset in datasets.values():
            dataset.close()

    def __enter__(self) -> "Session":
        self._ensure_open()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def invalidate_result_caches(self) -> int:
        """Drop every cached service's cross-query cache and result memo.

        The caches memoise facility placements and whole results, so they
        must be invalidated whenever the session's facility set mutates
        *outside* a cached service's view — exactly what a serving-tier
        PATCH tick does.  Returns the number of services invalidated.
        Engines stay warm (compiled graphs refresh themselves via the
        facility-set revision changelog).
        """
        self._ensure_open()
        for service in self._services.values():
            service.reset_cache()
        return len(self._services)

    def _ensure_open(self) -> None:
        if self._closed:
            raise QueryError(
                "this Session is closed; build a new Session (close() tears "
                "down cached engines, services and the monitoring stack)"
            )

    def storage_for(self, policy: ExecutionPolicy | None = None) -> NetworkStorage | None:
        """The disk storage the resolved policy runs against (``None`` for memory).

        Built lazily (and cached per ``page_size``/``buffer_fraction``) the
        first time a disk policy needs it.
        """
        resolved = self._resolve(policy)
        if self._explicit_accessor is not None:
            accessor = self._explicit_accessor
            return accessor if isinstance(accessor, NetworkStorage) else None
        if resolved.residency != "disk":
            return None
        if self._explicit_storage is not None:
            return self._explicit_storage
        key = (resolved.page_size, float(resolved.buffer_fraction))
        if key not in self._storages:
            self._storages[key] = NetworkStorage.build(
                self._graph,
                self._facilities,
                page_size=resolved.page_size,
                buffer_fraction=resolved.buffer_fraction,
            )
        return self._storages[key]

    def _open_dataset(self, path: str, *, verify_checksum: bool = True) -> PackedDataset:
        if path not in self._datasets:
            self._datasets[path] = open_dataset(path, verify_checksum=verify_checksum)
        return self._datasets[path]

    def dataset_storage_for(
        self, policy: ExecutionPolicy | None = None
    ) -> PackedNetworkStorage | None:
        """The packed accessor a ``residency="dataset"`` policy runs against.

        ``None`` for other residencies.  For a graph-backed session the pack
        is opened lazily (and cached per path/buffer size) with the session's
        live graph and facility set attached, after checking that the pack's
        shape matches them — so answers stay validated against the in-memory
        structures and the compiled fast path keeps working, while every page
        fetch goes through the ``mmap``-backed file.
        """
        resolved = self._resolve(policy)
        if resolved.residency != "dataset":
            return None
        if self._dataset_path is not None:
            return self._explicit_accessor  # the session-owning pack accessor
        key = (resolved.dataset_path, float(resolved.buffer_fraction))
        if key not in self._dataset_storages:
            dataset = self._open_dataset(resolved.dataset_path)
            catalog = dataset.catalog
            mismatches = [
                f"{name}: pack has {packed}, session has {live}"
                for name, packed, live in (
                    ("num_nodes", catalog.num_nodes, self._graph.num_nodes),
                    ("num_edges", catalog.num_edges, self._graph.num_edges),
                    ("num_cost_types", catalog.num_cost_types, self._graph.num_cost_types),
                    ("num_facilities", catalog.num_facilities, len(self._facilities)),
                )
                if packed != live
            ]
            if mismatches:
                raise PolicyError(
                    f"dataset pack {resolved.dataset_path!r} does not match "
                    "the session's workload (" + "; ".join(mismatches) + "); "
                    "rebuild the pack from this graph or open it standalone "
                    "with Session(dataset_path=...)"
                )
            self._dataset_storages[key] = dataset.storage(
                buffer_fraction=resolved.buffer_fraction,
                graph=self._graph,
                facilities=self._facilities,
            )
        return self._dataset_storages[key]

    def engine_for(self, policy: ExecutionPolicy | None = None) -> MCNQueryEngine:
        """The (cached) engine the resolved policy executes on."""
        resolved = self._resolve(policy)
        key = self._engine_key(resolved)
        if key not in self._engines:
            compiled = self._resolved_compiled(resolved)
            if resolved.residency == "dataset" and self._dataset_path is None:
                accessor = self.dataset_storage_for(resolved)
            elif self._explicit_accessor is not None:
                accessor = self._explicit_accessor
            else:
                accessor = self.storage_for(resolved)  # None for memory
            self._engines[key] = MCNQueryEngine(
                self._graph,
                self._facilities,
                accessor=accessor,
                compiled=compiled,
            )
        return self._engines[key]

    # ------------------------------------------------------------------ #
    # One-shot execution
    # ------------------------------------------------------------------ #
    def query(self, request: QueryRequest, *, policy: ExecutionPolicy | None = None) -> Response:
        """Execute one request and return its :class:`Response` envelope.

        The request runs through the policy's (cached) batch service, so
        repeated sessions calls share the cross-query expansion cache and —
        when the policy enables it — the result memo.  A request carrying a
        ``departure_time`` requires ``temporal="profiles"`` and runs on the
        (cached) snapshot stack of that time instead.
        """
        if self.fault_hook is not None:
            self.fault_hook("query")
        resolved = self._resolve(policy)
        departure_time = getattr(request, "departure_time", None)
        if departure_time is not None:
            executor = self._temporal_for(resolved)
            response = executor.query(request, self._static_policy(resolved))
            response = Response(
                request=response.request,
                result=response.result,
                io=response.io,
                elapsed_seconds=response.elapsed_seconds,
                policy=resolved,
                served_from_memo=response.served_from_memo,
                ticket=response.ticket,
            )
            self._latency.observe("query", response.elapsed_seconds)
            return response
        outcome = self._service_for(resolved).execute(request)
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

        With ``workers == 1`` the batch runs through the policy's sequential
        :class:`~repro.QueryService`; with ``workers > 1`` it is sharded
        across a (cached) :class:`~repro.ShardedQueryService`.  Either way
        the answers, their order and the summed counters are identical to
        the corresponding direct-service run.

        Requests carrying a ``departure_time`` (requires
        ``temporal="profiles"``) run on their snapshot stacks; a mixed batch
        is split into maximal same-stack runs executed in submission order,
        and the envelope sums their counters (shard accounting is then
        omitted).
        """
        if self.fault_hook is not None:
            self.fault_hook("batch")
        resolved = self._resolve(policy)
        if any(getattr(request, "departure_time", None) is not None for request in requests):
            response = self._run_temporal_batch(list(requests), resolved)
            self._latency.observe("batch", response.elapsed_seconds)
            return response
        if resolved.workers > 1:
            report = self._sharded_for(resolved).run_batch(requests)
        else:
            report = self._service_for(resolved).run_batch(requests)
        response = BatchResponse.from_report(report, resolved)
        self._latency.observe("batch", response.elapsed_seconds)
        return response

    def _run_temporal_batch(
        self, requests: list[QueryRequest], resolved: ExecutionPolicy
    ) -> BatchResponse:
        """Split a (possibly mixed) temporal batch into same-stack runs."""
        import time as time_module

        executor = self._temporal_for(resolved)
        static_policy = self._static_policy(resolved)
        start = time_module.perf_counter()
        responses: list[Response] = []
        io = AccessStatistics()
        cache = CacheStatistics()
        index = 0
        while index < len(requests):
            temporal_run = getattr(requests[index], "departure_time", None) is not None
            end = index + 1
            while end < len(requests) and (
                (getattr(requests[end], "departure_time", None) is not None) == temporal_run
            ):
                end += 1
            run = requests[index:end]
            if temporal_run:
                batch = executor.run_batch(run, static_policy)
            else:
                batch = BatchResponse.from_report(
                    self._service_for(resolved).run_batch(run), resolved
                )
            responses.extend(batch.responses)
            io.accumulate(batch.io)
            cache.accumulate(batch.cache)
            index = end
        return BatchResponse(
            responses=tuple(responses),
            elapsed_seconds=time_module.perf_counter() - start,
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
        executor = self._temporal_for(resolved)
        response = executor.sweep(request, self._static_policy(resolved))
        self._latency.observe("query", response.elapsed_seconds)
        return dataclasses.replace(response, policy=resolved)

    # ------------------------------------------------------------------ #
    # Continuous monitoring
    # ------------------------------------------------------------------ #
    def monitor(
        self,
        requests: Sequence[QueryRequest],
        *,
        policy: ExecutionPolicy | None = None,
    ) -> MonitorHandle:
        """Register long-lived subscriptions and return their :class:`MonitorHandle`.

        Monitoring always runs on the in-memory layer over the session's
        *live* facility set (the policy's ``residency`` / page knobs do not
        apply); ``compiled``, ``workers``/``routing``/``executor`` and
        ``shard_fallback_threshold`` configure it.  Because every
        subscription shares that one mutable set, all :meth:`monitor` calls
        of a session must resolve to the same monitoring configuration —
        a conflicting override raises :class:`~repro.errors.PolicyError`.
        """
        if self.fault_hook is not None:
            self.fault_hook("monitor")
        resolved = self._resolve(policy)
        if self._dataset_path is not None:
            raise PolicyError(
                "a dataset-backed session is read-only: monitoring mutates the "
                "facility set in place, and a pack's facility view cannot be "
                "mutated; rebuild the workload in memory (a graph-backed "
                "Session) to monitor it"
            )
        key = (
            resolved.resolved_compiled(),
            resolved.workers,
            resolved.routing,
            resolved.executor,
            resolved.shard_fallback_threshold,
        )
        if self._monitor is None:
            from repro.monitor.service import MonitoringService

            self._monitor = MonitoringService(
                self._graph,
                self._facilities,
                policy=resolved.replace(residency="memory"),
            )
            self._monitor_key = key
        elif key != self._monitor_key:
            raise PolicyError(
                "this session already monitors with a different configuration "
                f"{self._monitor_key} (compiled, workers, routing, executor, "
                "shard_fallback_threshold); subscriptions share one live "
                "facility set, so either reuse the original policy or open a "
                "separate Session"
            )
        subscription_ids = tuple(self._monitor.subscribe(request) for request in requests)
        return MonitorHandle(self._monitor, subscription_ids, resolved, self._latency)

    # ------------------------------------------------------------------ #
    # Policy resolution internals
    # ------------------------------------------------------------------ #
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
        if policy is None:
            return self._default_policy
        resolved = self._coerce_policy(policy)
        if resolved is not self._default_policy:
            self._check_policy(resolved)
        return resolved

    def _resolved_compiled(self, policy: ExecutionPolicy) -> bool:
        """The effective fast-path decision for *this* session's data layer.

        A session opened straight over a pack has no in-memory topology to
        compile, so the fast path is forced off there regardless of the
        policy mode or the ``REPRO_COMPILED`` toggle.
        """
        if self._dataset_path is not None:
            return False
        return policy.resolved_compiled()

    def _check_policy(self, policy: ExecutionPolicy) -> None:
        """Reject policy/dataset conflicts before any execution starts."""
        if policy.temporal == "profiles":
            if self._dataset_path is not None:
                raise PolicyError(
                    "temporal='profiles' needs an in-memory base graph to "
                    "evaluate profiles over; a pack-backed session is "
                    "read-only — open the workload as a graph-backed Session"
                )
            if policy.residency == "dataset":
                raise PolicyError(
                    "temporal='profiles' conflicts with residency='dataset': "
                    "snapshots are materialised per departure time and cannot "
                    "be served from a static pack; use residency='memory' or "
                    "'disk'"
                )
            if policy.profile_source not in self._profiles:
                registered = ", ".join(sorted(self._profiles)) or "none registered"
                raise PolicyError(
                    f"unknown profile_source {policy.profile_source!r}; this "
                    f"session's profile sets: {registered} (register them via "
                    "Session(profiles={name: TimeVaryingMCN(...)}))"
                )
        if policy.residency == "dataset":
            if self._dataset_path is not None:
                if policy.dataset_path != self._dataset_path:
                    raise PolicyError(
                        f"this session is already backed by the dataset pack "
                        f"{self._dataset_path!r}; a policy naming "
                        f"{policy.dataset_path!r} cannot retarget it — open a "
                        "separate Session for the other pack"
                    )
                return
            if self._explicit_storage is not None or self._explicit_accessor is not None:
                raise PolicyError(
                    "residency='dataset' conflicts with the session's explicit "
                    "data layer; drop the storage/accessor argument or use "
                    "Session(dataset_path=...)"
                )
        accessor = self._explicit_accessor
        if accessor is None:
            return
        if policy.residency == "disk" and not isinstance(accessor, NetworkStorage):
            raise PolicyError(
                "residency='disk' conflicts with the session's explicit "
                f"{type(accessor).__name__}: the accessor already fixes the "
                "data layer; use residency='memory' or hand the session a "
                "NetworkStorage instead"
            )
        if policy.workers > 1 and not hasattr(accessor, "snapshot_view"):
            raise PolicyError(
                f"workers={policy.workers} needs a data layer that supports "
                f"read-only snapshot views, but the session's explicit "
                f"{type(accessor).__name__} does not; use workers=1 or a "
                "NetworkStorage / InMemoryAccessor data layer"
            )

    def _engine_key(self, policy: ExecutionPolicy) -> tuple:
        compiled = self._resolved_compiled(policy)
        if policy.residency == "dataset" and self._dataset_path is None:
            return (
                "dataset",
                policy.dataset_path,
                float(policy.buffer_fraction),
                compiled,
            )
        if self._explicit_accessor is not None:
            return ("accessor", compiled)
        if policy.residency == "disk":
            if self._explicit_storage is not None:
                return ("disk", "explicit", compiled)
            return (
                "disk",
                policy.page_size,
                float(policy.buffer_fraction),
                compiled,
            )
        return ("memory", compiled)

    @staticmethod
    def _static_policy(policy: ExecutionPolicy) -> ExecutionPolicy:
        """The equivalent static policy a snapshot stack executes under."""
        return policy.replace(temporal="off", profile_source=None)

    def _temporal_for(self, policy: ExecutionPolicy):
        """The (cached) temporal executor the resolved policy routes through."""
        if policy.temporal != "profiles":
            raise PolicyError(
                "this request needs the temporal subsystem (it carries a "
                "departure_time or is a period sweep), but the resolved "
                "policy has temporal='off'; use "
                "ExecutionPolicy(temporal='profiles', profile_source=<name>) "
                "with a profile set registered on the Session"
            )
        key = (
            policy.profile_source,
            float(policy.temporal_quantum),
            policy.temporal_cache_size,
        )
        if key not in self._temporal:
            from repro.temporal.executor import TemporalExecutor

            self._temporal[key] = TemporalExecutor(
                self._graph,
                self._facilities,
                self._profiles[policy.profile_source],
                quantum=policy.temporal_quantum,
                cache_size=policy.temporal_cache_size,
            )
        return self._temporal[key]

    def _service_for(self, policy: ExecutionPolicy) -> QueryService:
        key = self._engine_key(policy) + (
            policy.memoize_results,
            policy.max_cached_entries,
        )
        if key not in self._services:
            self._services[key] = QueryService(
                self.engine_for(policy), policy=policy.replace(workers=1)
            )
        return self._services[key]

    def _sharded_for(self, policy: ExecutionPolicy):
        key = self._engine_key(policy) + (
            policy.workers,
            policy.routing,
            policy.executor,
            policy.memoize_results,
            policy.max_cached_entries,
        )
        if key not in self._sharded:
            from repro.parallel.service import ShardedQueryService

            self._sharded[key] = ShardedQueryService(
                self.engine_for(policy), policy=policy
            )
        return self._sharded[key]
