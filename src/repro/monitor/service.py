"""The continuous monitoring service: long-lived subscriptions over update streams.

:class:`MonitoringService` is the streaming counterpart of the batch
:class:`~repro.service.QueryService`.  Instead of answering one-shot
batches over a frozen facility set, it registers long-lived
:class:`~repro.service.SkylineRequest` / :class:`~repro.service.TopKRequest`
*subscriptions* and consumes an update stream (see
:mod:`repro.monitor.stream`) one tick at a time:

* every update is routed through the **cheap incremental paths** of the
  per-subscription :class:`~repro.core.maintenance.SkylineMaintainer` /
  :class:`~repro.core.maintenance.TopKMaintainer` — an insertion is priced
  on the subscription's paused expansions, resumed only until the cached
  result's bound accepts or rejects it, and deletions of non-members are
  free;
* the **hard cases** (deletion of a result member, query relocation) are
  deferred and resolved by one batched CEA pass at the end of the tick,
  executed through a :class:`~repro.service.QueryService` over the live
  facility set — and, when the service's
  :class:`~repro.api.ExecutionPolicy` asks for ``workers > 1`` and enough
  subscriptions went stale, sharded across workers via
  :mod:`repro.parallel`;
* each tick emits one :class:`DeltaReport` per subscription (facilities that
  entered, left or were rescored) plus the tick's maintenance-path counters,
  bundled into a :class:`TickReport`.

A tick is validated **in full before anything is applied** — unknown
facility ids, duplicate inserts, bad placements, facilities unreachable
from a subscription's query and relocations of unregistered subscriptions
are all rejected up front, mirroring the batch service's submit-time
request validation, so a bad tick can never leave the shared facility set
(or any subscription) half-updated.

All subscriptions share one :class:`~repro.network.facilities.FacilitySet`
and one :class:`~repro.network.accessor.InMemoryAccessor`; the set is
mutated exactly once per update and every maintainer is notified through
the non-mutating ``note_*`` hooks.

Example
-------
>>> from repro import MonitoringService, SkylineRequest
>>> from repro.monitor import FacilityInsert, UpdateTick
>>> from repro.datagen import WorkloadSpec, make_workload
>>> w = make_workload(WorkloadSpec(num_nodes=150, num_facilities=60, num_queries=1, seed=5))
>>> service = MonitoringService(w.graph, w.facilities)
>>> sid = service.subscribe(SkylineRequest(w.queries[0]))
>>> edge = next(iter(w.graph.edges()))
>>> report = service.apply_tick(UpdateTick((FacilityInsert(9999, edge.edge_id, 0.0),)))
>>> len(report.deltas)
1
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.api.policy import DEFAULT_POLICY, ExecutionPolicy
from repro.core.engine import MCNQueryEngine
from repro.core.maintenance import MaintenanceStatistics, SkylineMaintainer, TopKMaintainer
from repro.errors import FacilityError, GraphError, PolicyError, QueryError
from repro.network.accessor import AccessStatistics
from repro.network.compiled import CompiledGraph
from repro.network.costs import CostVector
from repro.network.facilities import Facility, FacilityId, FacilitySet
from repro.network.graph import MultiCostGraph
from repro.service import QueryService, SkylineRequest, TopKRequest
from repro.service.requests import QueryRequest
from repro.service.service import validate_request
from repro.monitor.stream import (
    EdgeCostUpdate,
    FacilityDelete,
    FacilityInsert,
    QueryRelocation,
    UpdateStream,
    UpdateTick,
)

__all__ = [
    "DeltaReport",
    "TickReport",
    "MonitoringService",
    "delta_report_to_payload",
    "tick_report_to_payload",
]

_ROUND = 9  # decimal places when comparing scores/vectors across ticks


@dataclass(frozen=True)
class DeltaReport:
    """What one tick changed in one subscription's result.

    ``entered`` / ``left`` are facility-membership changes; ``rescored``
    are facilities present before *and* after whose cost vector (skyline)
    or aggregate score (top-k) changed — which only happens when the
    subscription's query relocated.  ``size`` is the result's cardinality
    after the tick.
    """

    subscription_id: int
    kind: str  # "skyline" or "topk"
    entered: tuple[FacilityId, ...]
    left: tuple[FacilityId, ...]
    rescored: tuple[FacilityId, ...]
    size: int

    @property
    def changed(self) -> bool:
        return bool(self.entered or self.left or self.rescored)


@dataclass
class TickReport:
    """One applied tick: per-subscription deltas plus maintenance accounting.

    ``counters`` holds the tick's :class:`MaintenanceStatistics` delta summed
    over every subscription — ``incremental_updates`` versus
    ``recomputations`` is the incremental-vs-fallback split the maintenance
    extension exists to maximise.  ``fallback_subscriptions`` lists the
    subscriptions that needed the end-of-tick CEA pass; ``sharded`` tells
    whether that pass ran through the parallel sharded service.  ``io`` is
    the tick's logical accessor-request delta (shared accessor plus, for a
    sharded fallback, the summed per-worker snapshot counters).
    """

    index: int
    updates: int
    deltas: list[DeltaReport] = field(default_factory=list)
    counters: MaintenanceStatistics = field(default_factory=MaintenanceStatistics)
    fallback_subscriptions: tuple[int, ...] = ()
    sharded: bool = False
    elapsed_seconds: float = 0.0
    io: AccessStatistics = field(default_factory=AccessStatistics)

    @property
    def incremental_updates(self) -> int:
        return self.counters.incremental_updates

    @property
    def recomputations(self) -> int:
        return self.counters.recomputations

    @property
    def changed_subscriptions(self) -> tuple[int, ...]:
        return tuple(delta.subscription_id for delta in self.deltas if delta.changed)


def delta_report_to_payload(delta: DeltaReport) -> dict[str, object]:
    """A plain-JSON dictionary pinning one delta (golden fixtures)."""
    return {
        "subscription": delta.subscription_id,
        "kind": delta.kind,
        "entered": list(delta.entered),
        "left": list(delta.left),
        "rescored": list(delta.rescored),
        "size": delta.size,
    }


def tick_report_to_payload(report: TickReport) -> dict[str, object]:
    """A plain-JSON dictionary pinning one tick's deltas and path counters."""
    counters: dict[str, int] = {
        "insertions": report.counters.insertions,
        "deletions": report.counters.deletions,
        "incremental_updates": report.counters.incremental_updates,
        "recomputations": report.counters.recomputations,
        "query_moves": report.counters.query_moves,
    }
    if report.counters.edge_cost_refreshes:
        # Emitted only when an edge-cost tick actually fired, so the facility
        # delta-stream fixtures recorded before the temporal subsystem stay
        # byte-identical.
        counters["edge_cost_refreshes"] = report.counters.edge_cost_refreshes
    return {
        "index": report.index,
        "updates": report.updates,
        "deltas": [delta_report_to_payload(delta) for delta in report.deltas],
        "counters": counters,
        "fallback_subscriptions": list(report.fallback_subscriptions),
        "sharded": report.sharded,
    }


@dataclass
class _Subscription:
    subscription_id: int
    request: QueryRequest
    maintainer: SkylineMaintainer | TopKMaintainer

    @property
    def kind(self) -> str:
        return "skyline" if isinstance(self.maintainer, SkylineMaintainer) else "topk"


class MonitoringService:
    """Maintains many long-lived preference-query subscriptions under updates.

    Parameters
    ----------
    graph:
        The (static) multi-cost network.
    facilities:
        The live facility set.  The service owns and mutates it as ticks are
        applied; hand it a private copy if the caller needs the original.
    policy:
        An :class:`~repro.api.ExecutionPolicy` supplying the monitoring
        knobs: ``workers`` / ``routing`` / ``executor`` (with
        ``workers > 1`` and at least ``shard_fallback_threshold`` stale
        subscriptions in one tick, the end-of-tick fallback pass is sharded
        across workers), and ``shard_fallback_threshold`` itself (the pool
        is not worth spinning up for one or two queries).  Monitoring always
        runs on the in-memory data layer; the policy's residency / page
        knobs do not apply.
    compiled_graph:
        A plan-free :class:`~repro.network.compiled.CompiledGraph` over
        ``graph`` and ``facilities`` to run the kernel on, instead of
        compiling one.  :meth:`repro.api.Session.monitor` hands over its
        engine's snapshot (or, for a disk-resident session, a plan-free twin
        of it), so a monitored session holds one topology.

    The in-memory data layer always compiles, so insertion pricing, the
    maintainers' fallback searches and the batched end-of-tick CEA pass all
    run on the :class:`~repro.core.kernel.ExpansionKernel`, with the
    snapshot's facility side refreshing as ticks mutate the set.
    """

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        *,
        policy: ExecutionPolicy = DEFAULT_POLICY,
        compiled_graph: CompiledGraph | None = None,
    ):
        if not isinstance(policy, ExecutionPolicy):
            raise PolicyError(
                f"expected an ExecutionPolicy, got {type(policy).__name__}"
            )
        if facilities.graph is not graph:
            raise QueryError("facility set was built for a different graph")
        if compiled_graph is not None and compiled_graph.has_page_plans:
            raise QueryError(
                "monitoring runs on the in-memory data layer; hand it a "
                "plan-free CompiledGraph (CompiledGraph.derive builds one "
                "over the same topology)"
            )
        self._graph = graph
        self._facilities = facilities
        self._policy = policy
        self._engine = MCNQueryEngine(graph, facilities, compiled=compiled_graph)
        self._accessor = self._engine.accessor
        self._subscriptions: dict[int, _Subscription] = {}
        self._retired = MaintenanceStatistics()
        self._next_sid = 0
        self._ticks_applied = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> MultiCostGraph:
        return self._graph

    @property
    def policy(self) -> ExecutionPolicy:
        """The execution policy supplying the monitoring knobs."""
        return self._policy

    @property
    def facilities(self) -> FacilitySet:
        """The live facility set (mutated by applied ticks)."""
        return self._facilities

    @property
    def subscription_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._subscriptions))

    @property
    def ticks_applied(self) -> int:
        return self._ticks_applied

    @property
    def access_statistics(self) -> AccessStatistics:
        """Cumulative logical accessor counters of the shared data layer.

        Sharded fallback passes run on per-worker snapshot accessors and do
        not show up here; their counters are reported per tick in
        :attr:`TickReport.io`.
        """
        return self._accessor.statistics

    @property
    def statistics(self) -> MaintenanceStatistics:
        """Cumulative maintenance counters over the service's whole lifetime.

        Sums every live subscription's counters plus those of subscriptions
        dropped via :meth:`unsubscribe`, so the totals never shrink.
        """
        total = self._retired.snapshot()
        for subscription in self._subscriptions.values():
            total.accumulate(subscription.maintainer.statistics)
        return total

    def request_of(self, subscription_id: int) -> QueryRequest:
        return self._subscription(subscription_id).request

    def maintainer_of(self, subscription_id: int) -> SkylineMaintainer | TopKMaintainer:
        """The maintainer behind one subscription (current result + counters)."""
        return self._subscription(subscription_id).maintainer

    def result_signature(self, subscription_id: int) -> dict[FacilityId, object]:
        """The subscription's current result as a comparable mapping.

        Skyline subscriptions map facility id -> rounded cost vector; top-k
        subscriptions map facility id -> rounded aggregate score.  Two equal
        signatures mean identical answers (membership and values).
        """
        return self._signature(self._subscription(subscription_id))

    # ------------------------------------------------------------------ #
    # Subscription lifecycle
    # ------------------------------------------------------------------ #
    def subscribe(self, request: QueryRequest) -> int:
        """Register a long-lived subscription; returns its subscription id.

        The request is validated exactly as the batch service validates
        submissions (type, location, ``k``, aggregate arity/monotonicity).
        The initial result is computed immediately against the current
        facility set.  The request's ``algorithm`` field is ignored —
        maintained results always follow the CEA path (all algorithms return
        identical answers anyway).
        """
        self._ensure_open()
        validate_request(self._engine, request)
        compiled = self._engine.compiled_graph
        if isinstance(request, SkylineRequest):
            maintainer: SkylineMaintainer | TopKMaintainer = SkylineMaintainer(
                self._graph,
                self._facilities,
                request.location,
                accessor=self._accessor,
                compiled=compiled,
            )
        else:
            aggregate = self._engine.resolve_aggregate(request.aggregate, request.weights)
            maintainer = TopKMaintainer(
                self._graph,
                self._facilities,
                request.location,
                aggregate,
                request.k,
                accessor=self._accessor,
                compiled=compiled,
            )
        subscription_id = self._next_sid
        self._next_sid += 1
        self._subscriptions[subscription_id] = _Subscription(
            subscription_id, request, maintainer
        )
        return subscription_id

    def unsubscribe(self, subscription_id: int) -> None:
        """Drop a subscription; its maintainer stops receiving updates.

        Its maintenance counters are folded into the service's lifetime
        :attr:`statistics` before the maintainer is discarded.
        """
        subscription = self._subscription(subscription_id)
        self._retired.accumulate(subscription.maintainer.statistics)
        del self._subscriptions[subscription_id]

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def close(self) -> None:
        """Drop every subscription and refuse further work (idempotent).

        Folds all live maintainer counters into the lifetime
        :attr:`statistics` first, so nothing is lost at shutdown.  After
        ``close``, :meth:`subscribe` and :meth:`apply_tick` raise
        :class:`~repro.errors.QueryError` — this is the deterministic
        teardown hook :meth:`repro.api.Session.close` (and through it the
        serving tier) relies on.
        """
        if self._closed:
            return
        self._closed = True
        for subscription in self._subscriptions.values():
            self._retired.accumulate(subscription.maintainer.statistics)
        self._subscriptions.clear()

    def _ensure_open(self) -> None:
        if self._closed:
            raise QueryError(
                "this MonitoringService is closed; subscriptions were dropped "
                "at close() and no further ticks can be applied"
            )

    # ------------------------------------------------------------------ #
    # Tick application
    # ------------------------------------------------------------------ #
    def validate_tick(self, tick: UpdateTick) -> None:
        """Reject a tick the service could never apply, before touching anything.

        Simulates the tick's sequencing against the current facility ids, so
        intra-tick chains (insert then delete the same id, or delete then
        re-insert it) validate exactly as they will apply.  Insertions are
        additionally checked for reachability from every subscription's
        query, so an unreachable facility is rejected *here* rather than
        surfacing mid-application: reachability is the only way pricing an
        insertion can fail.  The graph's component labels decide it and
        nothing is priced, except on a directed graph, where a facility in
        the query's component is priced exactly.  Topology never changes, so
        the pre-tick check holds throughout the tick; a mid-tick relocation
        only defers its subscription, whose pricing is then skipped anyway.
        Raises :class:`FacilityError` / :class:`QueryError`; on raise, no
        update of the tick has been applied.
        """
        if not isinstance(tick, UpdateTick):
            raise QueryError(f"expected an UpdateTick, got {type(tick).__name__}")
        live = set(self._facilities.facility_ids())
        for position, update in enumerate(tick):
            if isinstance(update, FacilityInsert):
                if update.facility_id in live:
                    raise FacilityError(
                        f"update {position}: facility id {update.facility_id} already exists"
                    )
                facility = Facility(update.facility_id, update.edge_id, update.offset)
                self._facilities.validate_placement(facility)
                for subscription in self._subscriptions.values():
                    subscription.maintainer.check_reachable(facility)
                live.add(update.facility_id)
            elif isinstance(update, FacilityDelete):
                if update.facility_id not in live:
                    raise FacilityError(
                        f"update {position}: unknown facility {update.facility_id}"
                    )
                live.remove(update.facility_id)
            elif isinstance(update, QueryRelocation):
                if update.subscription_id not in self._subscriptions:
                    raise QueryError(
                        f"update {position}: unknown subscription {update.subscription_id}"
                    )
                update.location.validate(self._graph)
            elif isinstance(update, EdgeCostUpdate):
                if not self._graph.has_edge(update.edge_id):
                    raise QueryError(
                        f"update {position}: unknown edge {update.edge_id}"
                    )
                try:
                    vector = CostVector(update.costs)
                except GraphError as error:
                    raise QueryError(f"update {position}: {error}") from None
                if vector.dimensions != self._graph.num_cost_types:
                    raise QueryError(
                        f"update {position}: edge cost vector has "
                        f"{vector.dimensions} components, expected "
                        f"{self._graph.num_cost_types}"
                    )
            else:
                raise QueryError(
                    f"update {position}: expected a facility update, "
                    f"got {type(update).__name__}"
                )

    def apply_tick(self, tick: UpdateTick) -> TickReport:
        """Apply one tick atomically and emit the per-subscription deltas.

        The tick is validated in full first; each update then mutates the
        shared facility set exactly once and notifies every maintainer
        through its incremental path.  Hard cases are deferred and resolved
        by one batched CEA pass at the end (sharded when configured), so a
        tick costs at most one fallback computation per subscription no
        matter how many of its updates were hard.
        """
        self._ensure_open()
        start = time.perf_counter()
        io_before = self._accessor.statistics.snapshot()
        self.validate_tick(tick)  # prices only on a directed graph: counted
        subscriptions = list(self._subscriptions.values())
        before = {sub.subscription_id: self._signature(sub) for sub in subscriptions}
        counters_before = {
            sub.subscription_id: sub.maintainer.statistics.snapshot()
            for sub in subscriptions
        }

        for update in tick:
            if isinstance(update, FacilityInsert):
                facility = Facility(update.facility_id, update.edge_id, update.offset)
                self._facilities.add(facility)
                for sub in subscriptions:
                    sub.maintainer.note_insert(facility)
            elif isinstance(update, FacilityDelete):
                self._facilities.remove(update.facility_id)
                for sub in subscriptions:
                    sub.maintainer.note_delete(update.facility_id, defer_recompute=True)
            elif isinstance(update, QueryRelocation):
                maintainer = self._subscriptions[update.subscription_id].maintainer
                maintainer.move_query(update.location, defer_recompute=True)
            else:  # EdgeCostUpdate
                self._graph.update_edge_costs(update.edge_id, update.costs)
                # A re-profiled edge invalidates every subscription's paused
                # expansions; all of them defer to the batched pass below.
                for sub in subscriptions:
                    sub.maintainer.note_edge_costs_changed(defer_recompute=True)

        stale = [sub for sub in subscriptions if sub.maintainer.stale]
        sharded, sharded_io = self._refresh(stale)

        deltas = [
            self._delta(sub, before[sub.subscription_id]) for sub in subscriptions
        ]
        counters = MaintenanceStatistics()
        for sub in subscriptions:
            counters.accumulate(
                sub.maintainer.statistics.since(counters_before[sub.subscription_id])
            )
        io = self._accessor.statistics.since(io_before)
        if sharded_io is not None:
            # A sharded fallback runs on per-worker snapshot accessors whose
            # counters never reach the shared accessor; fold them in.
            io.accumulate(sharded_io)
        report = TickReport(
            index=self._ticks_applied,
            updates=len(tick),
            deltas=deltas,
            counters=counters,
            fallback_subscriptions=tuple(sub.subscription_id for sub in stale),
            sharded=sharded,
            elapsed_seconds=time.perf_counter() - start,
            io=io,
        )
        self._ticks_applied += 1
        return report

    def run(self, stream: UpdateStream) -> list[TickReport]:
        """Apply a whole stream tick by tick; returns the reports in order."""
        return [self.apply_tick(tick) for tick in stream]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _subscription(self, subscription_id: int) -> _Subscription:
        try:
            return self._subscriptions[subscription_id]
        except KeyError:
            raise QueryError(f"unknown subscription {subscription_id}") from None

    def _signature(self, sub: _Subscription) -> dict[FacilityId, object]:
        maintainer = sub.maintainer
        if isinstance(maintainer, SkylineMaintainer):
            return {
                fid: tuple(round(value, _ROUND) for value in costs)
                for fid, costs in maintainer.skyline.items()
            }
        return {fid: round(score, _ROUND) for fid, score in maintainer.ranking()}

    def _delta(self, sub: _Subscription, before: dict[FacilityId, object]) -> DeltaReport:
        after = self._signature(sub)
        entered = tuple(sorted(set(after) - set(before)))
        left = tuple(sorted(set(before) - set(after)))
        rescored = tuple(
            sorted(fid for fid in set(before) & set(after) if before[fid] != after[fid])
        )
        return DeltaReport(
            subscription_id=sub.subscription_id,
            kind=sub.kind,
            entered=entered,
            left=left,
            rescored=rescored,
            size=len(after),
        )

    def _refresh(self, stale: list[_Subscription]) -> tuple[bool, AccessStatistics | None]:
        """Resolve every deferred fallback with one batched CEA pass.

        Returns ``(sharded, sharded_io)`` — whether the pass ran through the
        sharded parallel service, and that pass's merged I/O counters (which
        live on per-worker snapshot accessors, not the shared one).  A fresh
        :class:`QueryService` (and therefore a fresh cross-query cache) is
        built per pass: the cache memoises facility placements, so it must
        never outlive a tick's mutations — within the pass the set is frozen,
        which is exactly the cache's contract.
        """
        if not stale:
            return False, None
        requests: list[QueryRequest] = []
        for sub in stale:
            maintainer = sub.maintainer
            if isinstance(maintainer, SkylineMaintainer):
                requests.append(SkylineRequest(maintainer.query))
            else:
                requests.append(
                    TopKRequest(maintainer.query, maintainer.k, aggregate=maintainer.aggregate)
                )
        pass_policy = self._policy.replace(memoize_results=False, max_cached_entries=None)
        service = QueryService(self._engine, policy=pass_policy.replace(workers=1))
        use_shards = (
            self._policy.workers > 1 and len(requests) >= self._policy.shard_fallback_threshold
        )
        report = service.run_batch(
            requests, policy=pass_policy if use_shards else None
        )
        for sub, outcome in zip(stale, report.outcomes):
            sub.maintainer.refresh(outcome.result)
        return use_shards, (report.io if use_shards else None)
