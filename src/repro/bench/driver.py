"""Workload replay driver: one-shot engine calls versus the batch service.

This is the parity check behind the service layer's reason to exist.  It
takes a :class:`~repro.datagen.workload.WorkloadSpec`, turns its query
locations into a trace of mixed skyline / top-k requests, and replays the
trace twice against the same disk-resident storage:

* **one-shot** — every query is an independent :class:`~repro.MCNQueryEngine`
  call with cold statistics and a cold buffer (the paper's per-query setting);
* **batched** — the whole trace goes through one
  :class:`~repro.service.QueryService`, so the cross-query expansion cache
  and the buffer pool stay warm from query to query.

With ``workers > 1`` in the spec, the trace is additionally replayed
**sharded** through a :class:`~repro.parallel.ShardedQueryService` (the
configured routing and executor), checking that parallel execution returns
the batched answers and that its merged counters add up.

The report carries the page reads and buffer hits of every run, the
page-read savings, and a per-request verification that all runs returned
identical answers.

``replay_serve_workload`` is the async counterpart: the same mixed trace —
plus facility-update ticks — fired by concurrent clients through the
serving tier's in-process transport, then replayed sequentially in ``seq``
order against a direct :class:`~repro.api.Session` as the oracle.  The
report carries the tier's per-endpoint request counts, its admission and
error counters, and the payload-identity verdict.

Every replay here reports counts and verdicts only; the repository
benchmark (``perfbench/``) measures time.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.api import BatchResponse, ExecutionPolicy, Session
from repro.core.engine import MCNQueryEngine
from repro.core.aggregates import WeightedSum
from repro.core.maintenance import MaintenanceStatistics
from repro.datagen.updates import UpdateStreamSpec, make_update_stream
from repro.datagen.workload import Workload, WorkloadSpec, make_workload
from repro.errors import QueryError
from repro.monitor import FacilityInsert, QueryRelocation
from repro.network.facilities import FacilitySet
from repro.monitor.stream import tick_from_payload, tick_to_payload
from repro.serve import (
    InProcessClient,
    JobJournal,
    RetryPolicy,
    RetryingClient,
    ServeApp,
    ServeConfig,
    query_response_to_payload,
    tick_response_to_payload,
)
from repro.service import QueryRequest, SkylineRequest, TopKRequest
from repro.service.cache import CacheStatistics
from repro.service.requests import request_from_payload, request_to_payload
from repro.storage.scheme import NetworkStorage

__all__ = [
    "ReplaySpec",
    "ReplayMeasurement",
    "ReplayReport",
    "MonitorReplaySpec",
    "MonitorMeasurement",
    "MonitorReplayReport",
    "ServeReplaySpec",
    "ServeReplayReport",
    "build_requests",
    "replay_workload",
    "replay_update_stream",
    "replay_serve_workload",
    "format_replay_report",
    "format_monitor_report",
    "format_serve_report",
]

_MIXES = ("skyline", "topk", "mixed")


@dataclass(frozen=True)
class ReplaySpec:
    """Everything the replay driver needs: data, trace shape and storage knobs.

    ``workers`` > 1 adds a third, sharded-parallel run to the replay;
    ``routing`` and ``executor`` configure it (see :mod:`repro.parallel`).
    """

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    mix: str = "mixed"  # "skyline", "topk" or "mixed" (alternating)
    k: int = 4
    algorithm: str = "cea"
    page_size: int = 2048
    buffer_fraction: float = 0.01
    workers: int = 1
    routing: str = "round_robin"
    executor: str = "process"

    def __post_init__(self) -> None:
        if self.mix not in _MIXES:
            raise QueryError(f"unknown mix {self.mix!r}; expected one of {_MIXES}")
        if self.k < 1:
            raise QueryError("k must be a positive integer")
        # ExecutionPolicy owns the workers/routing/executor validation.
        ExecutionPolicy(workers=self.workers, routing=self.routing, executor=self.executor)


def build_requests(workload: Workload, spec: ReplaySpec) -> list[QueryRequest]:
    """The request trace of a workload: one request per query location.

    ``mixed`` alternates skyline and top-k; top-k requests draw random
    weighted-sum coefficients from the workload seed, so the trace is
    deterministic per spec.
    """
    rng = random.Random(workload.spec.seed + 41)
    dimensions = workload.graph.num_cost_types
    requests: list[QueryRequest] = []
    for index, query in enumerate(workload.queries):
        as_skyline = spec.mix == "skyline" or (spec.mix == "mixed" and index % 2 == 0)
        if as_skyline:
            requests.append(SkylineRequest(query, algorithm=spec.algorithm))
        else:
            weights = WeightedSum.random(dimensions, rng).weights
            requests.append(
                TopKRequest(query, spec.k, weights=weights, algorithm=spec.algorithm)
            )
    return requests


@dataclass
class ReplayMeasurement:
    """The I/O counters of one replay run (one-shot, batched or sharded)."""

    label: str
    queries: int = 0
    page_reads: int = 0
    buffer_hits: int = 0


@dataclass
class ReplayReport:
    """The replay runs side by side, plus the verification verdict.

    ``sharded`` is present only when the spec asked for more than one
    worker; ``identical_results`` then covers all runs, and
    ``counters_consistent`` verifies that the merged sharded counters equal
    the sum of the per-shard counters.
    """

    spec: ReplaySpec
    one_shot: ReplayMeasurement
    batched: ReplayMeasurement
    identical_results: bool
    cache: CacheStatistics
    sharded: ReplayMeasurement | None = None
    counters_consistent: bool = True

    @property
    def measurements(self) -> list[ReplayMeasurement]:
        runs = [self.one_shot, self.batched]
        if self.sharded is not None:
            runs.append(self.sharded)
        return runs

    @property
    def page_reads_saved(self) -> int:
        return self.one_shot.page_reads - self.batched.page_reads

    @property
    def savings_fraction(self) -> float:
        if self.one_shot.page_reads == 0:
            return 0.0
        return self.page_reads_saved / self.one_shot.page_reads


def _result_signature(request: QueryRequest, result) -> object:
    """A comparable digest of one query's answer (order-insensitive for skylines)."""
    if isinstance(request, SkylineRequest):
        return frozenset(result.facility_ids())
    return tuple((item.facility_id, round(item.score, 9)) for item in result)


def _replay_one_shot(
    engine: MCNQueryEngine,
    storage: NetworkStorage,
    requests: list[QueryRequest],
    label: str,
) -> tuple[ReplayMeasurement, list[object]]:
    """Replay every request as an independent cold engine call."""
    measurement = ReplayMeasurement(label=label, queries=len(requests))
    signatures: list[object] = []
    for request in requests:
        storage.reset_statistics(clear_buffer=True)
        if isinstance(request, SkylineRequest):
            result = engine.skyline(
                request.location,
                algorithm=request.algorithm,
                probing=request.probing,
                first_nn_shortcut=request.first_nn_shortcut,
            )
        else:
            result = engine.top_k(
                request.location,
                request.k,
                weights=request.weights,
                aggregate=request.aggregate,
                algorithm=request.algorithm,
            )
        measurement.page_reads += result.statistics.io.page_reads
        measurement.buffer_hits += result.statistics.io.buffer_hits
        signatures.append(_result_signature(request, result))
    return measurement, signatures


def _batch_measurement(label: str, batch: BatchResponse) -> ReplayMeasurement:
    """A replay measurement over one :class:`~repro.api.BatchResponse`."""
    return ReplayMeasurement(
        label=label,
        queries=len(batch.responses),
        page_reads=batch.io.page_reads,
        buffer_hits=batch.io.buffer_hits,
    )


def _matches_signatures(batch: BatchResponse, signatures: list[object]) -> bool:
    return len(batch.responses) == len(signatures) and all(
        _result_signature(response.request, response.result) == signature
        for response, signature in zip(batch.responses, signatures)
    )


def replay_workload(spec: ReplaySpec, *, workload: Workload | None = None) -> ReplayReport:
    """Replay a workload trace one-shot and batched, and compare the runs.

    All runs go through one :class:`~repro.api.Session` over the workload
    data, so they execute against the *same* storage object; the one-shot
    run resets counters and clears the buffer before every query (each call
    is as cold as an independent engine invocation), while the batched run
    only goes cold once at the start.  The sharded run is the same batch
    under a per-call policy override (``workers`` > 1).
    """
    workload = workload or make_workload(spec.workload)
    if not workload.queries:
        raise QueryError("the workload has no queries to replay")
    base_policy = ExecutionPolicy(
        algorithm=spec.algorithm,
        residency="disk",
        page_size=spec.page_size,
        buffer_fraction=spec.buffer_fraction,
        routing=spec.routing,
        executor=spec.executor,
    )
    session = Session(workload.graph, workload.facilities, policy=base_policy)
    storage = session.storage_for()
    assert storage is not None  # disk residency always materialises one
    engine = session.engine_for()
    requests = build_requests(workload, spec)

    one_shot, signatures = _replay_one_shot(engine, storage, requests, "one-shot")

    storage.reset_statistics(clear_buffer=True)
    batch = session.run_batch(requests)
    batched = _batch_measurement("batched", batch)
    identical = _matches_signatures(batch, signatures)

    sharded_measurement = None
    counters_consistent = True
    if spec.workers > 1:
        storage.reset_statistics(clear_buffer=True)
        sharded_batch = session.run_batch(
            requests, policy=base_policy.replace(workers=spec.workers)
        )
        sharded_measurement = _batch_measurement(f"sharded-{spec.workers}", sharded_batch)
        identical = identical and _matches_signatures(sharded_batch, signatures)
        counters_consistent = sharded_batch.io.page_reads == sum(
            io.page_reads for io in sharded_batch.shard_io
        ) and sharded_batch.io.buffer_hits == sum(
            io.buffer_hits for io in sharded_batch.shard_io
        )

    return ReplayReport(
        spec=spec,
        one_shot=one_shot,
        batched=batched,
        identical_results=identical,
        cache=batch.cache,
        sharded=sharded_measurement,
        counters_consistent=counters_consistent,
    )


# --------------------------------------------------------------------- #
# Update-stream replay: incremental maintenance vs recompute-every-tick
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class MonitorReplaySpec:
    """Everything the monitor replay needs: data, subscriptions and the stream.

    ``subscriptions`` query locations are taken from the workload's generated
    queries (the workload must generate at least that many); ``mix`` shapes
    them into skyline / top-k subscriptions exactly as :func:`build_requests`
    shapes a batch trace.  ``workers`` > 1 shards the monitoring service's
    fallback passes (see :class:`~repro.monitor.MonitoringService`).
    """

    workload: WorkloadSpec = field(default_factory=lambda: WorkloadSpec(num_queries=8))
    stream: UpdateStreamSpec = field(default_factory=UpdateStreamSpec)
    subscriptions: int = 8
    mix: str = "mixed"
    k: int = 4
    workers: int = 1
    routing: str = "round_robin"
    executor: str = "thread"
    shard_fallback_threshold: int = 4

    def __post_init__(self) -> None:
        if self.mix not in _MIXES:
            raise QueryError(f"unknown mix {self.mix!r}; expected one of {_MIXES}")
        if self.k < 1:
            raise QueryError("k must be a positive integer")
        if self.subscriptions < 1:
            raise QueryError("at least one subscription is required")
        if self.workload.num_queries < self.subscriptions:
            raise QueryError(
                f"the workload generates {self.workload.num_queries} query locations "
                f"but {self.subscriptions} subscriptions were requested"
            )
        ExecutionPolicy(workers=self.workers, routing=self.routing, executor=self.executor)


@dataclass
class MonitorMeasurement:
    """The work of one stream replay (incremental or recompute)."""

    label: str
    ticks: int = 0
    updates: int = 0
    accessor_requests: int = 0


@dataclass
class MonitorReplayReport:
    """Incremental maintenance and recompute-every-tick side by side.

    ``identical_results`` verifies that after *every* tick, every
    subscription's maintained result equals the result a fresh computation
    over the mutated facility set produces.  ``counters`` is the monitoring
    service's tick-driven maintenance accounting (subscribe-time setup
    computations excluded) — its ``incremental_updates`` vs
    ``recomputations`` split is the measurement the maintenance extension
    exists for.  ``subscribe_requests`` counts the accessor requests spent
    registering the subscriptions, which neither run includes.
    """

    spec: MonitorReplaySpec
    incremental: MonitorMeasurement
    recompute: MonitorMeasurement
    identical_results: bool
    counters: MaintenanceStatistics
    fallback_ticks: int = 0
    sharded_ticks: int = 0
    subscribe_requests: int = 0

    @property
    def measurements(self) -> list[MonitorMeasurement]:
        return [self.incremental, self.recompute]

    @property
    def requests_saved(self) -> int:
        return self.recompute.accessor_requests - self.incremental.accessor_requests

    @property
    def savings_fraction(self) -> float:
        if self.recompute.accessor_requests == 0:
            return 0.0
        return self.requests_saved / self.recompute.accessor_requests


def _build_subscription_requests(
    workload: Workload, count: int, mix: str, k: int
) -> list[QueryRequest]:
    """``count`` subscription requests over the workload's query locations."""
    rng = random.Random(workload.spec.seed + 43)
    dimensions = workload.graph.num_cost_types
    requests: list[QueryRequest] = []
    for index, query in enumerate(workload.queries[:count]):
        as_skyline = mix == "skyline" or (mix == "mixed" and index % 2 == 0)
        if as_skyline:
            requests.append(SkylineRequest(query))
        else:
            weights = WeightedSum.random(dimensions, rng).weights
            requests.append(TopKRequest(query, k, weights=weights))
    return requests


def _monitor_signature(request: QueryRequest, result) -> object:
    """A comparable digest of one subscription's answer (ids for skylines,
    rounded scores for rankings — the same tolerance the maintenance tests
    use, since equal-scoring facilities at the k-boundary may legitimately
    differ between paths)."""
    if isinstance(request, SkylineRequest):
        return frozenset(result.facility_ids())
    return tuple(round(item.score, 6) for item in result)


def _maintained_signature(request: QueryRequest, maintainer) -> object:
    if isinstance(request, SkylineRequest):
        return frozenset(maintainer.skyline_ids())
    return tuple(round(score, 6) for _fid, score in maintainer.ranking())


def replay_update_stream(
    spec: MonitorReplaySpec, *, workload: Workload | None = None
) -> MonitorReplayReport:
    """Replay one update stream twice and compare the two maintenance modes.

    * **incremental** — a :class:`~repro.monitor.MonitoringService` consumes
      the stream, patching each subscription through the cheap maintenance
      paths and falling back to batched CEA only for the hard cases;
    * **recompute** — after each tick's updates are applied, every
      subscription is recomputed from scratch through a fresh batch
      :class:`~repro.service.QueryService` (the no-maintenance straw man).

    Both runs mutate their own copy of the facility set, so they see
    identical streams; after every tick each subscription's results are
    cross-checked.  Work is compared in logical accessor requests (the
    maintainers evaluate against the in-memory data layer).
    """
    workload = workload or make_workload(spec.workload)
    graph = workload.graph
    requests = _build_subscription_requests(workload, spec.subscriptions, spec.mix, spec.k)

    monitor_facilities = FacilitySet(graph, iter(workload.facilities))
    recompute_facilities = FacilitySet(graph, iter(workload.facilities))

    monitor_policy = ExecutionPolicy(
        workers=spec.workers,
        routing=spec.routing,
        executor=spec.executor,
        shard_fallback_threshold=spec.shard_fallback_threshold,
    )
    session = Session(graph, monitor_facilities, policy=monitor_policy)
    handle = session.monitor(requests)
    # The monitor's engine and accessor are created by this first
    # monitor() call, so its counters hold the subscribe work alone.
    subscribe_requests = handle.service.access_statistics.total_requests
    sids = list(handle.subscription_ids)
    # Exclude subscribe-time setup computations from the reported
    # incremental-vs-fallback split: only tick-driven maintenance counts.
    counters_baseline = handle.statistics
    stream = make_update_stream(
        graph, workload.facilities, spec.stream, subscription_ids=sids
    )

    # Incremental run.
    incremental = MonitorMeasurement(
        label="incremental", ticks=len(stream), updates=stream.num_updates
    )
    fallback_ticks = 0
    sharded_ticks = 0
    maintained_signatures: list[dict[int, object]] = []
    for tick in stream:
        response = handle.tick(tick)
        incremental.accessor_requests += response.io.total_requests
        if response.fallback_subscriptions:
            fallback_ticks += 1
        if response.sharded:
            sharded_ticks += 1
        maintained_signatures.append(
            {
                sid: _maintained_signature(request, handle.maintainer_of(sid))
                for sid, request in zip(sids, requests)
            }
        )

    # Recompute-every-tick run over an identical facility-set copy.
    recompute = MonitorMeasurement(
        label="recompute", ticks=len(stream), updates=stream.num_updates
    )
    locations = {sid: request.location for sid, request in zip(sids, requests)}
    identical = True
    for tick_index, tick in enumerate(stream):
        for update in tick:
            if isinstance(update, QueryRelocation):
                locations[update.subscription_id] = update.location
            elif isinstance(update, FacilityInsert):
                recompute_facilities.add_on_edge(
                    update.facility_id, update.edge_id, update.offset
                )
            else:
                recompute_facilities.remove(update.facility_id)
        tick_requests: list[QueryRequest] = []
        for sid, request in zip(sids, requests):
            if isinstance(request, SkylineRequest):
                tick_requests.append(SkylineRequest(locations[sid]))
            else:
                tick_requests.append(
                    TopKRequest(locations[sid], request.k, weights=request.weights)
                )
        # A fresh per-tick session: the straw man recomputes from scratch,
        # so nothing (engine, cache, memo) may survive the previous tick.
        tick_session = Session(
            graph, recompute_facilities, policy=ExecutionPolicy(memoize_results=False)
        )
        batch = tick_session.run_batch(tick_requests)
        recompute.accessor_requests += batch.io.total_requests
        for sid, response in zip(sids, batch.responses):
            if (
                _monitor_signature(response.request, response.result)
                != maintained_signatures[tick_index][sid]
            ):
                identical = False

    return MonitorReplayReport(
        spec=spec,
        incremental=incremental,
        recompute=recompute,
        identical_results=identical,
        counters=handle.statistics.since(counters_baseline),
        fallback_ticks=fallback_ticks,
        sharded_ticks=sharded_ticks,
        subscribe_requests=subscribe_requests,
    )


def format_monitor_report(report: MonitorReplayReport) -> str:
    """Human-readable table of a monitor replay (used by the ``monitor`` command)."""
    spec = report.spec
    lines = [
        f"workload: {spec.workload.num_nodes} nodes, "
        f"{spec.workload.num_facilities} facilities, d={spec.workload.num_cost_types}; "
        f"{spec.subscriptions} subscriptions ({spec.mix} mix), "
        f"{report.incremental.ticks} ticks / {report.incremental.updates} updates",
        "",
        f"{'run':<12} {'accessor reqs':>14}",
    ]
    for run in report.measurements:
        lines.append(f"{run.label:<12} {run.accessor_requests:>14}")
    counters = report.counters
    lines.append("")
    lines.append(
        f"accessor requests saved: {report.requests_saved} "
        f"({report.savings_fraction:.1%} of recompute-every-tick)"
    )
    lines.append(
        f"accessor requests at subscribe: {report.subscribe_requests} (in neither run)"
    )
    lines.append(
        f"maintenance paths: {counters.incremental_updates} incremental, "
        f"{counters.recomputations} recomputations "
        f"({report.fallback_ticks} fallback ticks, {report.sharded_ticks} sharded)"
    )
    lines.append(f"results identical: {'yes' if report.identical_results else 'NO'}")
    return "\n".join(lines) + "\n"


def format_replay_report(report: ReplayReport) -> str:
    """Human-readable table of a replay comparison (used by ``serve-batch``)."""
    lines = [
        f"workload: {report.spec.workload.num_nodes} nodes, "
        f"{report.spec.workload.num_facilities} facilities, "
        f"d={report.spec.workload.num_cost_types}, "
        f"{report.one_shot.queries} queries ({report.spec.mix} mix)",
        "",
        f"{'run':<10} {'queries':>7} {'page reads':>11} {'buffer hits':>12}",
    ]
    for run in report.measurements:
        lines.append(
            f"{run.label:<10} {run.queries:>7} {run.page_reads:>11} {run.buffer_hits:>12}"
        )
    lines.append("")
    lines.append(
        f"page reads saved: {report.page_reads_saved} "
        f"({report.savings_fraction:.1%} of one-shot)"
    )
    lines.append(f"cache record hit rate: {report.cache.hit_rate():.1%}")
    if report.sharded is not None:
        lines.append(
            f"sharded run: {report.spec.workers} workers, {report.spec.routing} routing, "
            f"{report.spec.executor} executor; merged counters "
            f"{'equal' if report.counters_consistent else 'DO NOT equal'} the shard sums"
        )
    lines.append(f"results identical: {'yes' if report.identical_results else 'NO'}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------- #
# Async load replay through the serving tier
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServeReplaySpec:
    """An async load replay through :class:`~repro.serve.ServeApp`.

    ``clients`` concurrent in-process clients fire the trace: client 0 is
    the updater lane (``ticks`` facility-update ticks, internally ordered),
    the others race the query trace between them.  ``duplicates`` leading
    requests run twice so the cross-query memo is exercised under racing
    arrival orders.  The oracle is the same trace replayed sequentially, in
    the tier's ``seq`` order, against a direct :class:`~repro.api.Session`.
    """

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    mix: str = "mixed"
    k: int = 4
    clients: int = 8
    duplicates: int = 6
    ticks: int = 4
    updates_per_tick: int = 3
    max_in_flight: int = 8
    timeout_seconds: float | None = 60.0
    #: After this many served operations, ``app.drain()`` is initiated *while
    #: the load is still running*: lanes that hit the 503 ``draining`` answer
    #: stop, in-flight work completes, and the report carries the drain
    #: verdict.  ``None`` (the default) replays the whole trace undisturbed.
    drain_after: int | None = None
    #: Optional batch-job journal path; when set the app journals acks and
    #: ticks, and a clean drain records the journal's close marker.
    journal_path: str | None = None
    #: Seed for the retrying client's jitter and idempotency-key stream.
    retry_seed: int = 0

    def __post_init__(self) -> None:
        if self.drain_after is not None and self.drain_after < 1:
            raise QueryError("drain_after must be a positive operation count")
        if self.mix not in _MIXES:
            raise QueryError(f"unknown mix {self.mix!r}; expected one of {_MIXES}")
        if self.k < 1:
            raise QueryError("k must be a positive integer")
        if self.clients < 2:
            raise QueryError(
                "the serve replay needs at least 2 clients: "
                "one updater lane plus racing query lanes"
            )
        if self.duplicates < 0:
            raise QueryError("duplicates must be non-negative")
        if self.ticks < 0:
            raise QueryError("ticks must be non-negative")
        if self.ticks and self.updates_per_tick < 1:
            raise QueryError("updates_per_tick must be positive when ticks run")
        # ServeConfig owns the admission/timeout validation.
        ServeConfig(
            max_in_flight=self.max_in_flight,
            request_timeout_seconds=self.timeout_seconds,
        )


@dataclass
class ServeReplayReport:
    """The served run against its sequential oracle.

    The differential verdict is split along the two things the paper cares
    about: ``identical_payloads`` says every response the tier produced
    under concurrency — result payloads, memo flags — equals the sequential
    replay bit for bit once wall-clock *and I/O-counter* fields are
    stripped; ``identical_io`` says the stripped I/O counters themselves
    match.  A clean run needs both (the CLI exits non-zero when either
    fails).
    """

    spec: ServeReplaySpec
    queries: int
    ticks: int
    metrics: dict
    identical_payloads: bool
    mismatched_ops: list[str] = field(default_factory=list)
    identical_io: bool = True
    mismatched_io_ops: list[str] = field(default_factory=list)
    #: :meth:`~repro.serve.DrainReport.to_payload` of the mid-load drain,
    #: or ``None`` when the spec did not request one.
    drain: dict | None = None
    #: Operations the drain turned away (never acknowledged, so excluded
    #: from — not failing — the differential).
    unserved_ops: int = 0
    #: Retry-client counters: total attempts and how many were retries.
    retry: dict | None = None

    @property
    def clean(self) -> bool:
        """Payloads *and* I/O identical — and the drain, if one ran, graceful."""
        drained_clean = self.drain is None or bool(self.drain.get("clean"))
        return self.identical_payloads and self.identical_io and drained_clean

    @property
    def operations(self) -> int:
        return self.queries + self.ticks


def _serve_ops(spec: ServeReplaySpec, workload: Workload) -> list[dict]:
    """The trace as JSON payloads: queries with duplicates, then ticks."""
    trace = ReplaySpec(workload=spec.workload, mix=spec.mix, k=spec.k)
    requests = [
        request_to_payload(request) for request in build_requests(workload, trace)
    ]
    ops: list[dict] = []
    for index, payload in enumerate(requests + requests[: spec.duplicates]):
        ops.append({"id": f"q{index}", "kind": "query", "request": payload})
    stream = make_update_stream(
        workload.graph,
        workload.facilities,
        UpdateStreamSpec(
            num_ticks=spec.ticks,
            updates_per_tick=spec.updates_per_tick,
            insert_fraction=0.5,
            delete_fraction=0.5,
            relocate_fraction=0.0,
            seed=spec.workload.seed + 53,
        ),
        subscription_ids=[],
    )
    for index, tick in enumerate(stream):
        ops.append({"id": f"t{index}", "kind": "tick", "updates": tick_to_payload(tick)})
    return ops


def _strip_wallclock(payload):
    """Drop ``elapsed_seconds`` recursively; the rest must match bit for bit."""
    if isinstance(payload, dict):
        return {
            key: _strip_wallclock(value)
            for key, value in payload.items()
            if key != "elapsed_seconds"
        }
    if isinstance(payload, list):
        return [_strip_wallclock(item) for item in payload]
    return payload


def _strip_io(payload):
    """Drop ``io`` counter blocks recursively (the payload-only view)."""
    if isinstance(payload, dict):
        return {
            key: _strip_io(value) for key, value in payload.items() if key != "io"
        }
    if isinstance(payload, list):
        return [_strip_io(item) for item in payload]
    return payload


def _collect_io(payload, out: list) -> list:
    """Every ``io`` counter block in the payload, in document order."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key == "io":
                out.append(value)
            else:
                _collect_io(value, out)
    elif isinstance(payload, list):
        for item in payload:
            _collect_io(item, out)
    return out


async def _serve_pass(
    spec: ServeReplaySpec, workload: Workload, ops: list[dict]
) -> tuple[dict[str, dict], dict, dict | None, dict]:
    """Fire the trace through the tier under real concurrency.

    Every lane speaks through a :class:`~repro.serve.RetryingClient`, so
    429/503/504 answers are retried with backoff (and every POST/PATCH
    carries an ``Idempotency-Key``, making those retries safe).  With
    ``drain_after`` set, a drain starts mid-load: the 503 ``draining``
    answer is treated as conclusive and ends the lane instead of failing
    the replay.
    """
    session = Session(workload.graph, FacilitySet(workload.graph, iter(workload.facilities)))
    journal = (
        None
        if spec.journal_path is None
        else JobJournal(spec.journal_path, fingerprint=session.dataset_fingerprint())
    )
    app = ServeApp(
        session,
        config=ServeConfig(
            max_in_flight=spec.max_in_flight,
            request_timeout_seconds=spec.timeout_seconds,
        ),
        journal=journal,
    )
    client = RetryingClient(
        InProcessClient(app),
        policy=RetryPolicy(fatal_codes=("closed", "draining")),
        seed=spec.retry_seed,
    )
    results: dict[str, dict] = {}
    lanes: list[list[dict]] = [[] for _ in range(spec.clients)]
    racing = 0
    for op in ops:
        if op["kind"] == "tick":
            lanes[0].append(op)
        else:
            lanes[1 + racing % (spec.clients - 1)].append(op)
            racing += 1

    served = 0
    drain_gate = asyncio.Event()
    drain_payload: dict | None = None

    async def worker(lane: list[dict]) -> None:
        nonlocal served
        for op in lane:
            if op["kind"] == "query":
                response = await client.post("/v1/query", {"request": op["request"]})
            else:
                response = await client.patch("/v1/facilities", {"updates": op["updates"]})
            if not response.ok:
                code = response.payload.get("error", {}).get("code")
                if code in ("draining", "closed"):
                    return  # the tier is going away; the lane ends here
                raise QueryError(
                    f"serve replay: op {op['id']} failed with {response.status}: "
                    f"{response.payload}"
                )
            results[op["id"]] = response.payload
            served += 1
            if spec.drain_after is not None and served >= spec.drain_after:
                drain_gate.set()

    async def drainer() -> None:
        nonlocal drain_payload
        await drain_gate.wait()
        report = await app.drain()
        drain_payload = report.to_payload()

    async with app:
        drain_task = (
            asyncio.create_task(drainer()) if spec.drain_after is not None else None
        )
        await asyncio.gather(*(worker(lane) for lane in lanes))
        if drain_task is not None:
            drain_gate.set()  # the trace may be shorter than the threshold
            await drain_task
        metrics = app.metrics()
    retry_stats = {"attempts": client.attempts, "retries": client.retries}
    return results, metrics, drain_payload, retry_stats


def _sequential_pass(
    workload: Workload, ops: list[dict], served: dict[str, dict]
) -> dict[str, dict]:
    """The oracle: the acknowledged ops, in ``seq`` order, on a direct Session."""
    expected: dict[str, dict] = {}
    acknowledged = [op for op in ops if op["id"] in served]
    ordered = sorted(acknowledged, key=lambda op: served[op["id"]]["seq"])
    with Session(
        workload.graph, FacilitySet(workload.graph, iter(workload.facilities))
    ) as session:
        handle = None
        for op in ordered:
            seq = served[op["id"]]["seq"]
            if op["kind"] == "query":
                response = session.query(request_from_payload(op["request"]))
                expected[op["id"]] = {"seq": seq, **query_response_to_payload(response)}
            else:
                if handle is None:
                    handle = session.monitor(())
                response = handle.tick(tick_from_payload(op["updates"]))
                invalidated = session.invalidate_result_caches()
                expected[op["id"]] = {
                    "seq": seq,
                    "invalidated_services": invalidated,
                    **tick_response_to_payload(response),
                }
    return expected


def replay_serve_workload(spec: ServeReplaySpec) -> ServeReplayReport:
    """Replay a concurrent trace through the serving tier and verify it.

    Runs the served pass first (recording the tier's ``seq`` stamps), then
    the sequential oracle in that order, and compares every payload with
    wall-clock fields stripped.
    """
    workload = make_workload(spec.workload)
    ops = _serve_ops(spec, workload)
    served, metrics, drain, retry = asyncio.run(_serve_pass(spec, workload, ops))
    expected = _sequential_pass(workload, ops, served)
    mismatched: list[str] = []
    mismatched_io: list[str] = []
    acknowledged = [op for op in ops if op["id"] in served]
    for op in acknowledged:
        got = _strip_wallclock(served[op["id"]])
        want = _strip_wallclock(expected[op["id"]])
        if _strip_io(got) != _strip_io(want):
            mismatched.append(op["id"])
        if _collect_io(got, []) != _collect_io(want, []):
            mismatched_io.append(op["id"])
    return ServeReplayReport(
        spec=spec,
        queries=sum(1 for op in acknowledged if op["kind"] == "query"),
        ticks=sum(1 for op in acknowledged if op["kind"] == "tick"),
        metrics=metrics,
        identical_payloads=not mismatched,
        mismatched_ops=mismatched,
        identical_io=not mismatched_io,
        mismatched_io_ops=mismatched_io,
        drain=drain,
        unserved_ops=len(ops) - len(acknowledged),
        retry=retry,
    )


def format_serve_report(report: ServeReplayReport) -> str:
    """Human-readable table of a serve replay (used by ``serve --replay``)."""
    spec = report.spec
    lines = [
        f"workload: {spec.workload.num_nodes} nodes, "
        f"{spec.workload.num_facilities} facilities, d={spec.workload.num_cost_types}; "
        f"{report.queries} queries ({spec.mix} mix, {spec.duplicates} duplicated) + "
        f"{report.ticks} update ticks over {spec.clients} concurrent clients",
        "",
        f"{'endpoint':<14} {'count':>6}",
    ]
    endpoints = report.metrics.get("endpoints", {})
    for label in sorted(endpoints):
        lines.append(f"{label:<14} {endpoints[label]['count']:>6}")
    admission = report.metrics.get("admission", {})
    lines.append("")
    lines.append(
        f"admission: {admission.get('admitted', 0)} admitted, "
        f"{admission.get('rejected', 0)} rejected, "
        f"high water {admission.get('high_water', 0)}/{admission.get('capacity', 0)}"
    )
    lines.append(
        f"errors: {report.metrics.get('errors', 0)}, "
        f"timeouts: {report.metrics.get('timeouts', 0)}"
    )
    if report.retry is not None and report.retry.get("retries"):
        lines.append(
            f"retries: {report.retry['retries']} of {report.retry['attempts']} attempts"
        )
    if report.drain is not None:
        drain_verdict = "clean" if report.drain.get("clean") else "FORCED"
        lines.append(
            f"drain: {drain_verdict} after {report.operations} acknowledged ops "
            f"({report.unserved_ops} turned away)"
        )
    verdict = "yes" if report.identical_payloads else "NO"
    lines.append(f"payloads identical to sequential replay: {verdict}")
    if report.mismatched_ops:
        lines.append("mismatched ops: " + ", ".join(report.mismatched_ops))
    io_verdict = "yes" if report.identical_io else "NO"
    lines.append(f"I/O counters identical to sequential replay: {io_verdict}")
    if report.mismatched_io_ops:
        lines.append("I/O-mismatched ops: " + ", ".join(report.mismatched_io_ops))
    return "\n".join(lines) + "\n"
