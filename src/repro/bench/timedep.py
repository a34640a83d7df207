"""Time-dependent bench family: incremental re-profiling vs rebuild-every-tick.

A rush-hour :class:`~repro.datagen.EdgeCostStreamSpec` stream is replayed
against live subscriptions two ways:

* **incremental** — one long-lived :class:`~repro.monitor.MonitoringService`
  absorbs every tick through :meth:`apply_tick`: compiled edge vectors are
  patched in place and only the tick's stale subscriptions recompute.  An
  off-peak tick that re-profiles nothing costs nothing.
* **rebuild** — the straw man a system without the maintenance extension is
  stuck with: after every tick the edge costs are written into the graph and
  a *fresh* service is built from scratch (facility index, compiled graph,
  one full query per subscription), whether or not the tick changed anything.

Both legs must end with bit-identical subscription answers
(``results_identical``) — the bench is its own differential check — while
the logical accessor-request counters expose how much work the incremental
path avoids.  It measures no time; the repository benchmark's
``departures`` workload (``perfbench/``) does.

Run via ``repro-mcn bench timedep``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.datagen.updates import EdgeCostStreamSpec, make_edge_cost_stream
from repro.datagen.workload import Workload, WorkloadSpec, make_workload
from repro.errors import QueryError
from repro.monitor.service import MonitoringService
from repro.monitor.stream import EdgeCostUpdate, UpdateStream
from repro.network.facilities import FacilitySet
from repro.service.requests import QueryRequest, SkylineRequest, TopKRequest

__all__ = [
    "TimedepBenchSpec",
    "TimedepLeg",
    "TimedepReport",
    "run_timedep_bench",
    "format_timedep_report",
]


@dataclass(frozen=True)
class TimedepBenchSpec:
    """One timedep run: the monitored workload plus the rush-hour stream."""

    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(
            num_nodes=300, num_facilities=60, num_cost_types=2, num_queries=6, seed=7
        )
    )
    #: The default window runs well past the rush hour: a periodic
    #: re-profiler ticks all day, but congestion only moves around the peak,
    #: so most ticks are empty — exactly the regime where incremental
    #: maintenance wins over rebuilding.
    stream: EdgeCostStreamSpec = field(
        default_factory=lambda: EdgeCostStreamSpec(
            num_ticks=24, start_time=6.0, time_step=0.5
        )
    )
    k: int = 3

    def __post_init__(self):
        if self.workload.num_queries < 1:
            raise QueryError(
                f"need at least one subscription, got {self.workload.num_queries!r}"
            )
        if self.stream.num_ticks < 1:
            raise QueryError(
                f"need at least one tick to replay, got {self.stream.num_ticks!r}"
            )
        if self.k < 1:
            raise QueryError(f"k must be a positive integer, got {self.k!r}")

    def requests(self, workload: Workload) -> list[QueryRequest]:
        """The subscription load: queries alternate skyline / top-k."""
        dims = self.workload.num_cost_types
        weights = tuple(round(1.0 / dims, 9) for _ in range(dims))
        return [
            SkylineRequest(query)
            if index % 2 == 0
            else TopKRequest(query, self.k, weights=weights)
            for index, query in enumerate(workload.queries)
        ]


@dataclass(frozen=True)
class TimedepLeg:
    """One replay strategy's work over the whole stream."""

    total_requests: int
    adjacency_requests: int
    recomputations: int
    edge_cost_refreshes: int
    services_built: int

    def to_payload(self) -> dict:
        return {
            "total_requests": self.total_requests,
            "adjacency_requests": self.adjacency_requests,
            "recomputations": self.recomputations,
            "edge_cost_refreshes": self.edge_cost_refreshes,
            "services_built": self.services_built,
        }


@dataclass(frozen=True)
class TimedepReport:
    """The full timedep verdict for one spec."""

    spec: TimedepBenchSpec
    subscriptions: int
    busy_ticks: int
    empty_ticks: int
    stream_updates: int
    incremental: TimedepLeg
    rebuild: TimedepLeg
    results_identical: bool

    @property
    def work_ratio(self) -> float | None:
        """Rebuild-leg accessor requests per incremental-leg request."""
        if not self.incremental.total_requests:
            return None
        return self.rebuild.total_requests / self.incremental.total_requests

    def to_payload(self) -> dict:
        payload = {
            "spec": {
                "workload": {
                    "num_nodes": self.spec.workload.num_nodes,
                    "num_facilities": self.spec.workload.num_facilities,
                    "num_cost_types": self.spec.workload.num_cost_types,
                    "num_queries": self.spec.workload.num_queries,
                    "seed": self.spec.workload.seed,
                },
                "stream": {
                    "num_ticks": self.spec.stream.num_ticks,
                    "start_time": self.spec.stream.start_time,
                    "time_step": self.spec.stream.time_step,
                    "affected_fraction": self.spec.stream.affected_fraction,
                    "seed": self.spec.stream.seed,
                },
                "k": self.spec.k,
            },
            "subscriptions": self.subscriptions,
            "busy_ticks": self.busy_ticks,
            "empty_ticks": self.empty_ticks,
            "stream_updates": self.stream_updates,
            "incremental": self.incremental.to_payload(),
            "rebuild": self.rebuild.to_payload(),
            "results_identical": self.results_identical,
        }
        if self.work_ratio is not None:
            payload["work_ratio"] = round(self.work_ratio, 4)
        return payload


def _run_incremental_leg(
    spec: TimedepBenchSpec, stream: UpdateStream
) -> tuple[TimedepLeg, list[dict]]:
    workload = make_workload(spec.workload)
    facilities = FacilitySet(workload.graph, iter(workload.facilities))
    service = MonitoringService(workload.graph, facilities)
    subscription_ids = [
        service.subscribe(request) for request in spec.requests(workload)
    ]
    # Setup (initial subscription queries) stays outside the counted replay;
    # both legs start from fully-computed answers.
    io_before = service.access_statistics.snapshot()
    counters_before = service.statistics.snapshot()
    for tick in stream.ticks:
        service.apply_tick(tick)
    io = service.access_statistics
    counters = service.statistics
    signatures = [service.result_signature(sid) for sid in subscription_ids]
    service.close()
    return (
        TimedepLeg(
            total_requests=io.total_requests - io_before.total_requests,
            adjacency_requests=io.adjacency_requests - io_before.adjacency_requests,
            recomputations=counters.recomputations - counters_before.recomputations,
            edge_cost_refreshes=(
                counters.edge_cost_refreshes - counters_before.edge_cost_refreshes
            ),
            services_built=1,
        ),
        signatures,
    )


def _run_rebuild_leg(
    spec: TimedepBenchSpec, stream: UpdateStream
) -> tuple[TimedepLeg, list[dict]]:
    workload = make_workload(spec.workload)
    requests = spec.requests(workload)
    graph = workload.graph
    total_requests = 0
    adjacency_requests = 0
    recomputations = 0
    signatures: list[dict] = []
    for tick in stream.ticks:
        for update in tick.updates:
            graph.update_edge_costs(update.edge_id, list(update.costs))
        facilities = FacilitySet(graph, iter(workload.facilities))
        service = MonitoringService(graph, facilities)
        subscription_ids = [service.subscribe(request) for request in requests]
        io = service.access_statistics
        total_requests += io.total_requests
        adjacency_requests += io.adjacency_requests
        recomputations += len(subscription_ids)
        signatures = [service.result_signature(sid) for sid in subscription_ids]
        service.close()
    return (
        TimedepLeg(
            total_requests=total_requests,
            adjacency_requests=adjacency_requests,
            recomputations=recomputations,
            edge_cost_refreshes=0,
            services_built=len(stream.ticks),
        ),
        signatures,
    )


def run_timedep_bench(spec: TimedepBenchSpec) -> TimedepReport:
    """Replay one rush-hour stream incrementally and via rebuild-every-tick.

    The stream is generated once (against a throwaway workload instance) and
    replayed verbatim in both legs; each leg regenerates the workload from
    the spec so neither sees the other's mutations.
    """
    stream_source = make_workload(spec.workload)
    stream = make_edge_cost_stream(stream_source.graph, spec.stream)
    for tick in stream.ticks:
        for update in tick.updates:
            if not isinstance(update, EdgeCostUpdate):  # pragma: no cover
                raise QueryError("timedep streams carry only edge-cost updates")

    incremental, incremental_signatures = _run_incremental_leg(spec, stream)
    rebuild, rebuild_signatures = _run_rebuild_leg(spec, stream)

    busy_ticks = sum(1 for tick in stream.ticks if len(tick))
    return TimedepReport(
        spec=spec,
        subscriptions=spec.workload.num_queries,
        busy_ticks=busy_ticks,
        empty_ticks=len(stream.ticks) - busy_ticks,
        stream_updates=sum(len(tick) for tick in stream.ticks),
        incremental=incremental,
        rebuild=rebuild,
        results_identical=incremental_signatures == rebuild_signatures,
    )


def format_timedep_report(report: TimedepReport) -> str:
    """Human-readable table for ``repro-mcn bench timedep``."""
    workload = report.spec.workload
    stream = report.spec.stream
    lines = [
        f"workload: {workload.num_nodes} nodes, d={workload.num_cost_types}, "
        f"{workload.num_facilities} facilities, {report.subscriptions} subscriptions",
        f"stream: {stream.num_ticks} ticks from t={stream.start_time} "
        f"(step {stream.time_step}), {report.stream_updates} edge re-profilings, "
        f"{report.busy_ticks} busy / {report.empty_ticks} empty ticks",
        "",
        f"{'leg':<14} {'requests':>10} {'adjacency':>10} "
        f"{'recomputes':>10} {'services':>9}",
    ]
    for name, leg in (("incremental", report.incremental), ("rebuild", report.rebuild)):
        lines.append(
            f"{name:<14} {leg.total_requests:>10} "
            f"{leg.adjacency_requests:>10} {leg.recomputations:>10} "
            f"{leg.services_built:>9}"
        )
    lines.append("")
    if report.work_ratio is not None:
        lines.append(
            f"rebuild-every-tick does {report.work_ratio:.2f}x the accessor "
            "requests of the incremental path"
        )
    else:
        lines.append(
            "incremental replay issued no accessor requests (all ticks off-peak)"
        )
    lines.append(
        "final answers identical across legs: "
        + ("yes" if report.results_identical else "NO")
    )
    return "\n".join(lines) + "\n"
