"""Pinned perf-baseline harness: the trajectory behind ``BENCH_4.json``.

The figure benchmarks reproduce the paper's *shapes* (page reads vs |F|, d,
buffer size); none of them pins absolute wall-clock, so until this harness
existed there was no machine-readable baseline to measure an optimisation
against.  ``run_perf_suite`` replays a fixed set of deterministic workloads
— one-shot skyline/top-k replays (expansion-bound and CEA-bound, in-memory
and disk-resident), a batched service run, a sharded run and a monitoring
tick stream — through the accessor path and the compiled-graph fast path,
and reports for each case:

* median / p95 per-query (per-tick) latency and throughput,
* heap pops and logical accessor requests,
* page reads / buffer hits (disk-resident cases),
* the fast-path speedup, plus two verification verdicts: identical results
  and identical I/O accounting between the two paths.

``repro-mcn bench perf`` writes the suite as ``BENCH_4.json`` (schema
``repro-perf/1``); future PRs append ``BENCH_<n>.json`` files and compare.
The ``--smoke`` scale runs the same cases on miniature populations so CI can
execute the full harness in seconds.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field

from repro.api.policy import ExecutionPolicy
from repro.bench.driver import build_requests, percentile, ReplaySpec
from repro.core.engine import MCNQueryEngine
from repro.datagen.updates import UpdateStreamSpec, make_update_stream
from repro.datagen.workload import WorkloadSpec, make_workload
from repro.errors import QueryError
from repro.monitor import MonitoringService
from repro.monitor.service import tick_report_to_payload
from repro.network.facilities import FacilitySet
from repro.parallel import ShardedQueryService
from repro.service import QueryService, SkylineRequest
from repro.storage.scheme import NetworkStorage

__all__ = [
    "PERF_SCHEMA",
    "HEADLINE_CASE",
    "PathMeasurement",
    "PerfCaseReport",
    "PerfSuiteReport",
    "PerfRegression",
    "run_perf_suite",
    "format_perf_report",
    "write_perf_report",
    "load_perf_baseline",
    "compare_perf_reports",
    "format_perf_comparison",
]

PERF_SCHEMA = "repro-perf/2"

#: The pinned replay workload whose fast-path speedup is the headline number:
#: a deep-expansion regime (many nodes, sparse facilities) where LSA's d
#: independent expansions each settle long stretches of network before the
#: skyline converges, so the NE inner loop dominates end to end.
HEADLINE_CASE = "replay_lsa_deep"

#: Speedups may only erode by this fraction between baselines before the
#: compare mode (``bench perf --against``) fails the run.
REGRESSION_TOLERANCE = 0.10


@dataclass
class PathMeasurement:
    """One case through one path (accessor or compiled kernel)."""

    label: str
    samples_ms: list[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    heap_pops: int = 0
    logical_requests: int = 0
    page_reads: int = 0
    buffer_hits: int = 0

    @property
    def median_ms(self) -> float:
        return percentile(self.samples_ms, 50)

    @property
    def p95_ms(self) -> float:
        return percentile(self.samples_ms, 95)

    @property
    def per_second(self) -> float:
        if not self.samples_ms or self.elapsed_seconds <= 0:
            return 0.0
        return len(self.samples_ms) / self.elapsed_seconds

    def to_payload(self) -> dict[str, object]:
        return {
            "samples": len(self.samples_ms),
            "median_ms": round(self.median_ms, 4),
            "p95_ms": round(self.p95_ms, 4),
            "per_second": round(self.per_second, 2),
            "heap_pops": self.heap_pops,
            "logical_requests": self.logical_requests,
            "page_reads": self.page_reads,
            "buffer_hits": self.buffer_hits,
        }


@dataclass
class PerfCaseReport:
    """One workload measured through both paths, with verification verdicts."""

    name: str
    unit: str  # "query" or "tick"
    description: str
    legacy: PathMeasurement
    fast: PathMeasurement
    identical_results: bool
    io_identical: bool

    @property
    def speedup_median(self) -> float:
        fast = self.fast.median_ms
        return self.legacy.median_ms / fast if fast > 0 else 0.0

    def to_payload(self) -> dict[str, object]:
        return {
            "name": self.name,
            "unit": self.unit,
            "description": self.description,
            "legacy": self.legacy.to_payload(),
            "fast": self.fast.to_payload(),
            "speedup_median": round(self.speedup_median, 3),
            "identical_results": self.identical_results,
            "io_identical": self.io_identical,
        }


@dataclass
class PerfSuiteReport:
    """The whole pinned suite plus the headline verdicts."""

    cases: list[PerfCaseReport]
    smoke: bool
    repeats: int

    @property
    def headline(self) -> PerfCaseReport:
        for case in self.cases:
            if case.name == HEADLINE_CASE:
                return case
        raise QueryError(f"the suite is missing its headline case {HEADLINE_CASE!r}")

    @property
    def all_identical(self) -> bool:
        return all(case.identical_results for case in self.cases)

    @property
    def all_io_identical(self) -> bool:
        return all(case.io_identical for case in self.cases)

    def to_payload(self) -> dict[str, object]:
        return {
            "schema": PERF_SCHEMA,
            "smoke": self.smoke,
            "repeats": self.repeats,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "headline": {
                "case": HEADLINE_CASE,
                "speedup_median": round(self.headline.speedup_median, 3),
            },
            "all_identical_results": self.all_identical,
            "all_io_identical": self.all_io_identical,
            "cases": [case.to_payload() for case in self.cases],
        }


# --------------------------------------------------------------------- #
# Case runners
# --------------------------------------------------------------------- #
def _result_signature(request, result) -> object:
    if isinstance(request, SkylineRequest):
        return tuple((item.facility_id, item.costs) for item in result)
    return tuple((item.facility_id, item.score) for item in result)


def _io_signature(measurement: PathMeasurement) -> tuple[int, int, int, int]:
    return (
        measurement.heap_pops,
        measurement.logical_requests,
        measurement.page_reads,
        measurement.buffer_hits,
    )


def _warm_up(engine, storage, requests) -> None:
    """One untimed pass so first-touch effects (lazy hot-adjacency builds,
    page-table warming) land outside the measured samples of either path."""
    for request in requests:
        if storage is not None:
            storage.reset_statistics(clear_buffer=True)
        if isinstance(request, SkylineRequest):
            engine.skyline(request.location, algorithm=request.algorithm)
        else:
            engine.top_k(
                request.location, request.k, weights=request.weights,
                algorithm=request.algorithm,
            )


def _run_one_shot(engine, storage, requests, label, repeats) -> tuple[PathMeasurement, list]:
    measurement = PathMeasurement(label=label)
    signatures: list[object] = []
    _warm_up(engine, storage, requests)
    start = time.perf_counter()
    for repeat in range(repeats):
        for request in requests:
            if storage is not None:
                storage.reset_statistics(clear_buffer=True)
            query_start = time.perf_counter()
            if isinstance(request, SkylineRequest):
                result = engine.skyline(request.location, algorithm=request.algorithm)
            else:
                result = engine.top_k(
                    request.location,
                    request.k,
                    weights=request.weights,
                    algorithm=request.algorithm,
                )
            measurement.samples_ms.append((time.perf_counter() - query_start) * 1000.0)
            stats = result.statistics
            measurement.heap_pops += stats.heap_pops
            measurement.logical_requests += stats.io.total_requests
            measurement.page_reads += stats.io.page_reads
            measurement.buffer_hits += stats.io.buffer_hits
            if repeat == 0:
                signatures.append(_result_signature(request, result))
    measurement.elapsed_seconds = time.perf_counter() - start
    return measurement, signatures


def _case_engines(spec: ReplaySpec, workload, *, use_disk: bool):
    """(storage, legacy engine, fast engine) for one case — ONE construction
    path for both measurement sides, so they can never drift apart."""
    if use_disk:
        storage = NetworkStorage.build(
            workload.graph,
            workload.facilities,
            page_size=spec.page_size,
            buffer_fraction=spec.buffer_fraction,
        )
        legacy = MCNQueryEngine(
            workload.graph, workload.facilities, storage=storage, compiled=False
        )
        fast = MCNQueryEngine(
            workload.graph, workload.facilities, storage=storage, compiled=True
        )
        return storage, legacy, fast
    legacy = MCNQueryEngine(workload.graph, workload.facilities, compiled=False)
    fast = MCNQueryEngine(workload.graph, workload.facilities, compiled=True)
    return None, legacy, fast


def _replay_case(name, description, spec: ReplaySpec, *, use_disk: bool, repeats: int) -> PerfCaseReport:
    workload = make_workload(spec.workload)
    requests = build_requests(workload, spec)
    storage, legacy_engine, fast_engine = _case_engines(spec, workload, use_disk=use_disk)
    legacy, legacy_signatures = _run_one_shot(
        legacy_engine, storage, requests, "accessor", repeats
    )
    fast, fast_signatures = _run_one_shot(fast_engine, storage, requests, "compiled", repeats)
    return PerfCaseReport(
        name=name,
        unit="query",
        description=description,
        legacy=legacy,
        fast=fast,
        identical_results=legacy_signatures == fast_signatures,
        io_identical=_io_signature(legacy) == _io_signature(fast),
    )


def _run_batch(engine, storage, requests, label, repeats, *, workers: int = 0) -> tuple[PathMeasurement, list]:
    measurement = PathMeasurement(label=label)
    signatures: list[object] = []
    _warm_up(engine, storage, requests)
    start = time.perf_counter()
    for repeat in range(repeats):
        if storage is not None:
            storage.reset_statistics(clear_buffer=True)
        if workers:
            service = ShardedQueryService(engine, workers=workers, executor="serial")
            report = service.run_batch(requests)
        else:
            report = QueryService(engine).run_batch(requests)
        for outcome in report.outcomes:
            measurement.samples_ms.append(outcome.elapsed_seconds * 1000.0)
            stats = outcome.result.statistics
            measurement.heap_pops += stats.heap_pops
            if repeat == 0:
                signatures.append(_result_signature(outcome.request, outcome.result))
        measurement.logical_requests += report.io.total_requests
        measurement.page_reads += report.io.page_reads
        measurement.buffer_hits += report.io.buffer_hits
    measurement.elapsed_seconds = time.perf_counter() - start
    return measurement, signatures


def _batch_case(
    name, description, spec: ReplaySpec, *, use_disk: bool, repeats: int, workers: int = 0
) -> PerfCaseReport:
    workload = make_workload(spec.workload)
    requests = build_requests(workload, spec)
    storage, legacy_engine, fast_engine = _case_engines(spec, workload, use_disk=use_disk)
    legacy, legacy_signatures = _run_batch(
        legacy_engine, storage, requests, "accessor", repeats, workers=workers
    )
    fast, fast_signatures = _run_batch(
        fast_engine, storage, requests, "compiled", repeats, workers=workers
    )
    return PerfCaseReport(
        name=name,
        unit="query",
        description=description,
        legacy=legacy,
        fast=fast,
        identical_results=legacy_signatures == fast_signatures,
        io_identical=_io_signature(legacy) == _io_signature(fast),
    )


def _run_monitor(workload, requests, stream, compiled: bool, label: str) -> tuple[PathMeasurement, list]:
    facilities = FacilitySet(workload.graph, iter(workload.facilities))
    policy = ExecutionPolicy(compiled="on" if compiled else "off")
    service = MonitoringService(workload.graph, facilities, policy=policy)
    for request in requests:
        service.subscribe(request)
    measurement = PathMeasurement(label=label)
    signatures: list[object] = []
    start = time.perf_counter()
    for tick in stream:
        report = service.apply_tick(tick)
        measurement.samples_ms.append(report.elapsed_seconds * 1000.0)
        measurement.logical_requests += report.io.total_requests
        payload = tick_report_to_payload(report)
        payload.pop("counters", None)  # path split is asserted via io instead
        signatures.append(payload)
    measurement.elapsed_seconds = time.perf_counter() - start
    return measurement, signatures


def _monitor_case(name, description, *, scale: dict, seed: int) -> PerfCaseReport:
    workload_spec = WorkloadSpec(
        num_nodes=scale["nodes"],
        num_facilities=scale["facilities"],
        num_cost_types=3,
        num_queries=scale["subscriptions"],
        seed=seed,
    )
    workload = make_workload(workload_spec)
    requests = [SkylineRequest(query) for query in workload.queries]
    stream_spec = UpdateStreamSpec(
        num_ticks=scale["ticks"], updates_per_tick=scale["updates_per_tick"], seed=seed + 1
    )
    stream = make_update_stream(workload.graph, workload.facilities, stream_spec)
    legacy, legacy_signatures = _run_monitor(workload, requests, stream, False, "accessor")
    fast, fast_signatures = _run_monitor(workload, requests, stream, True, "compiled")
    return PerfCaseReport(
        name=name,
        unit="tick",
        description=description,
        legacy=legacy,
        fast=fast,
        identical_results=legacy_signatures == fast_signatures,
        io_identical=legacy.logical_requests == fast.logical_requests,
    )


# --------------------------------------------------------------------- #
# The pinned suite
# --------------------------------------------------------------------- #
def run_perf_suite(*, smoke: bool = False, repeats: int | None = None) -> PerfSuiteReport:
    """Run the pinned workloads through both paths and report them side by side.

    ``smoke`` shrinks every population so the suite finishes in a few
    seconds (CI); ``repeats`` controls how many times each query trace is
    replayed per path (default 3 full / 1 smoke — more repeats tighten the
    latency percentiles).
    """
    if repeats is None:
        repeats = 1 if smoke else 3
    if repeats < 1:
        raise QueryError("repeats must be a positive integer")
    size = (
        {"nodes": 240, "facilities": 60, "queries": 8}
        if smoke
        else {"nodes": 3000, "facilities": 150, "queries": 25}
    )
    cea_size = (
        {"nodes": 240, "facilities": 80, "queries": 8}
        if smoke
        else {"nodes": 900, "facilities": 300, "queries": 40}
    )
    batch_size = (
        {"nodes": 240, "facilities": 80, "queries": 8}
        if smoke
        # Deeper than the one-shot CEA case: with 40 queries on a 900-node
        # graph the cross-query cache makes the median query a sub-ms warm
        # replay where scheduler jitter decides the ratio; 25 queries over
        # 3000 nodes keep the cache regime but leave the median query real
        # expansion work to measure.
        else {"nodes": 3000, "facilities": 300, "queries": 25}
    )
    monitor_scale = (
        {"nodes": 200, "facilities": 50, "subscriptions": 3, "ticks": 4, "updates_per_tick": 3}
        if smoke
        # Deep enough that the median tick carries real expansion work; at
        # the old 700-node scale the median tick was a sub-millisecond
        # bookkeeping tick where per-tick jitter swamped the kernels.
        else {"nodes": 4000, "facilities": 120, "subscriptions": 8, "ticks": 15, "updates_per_tick": 20}
    )
    deep_size = (
        {"nodes": 500, "facilities": 10, "queries": 4}
        if smoke
        else {"nodes": 20000, "facilities": 200, "queries": 10}
    )
    cases = [
        _replay_case(
            HEADLINE_CASE,
            "one-shot skyline replay, LSA, in-memory, deep sparse-facility "
            "expansions (the regime the compiled kernel targets: long "
            "settle stretches between facility hits)",
            ReplaySpec(
                workload=WorkloadSpec(
                    num_nodes=deep_size["nodes"],
                    num_facilities=deep_size["facilities"],
                    num_cost_types=3,
                    num_queries=deep_size["queries"],
                    seed=47,
                ),
                mix="skyline",
                algorithm="lsa",
            ),
            use_disk=False,
            repeats=repeats,
        ),
        _replay_case(
            "replay_lsa_memory",
            "one-shot skyline replay, LSA, in-memory (the paper's primary "
            "query type at the dense facility mix of BENCH_4)",
            ReplaySpec(
                workload=WorkloadSpec(
                    num_nodes=size["nodes"],
                    num_facilities=size["facilities"],
                    num_cost_types=3,
                    num_queries=size["queries"],
                    seed=41,
                ),
                mix="skyline",
                algorithm="lsa",
            ),
            use_disk=False,
            repeats=repeats,
        ),
        _replay_case(
            "replay_cea_memory",
            "one-shot mixed skyline/top-k replay, CEA, in-memory",
            ReplaySpec(
                workload=WorkloadSpec(
                    num_nodes=cea_size["nodes"],
                    num_facilities=cea_size["facilities"],
                    num_cost_types=3,
                    num_queries=cea_size["queries"],
                    seed=42,
                ),
                mix="mixed",
                algorithm="cea",
            ),
            use_disk=False,
            repeats=repeats,
        ),
        _replay_case(
            "replay_cea_disk",
            "one-shot mixed replay, CEA, disk-resident storage, cold per query",
            ReplaySpec(
                workload=WorkloadSpec(
                    num_nodes=cea_size["nodes"],
                    num_facilities=cea_size["facilities"],
                    num_cost_types=3,
                    num_queries=cea_size["queries"],
                    seed=43,
                ),
                mix="mixed",
                algorithm="cea",
                page_size=2048,
            ),
            use_disk=True,
            repeats=repeats,
        ),
        _batch_case(
            "batched_service",
            "batched replay through QueryService (cross-query cache), disk-resident",
            ReplaySpec(
                workload=WorkloadSpec(
                    num_nodes=batch_size["nodes"],
                    num_facilities=batch_size["facilities"],
                    num_cost_types=3,
                    num_queries=batch_size["queries"],
                    seed=44,
                ),
                mix="mixed",
                algorithm="cea",
                page_size=2048,
            ),
            use_disk=True,
            repeats=repeats,
        ),
        _batch_case(
            "sharded_service",
            "sharded replay (4 shards, serial executor) over one shared snapshot",
            ReplaySpec(
                workload=WorkloadSpec(
                    num_nodes=size["nodes"],
                    num_facilities=size["facilities"],
                    num_cost_types=3,
                    num_queries=size["queries"],
                    seed=45,
                ),
                mix="mixed",
                algorithm="lsa",
            ),
            use_disk=False,
            repeats=repeats,
            workers=4,
        ),
        _monitor_case(
            "monitor_tick",
            "monitoring-service update ticks (insertion pricing + CEA fallbacks)",
            scale=monitor_scale,
            seed=46,
        ),
    ]
    return PerfSuiteReport(cases=cases, smoke=smoke, repeats=repeats)


def format_perf_report(report: PerfSuiteReport) -> str:
    """Human-readable side-by-side table of the perf suite."""
    lines = [
        f"perf suite ({'smoke' if report.smoke else 'full'} scale, "
        f"{report.repeats} repeat{'s' if report.repeats != 1 else ''})",
        "",
        f"{'case':<20} {'unit':<6} {'path':<9} {'median ms':>10} {'p95 ms':>9} "
        f"{'rate/s':>9} {'heap pops':>10} {'logical IO':>11} {'page reads':>11}",
    ]
    for case in report.cases:
        for measurement in (case.legacy, case.fast):
            lines.append(
                f"{case.name:<20} {case.unit:<6} {measurement.label:<9} "
                f"{measurement.median_ms:>10.3f} {measurement.p95_ms:>9.3f} "
                f"{measurement.per_second:>9.1f} {measurement.heap_pops:>10} "
                f"{measurement.logical_requests:>11} {measurement.page_reads:>11}"
            )
        verdict = "ok" if case.identical_results and case.io_identical else "MISMATCH"
        lines.append(
            f"{'':<20} {'':<6} speedup {case.speedup_median:>6.2f}x  ({verdict})"
        )
    headline = report.headline
    lines.append("")
    lines.append(
        f"headline ({HEADLINE_CASE}): {headline.speedup_median:.2f}x median latency"
    )
    lines.append(
        "verification: results "
        + ("identical" if report.all_identical else "DIFFER")
        + ", I/O accounting "
        + ("identical" if report.all_io_identical else "DIFFERS")
    )
    return "\n".join(lines) + "\n"


def write_perf_report(report: PerfSuiteReport, path: str) -> None:
    """Write the machine-readable suite payload (``BENCH_4.json`` and successors)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_payload(), handle, indent=2, sort_keys=False)
        handle.write("\n")


# --------------------------------------------------------------------- #
# Baseline comparison (``bench perf --against BENCH_<n>.json``)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PerfRegression:
    """One metric that regressed beyond tolerance against a pinned baseline."""

    case: str
    metric: str
    baseline: float
    current: float

    @property
    def change(self) -> float:
        """Signed fractional change relative to the baseline."""
        if self.baseline == 0:
            return 0.0
        return (self.current - self.baseline) / self.baseline

    def describe(self) -> str:
        return (
            f"{self.case}: {self.metric} {self.baseline:.3f} -> "
            f"{self.current:.3f} ({self.change:+.1%})"
        )


def load_perf_baseline(path: str) -> dict:
    """Read and sanity-check a ``BENCH_<n>.json`` payload for comparison."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema", "")
    if not isinstance(schema, str) or not schema.startswith("repro-perf/"):
        raise QueryError(f"{path} is not a perf-suite payload (schema {schema!r})")
    if not isinstance(payload.get("cases"), list):
        raise QueryError(f"{path} has no case list to compare against")
    return payload


def compare_perf_reports(
    current: dict, baseline: dict, *, tolerance: float = REGRESSION_TOLERANCE
) -> list[PerfRegression]:
    """Regressions of ``current`` against ``baseline``, beyond ``tolerance``.

    Cases are matched by name; cases only one side knows about are skipped
    (new baselines add cases, old ones lack them).  Two metrics are policed:

    * ``speedup_median`` may not erode by more than ``tolerance`` — this is
      scale-free, so it holds even when a smoke run is compared against a
      full-scale baseline;
    * the fast path's ``median_ms`` may not grow by more than ``tolerance``,
      but only when both payloads ran the same scale (``smoke`` flags match)
      — absolute latencies across scales are incomparable.
    """
    if tolerance <= 0:
        raise QueryError("the regression tolerance must be positive")
    baseline_cases = {
        case.get("name"): case for case in baseline.get("cases", [])
    }
    same_scale = bool(current.get("smoke")) == bool(baseline.get("smoke"))
    regressions: list[PerfRegression] = []
    for case in current.get("cases", []):
        reference = baseline_cases.get(case.get("name"))
        if reference is None:
            continue
        base_speedup = float(reference.get("speedup_median", 0.0))
        cur_speedup = float(case.get("speedup_median", 0.0))
        if base_speedup > 0 and cur_speedup < base_speedup * (1.0 - tolerance):
            regressions.append(
                PerfRegression(
                    case=case["name"],
                    metric="speedup_median",
                    baseline=base_speedup,
                    current=cur_speedup,
                )
            )
        if not same_scale:
            continue
        base_median = float(reference.get("fast", {}).get("median_ms", 0.0))
        cur_median = float(case.get("fast", {}).get("median_ms", 0.0))
        if base_median > 0 and cur_median > base_median * (1.0 + tolerance):
            regressions.append(
                PerfRegression(
                    case=case["name"],
                    metric="fast median_ms",
                    baseline=base_median,
                    current=cur_median,
                )
            )
    return regressions


def format_perf_comparison(
    regressions: list[PerfRegression], *, baseline_label: str
) -> str:
    """Human-readable verdict of a ``--against`` comparison."""
    if not regressions:
        return f"baseline {baseline_label}: no regressions beyond tolerance\n"
    lines = [f"baseline {baseline_label}: {len(regressions)} regression(s)"]
    lines.extend(f"  {regression.describe()}" for regression in regressions)
    return "\n".join(lines) + "\n"
