"""Sharded parallel execution of query batches: :class:`ShardedQueryService`.

The batch :class:`~repro.service.QueryService` executes a workload strictly
sequentially, so a multi-core host answers a 100-query batch no faster than a
single core.  This module scales the same workload *out*: the batch is
partitioned into shards (see :mod:`repro.parallel.routing`), each shard runs
on its own worker, and the per-shard :class:`~repro.service.BatchReport`\\ s
are merged back into one report whose outcomes sit in submission order —
indistinguishable, result-wise, from a sequential run.

Worker isolation is the whole trick.  Every worker owns

* an **independent data layer** — a read-only snapshot view of the shared
  engine's accessor (:meth:`repro.storage.NetworkStorage.snapshot_view` or
  :meth:`repro.network.accessor.InMemoryAccessor.snapshot_view`), sharing the
  built network pages copy-free while bringing a private LRU buffer and
  private I/O counters;
* an **independent** :class:`~repro.service.CrossQueryExpansionCache` and
  result memo, so no query ever observes another worker's mutation.

Because the caches only short-circuit reads of immutable records, a sharded
run returns byte-identical results to the sequential service no matter how
requests are routed — the differential-oracle test-suite asserts exactly
that.

Three executors are supported: ``"process"`` (a fork-based process pool —
true multi-core parallelism; the engine is inherited copy-on-write, so
workers share the built network without pickling it), ``"thread"`` (a thread
pool — parallel I/O-style execution inside one interpreter) and ``"serial"``
(the same sharding and merging without any pool, useful as a deterministic
oracle and on single-core hosts).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from repro.api.policy import (
    DEFAULT_POLICY,
    EXECUTORS,
    ExecutionPolicy,
    legacy_kwargs_warning,
)
from repro.core.engine import MCNQueryEngine
from repro.errors import PolicyError, QueryError
from repro.parallel.routing import ROUTINGS, Shard, ShardPlan, plan_shards
from repro.service.cache import CacheStatistics
from repro.service.requests import BatchReport, QueryOutcome, QueryRequest
from repro.service.service import QueryService, validate_request
from repro.network.accessor import AccessStatistics

__all__ = [
    "EXECUTORS",
    "ParallelExecution",
    "ShardReport",
    "ShardedBatchReport",
    "ShardedQueryService",
    "merge_shard_reports",
    "set_shard_timeout",
    "set_worker_fault_hook",
]

@dataclass(frozen=True)
class ParallelExecution:
    """The parallelism knob accepted by :meth:`QueryService.run_batch`.

    ``workers`` is the number of shards (and the pool size); ``routing`` is
    ``"round_robin"`` or ``"locality"``; ``executor`` is ``"process"``
    (default), ``"thread"`` or ``"serial"``.
    """

    workers: int = 2
    routing: str = "round_robin"
    executor: str = "process"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise QueryError("the number of workers must be at least 1")
        if self.routing not in ROUTINGS:
            raise QueryError(f"unknown routing {self.routing!r}; expected one of {ROUTINGS}")
        if self.executor not in EXECUTORS:
            raise QueryError(f"unknown executor {self.executor!r}; expected one of {EXECUTORS}")


@dataclass
class ShardReport:
    """One shard's execution: where it ran and what it cost."""

    index: int
    positions: tuple[int, ...]
    report: BatchReport
    pid: int = 0

    @property
    def size(self) -> int:
        return len(self.positions)

    @property
    def page_reads(self) -> int:
        return self.report.io.page_reads


@dataclass
class ShardedBatchReport(BatchReport):
    """The merged view of a sharded run.

    Extends :class:`~repro.service.BatchReport` (outcomes in submission
    order, summed I/O and cache counters, wall-clock elapsed) with the
    per-shard reports and the run's parallelism parameters, so callers can
    verify that the merged counters equal the sum of the shard counters.
    """

    routing: str = "round_robin"
    executor: str = "serial"
    workers: int = 1
    shards: list[ShardReport] = field(default_factory=list)
    #: Shard indices whose pool worker died (or hung past the deadline) and
    #: that were re-executed serially in the parent.  Empty on a clean run.
    retried_shards: tuple[int, ...] = ()

    def describe(self) -> dict[str, object]:
        summary = super().describe()
        summary.update(
            workers=self.workers,
            routing=self.routing,
            executor=self.executor,
            shards=[shard.size for shard in self.shards],
            retried_shards=list(self.retried_shards),
        )
        return summary


def merge_shard_reports(
    shard_reports: Sequence[ShardReport],
    *,
    elapsed_seconds: float,
    routing: str,
    executor: str,
    workers: int,
    retried_shards: Sequence[int] = (),
) -> ShardedBatchReport:
    """Merge per-shard reports into one submission-ordered aggregate report.

    Outcomes are re-ordered (and re-ticketed) by their original batch
    position, so the merged report is ordered exactly as the sequential
    service would have ordered it; I/O and cache counters are the plain sums
    of the shard counters.
    """
    by_position: dict[int, QueryOutcome] = {}
    io = AccessStatistics()
    cache = CacheStatistics()
    for shard in shard_reports:
        io.accumulate(shard.report.io)
        cache.accumulate(shard.report.cache)
        for position, outcome in zip(shard.positions, shard.report.outcomes):
            outcome.ticket = position
            by_position[position] = outcome
    outcomes = [by_position[position] for position in sorted(by_position)]
    return ShardedBatchReport(
        outcomes=outcomes,
        elapsed_seconds=elapsed_seconds,
        io=io,
        cache=cache,
        routing=routing,
        executor=executor,
        workers=workers,
        shards=list(shard_reports),
        retried_shards=tuple(retried_shards),
    )


def _snapshot_accessor(engine: MCNQueryEngine):
    """A fresh isolated data layer over the engine's (shared, immutable) data."""
    accessor = engine.accessor
    snapshot = getattr(accessor, "snapshot_view", None)
    if snapshot is None:
        raise QueryError(
            f"the engine's data layer ({type(accessor).__name__}) does not support "
            "read-only snapshot views; sharded execution needs NetworkStorage or "
            "InMemoryAccessor"
        )
    return snapshot()


def _make_worker_service(engine: MCNQueryEngine, policy: ExecutionPolicy) -> QueryService:
    # Workers adopt the parent engine's CompiledGraph instead of re-reading
    # (or re-compiling) the network per worker: the snapshot is immutable, so
    # fork workers inherit it copy-on-write and thread workers read it
    # concurrently, while every worker still charges its own snapshot-view
    # buffer and counters.  With no parent snapshot this passes None, which
    # defers to the per-engine default (the REPRO_COMPILED environment toggle).
    worker_engine = MCNQueryEngine(
        engine.graph,
        engine.facilities,
        accessor=_snapshot_accessor(engine),
        compiled=engine.compiled_graph,
    )
    # workers=1 so a worker's own run_batch could never re-shard recursively.
    return QueryService(worker_engine, policy=policy.replace(workers=1))


def _execute_shard(service: QueryService, shard: Shard) -> ShardReport:
    start = time.perf_counter()
    io_before = service.engine.accessor.statistics.snapshot()
    cache_before = service.cache.cache_statistics.snapshot()
    outcomes = [service.execute(request) for request in shard.requests]
    report = BatchReport(
        outcomes=outcomes,
        elapsed_seconds=time.perf_counter() - start,
        io=service.engine.accessor.statistics.since(io_before),
        cache=service.cache.cache_statistics.since(cache_before),
    )
    return ShardReport(index=shard.index, positions=shard.positions, report=report, pid=os.getpid())


# ------------------------------------------------------------------ #
# Fork-based worker plumbing.  The parent stashes its engine + knobs in a
# module global right before the pool forks; children inherit the global
# (copy-on-write, no pickling of the network) and build their own service
# over a snapshot view of the inherited storage.  The lock serialises
# concurrent process-pool launches in one parent: the global must not be
# swapped (or cleared) between another run's pool creation and its fork.
# ------------------------------------------------------------------ #
_FORK_CONTEXT: tuple[MCNQueryEngine, ExecutionPolicy] | None = None
_FORK_SERVICE: QueryService | None = None
_FORK_LOCK = threading.Lock()

# Chaos seams (set in the parent, inherited copy-on-write by fork workers).
# The hook runs inside the worker with the shard index right before the shard
# executes — the fault plane's ``worker_fault_hook`` uses it to kill
# (``os._exit``) or hang a specific worker.  The timeout bounds how long the
# parent waits for any one shard before writing the worker off as hung and
# retrying the shard itself.  Both are ``None`` (and free) in normal runs.
_WORKER_FAULT_HOOK = None
_SHARD_TIMEOUT: float | None = None


def set_worker_fault_hook(hook) -> None:
    """Install (or with ``None`` clear) the per-shard worker fault hook."""
    global _WORKER_FAULT_HOOK
    _WORKER_FAULT_HOOK = hook


def set_shard_timeout(seconds: float | None) -> None:
    """Bound the parent's wait per process shard (``None`` = wait forever)."""
    global _SHARD_TIMEOUT
    _SHARD_TIMEOUT = None if seconds is None else float(seconds)


def _init_fork_worker() -> None:
    global _FORK_SERVICE
    if _FORK_CONTEXT is None:  # pragma: no cover - defensive; set before forking
        raise QueryError("fork worker started without a parent context")
    engine, policy = _FORK_CONTEXT
    _FORK_SERVICE = _make_worker_service(engine, policy)


def _run_shard_in_fork(shard: Shard) -> ShardReport:
    if _FORK_SERVICE is None:  # pragma: no cover - initializer always ran first
        raise QueryError("fork worker has no service")
    if _WORKER_FAULT_HOOK is not None:
        _WORKER_FAULT_HOOK(shard.index)
    return _execute_shard(_FORK_SERVICE, shard)


class ShardedQueryService:
    """Executes query batches across parallel shard workers.

    Parameters
    ----------
    engine:
        The shared engine; its graph, facility set and built storage are the
        read-only substrate every worker snapshots.
    policy:
        An :class:`~repro.api.ExecutionPolicy` supplying the parallelism
        spec (``workers`` / ``routing`` / ``executor``) and the caching
        knobs replicated into every worker.  This is the constructor the
        :class:`repro.api.Session` facade uses.
    workers / routing / executor / memoize_results / harvest_settled / max_cached_entries:
        **Deprecated** keyword equivalents of the policy fields, kept
        working for pre-policy call sites (a :class:`DeprecationWarning` is
        emitted).  ``workers`` is the number of shards / pool size (>= 1,
        default 2); ``routing`` is ``"round_robin"`` or ``"locality"``;
        ``executor`` is ``"process"`` (default; requires the ``fork`` start
        method), ``"thread"`` or ``"serial"``; the caching knobs are
        forwarded to every worker's :class:`~repro.service.QueryService`.

    Example
    -------
    >>> from repro import MCNQueryEngine, SkylineRequest
    >>> from repro.parallel import ShardedQueryService
    >>> from repro.datagen import WorkloadSpec, make_workload
    >>> w = make_workload(WorkloadSpec(num_nodes=150, num_facilities=60, num_queries=4, seed=5))
    >>> engine = MCNQueryEngine(w.graph, w.facilities, use_disk=True, page_size=1024)
    >>> sharded = ShardedQueryService(engine, workers=2, executor="serial")
    >>> report = sharded.run_batch([SkylineRequest(q) for q in w.queries])
    >>> len(report.outcomes), len(report.shards)
    (4, 2)
    """

    _UNSET = object()

    def __init__(
        self,
        engine: MCNQueryEngine,
        *,
        workers: int = _UNSET,  # type: ignore[assignment]
        routing: str = _UNSET,  # type: ignore[assignment]
        executor: str = _UNSET,  # type: ignore[assignment]
        memoize_results: bool = _UNSET,  # type: ignore[assignment]
        harvest_settled: bool = _UNSET,  # type: ignore[assignment]
        max_cached_entries: int | None = _UNSET,  # type: ignore[assignment]
        policy: ExecutionPolicy | None = None,
    ):
        legacy = {
            name: value
            for name, value in (
                ("workers", workers),
                ("routing", routing),
                ("executor", executor),
                ("memoize_results", memoize_results),
                ("harvest_settled", harvest_settled),
                ("max_cached_entries", max_cached_entries),
            )
            if value is not ShardedQueryService._UNSET
        }
        if policy is not None:
            if legacy:
                raise PolicyError(
                    f"pass either policy= or the legacy knobs {sorted(legacy)}, "
                    "not both"
                )
            if not isinstance(policy, ExecutionPolicy):
                raise PolicyError(
                    f"expected an ExecutionPolicy, got {type(policy).__name__}"
                )
        else:
            if legacy:
                legacy_kwargs_warning(
                    "ShardedQueryService",
                    legacy,
                    "workers=..., routing=..., executor=..., memoize_results=...",
                )
            # The pre-policy constructor defaulted to two process workers.
            fields = {"workers": 2, "executor": "process"}
            fields.update(legacy)
            policy = DEFAULT_POLICY.replace(**fields)
        if policy.executor == "process" and "fork" not in multiprocessing.get_all_start_methods():
            raise QueryError(
                "the process executor needs the 'fork' start method (unavailable on "
                "this platform); use executor='thread' instead"
            )
        # Fail fast if the data layer cannot be snapshotted at all.
        _snapshot_accessor(engine)
        self._engine = engine
        self._policy = policy

    @classmethod
    def from_service(
        cls, service: QueryService, parallel: ParallelExecution
    ) -> "ShardedQueryService":
        """A sharded service mirroring an existing sequential service's knobs."""
        return cls(
            service.engine,
            policy=service.policy.replace(
                workers=parallel.workers,
                routing=parallel.routing,
                executor=parallel.executor,
                max_cached_entries=service.cache.max_entries,
            ),
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> MCNQueryEngine:
        return self._engine

    @property
    def policy(self) -> ExecutionPolicy:
        """The execution policy (parallelism spec + per-worker caching knobs)."""
        return self._policy

    @property
    def workers(self) -> int:
        return self._policy.workers

    @property
    def routing(self) -> str:
        return self._policy.routing

    @property
    def executor(self) -> str:
        return self._policy.executor

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def plan(self, requests: Sequence[QueryRequest]) -> ShardPlan:
        """The shard plan ``run_batch`` would use for ``requests``."""
        return plan_shards(
            requests, self._policy.workers, routing=self._policy.routing, graph=self._engine.graph
        )

    def run_batch(self, requests: Sequence[QueryRequest]) -> ShardedBatchReport:
        """Execute ``requests`` across the shard workers and merge the reports.

        Results (facilities and their order within each outcome, and the
        order of outcomes) are identical to a sequential
        :meth:`QueryService.run_batch` over the same engine; only the I/O
        split across workers differs.
        """
        for request in requests:
            validate_request(self._engine, request)
        if self._engine.compiled_graph is not None:
            # Refresh the shared snapshot once, here in the caller's thread,
            # before any worker exists.  The facility set is frozen for the
            # duration of the batch, so every worker's own ensure_fresh()
            # is then a no-op revision check — without this, thread-executor
            # workers could race to patch the same stale snapshot mid-search.
            self._engine.compiled_graph.ensure_fresh()
        start = time.perf_counter()
        plan = self.plan(requests)
        retried: tuple[int, ...] = ()
        if not plan.shards:
            shard_reports: list[ShardReport] = []
        elif self._policy.executor == "process" and len(plan.shards) > 1:
            shard_reports, retried = self._run_process(plan)
        elif self._policy.executor == "thread" and len(plan.shards) > 1:
            shard_reports = self._run_thread(plan)
        else:
            shard_reports = self._run_serial(plan)
        return merge_shard_reports(
            shard_reports,
            elapsed_seconds=time.perf_counter() - start,
            routing=self._policy.routing,
            executor=self._policy.executor,
            workers=self._policy.workers,
            retried_shards=retried,
        )

    # ------------------------------------------------------------------ #
    # Executor backends
    # ------------------------------------------------------------------ #
    def _run_serial(self, plan: ShardPlan) -> list[ShardReport]:
        return [
            _execute_shard(_make_worker_service(self._engine, self._policy), shard)
            for shard in plan.shards
        ]

    def _run_thread(self, plan: ShardPlan) -> list[ShardReport]:
        services = [_make_worker_service(self._engine, self._policy) for _ in plan.shards]
        with ThreadPoolExecutor(max_workers=len(plan.shards)) as pool:
            return list(pool.map(_execute_shard, services, plan.shards))

    def _run_process(
        self, plan: ShardPlan
    ) -> tuple[list[ShardReport], tuple[int, ...]]:
        global _FORK_CONTEXT
        self._check_picklable(plan)
        context = multiprocessing.get_context("fork")
        reports: dict[int, ShardReport] = {}
        failed: list[Shard] = []
        with _FORK_LOCK:
            _FORK_CONTEXT = (self._engine, self._policy)
            try:
                with ProcessPoolExecutor(
                    max_workers=min(self._policy.workers, len(plan.shards)),
                    mp_context=context,
                    initializer=_init_fork_worker,
                ) as pool:
                    futures = [
                        (shard, pool.submit(_run_shard_in_fork, shard))
                        for shard in plan.shards
                    ]
                    for shard, future in futures:
                        try:
                            reports[shard.index] = future.result(timeout=_SHARD_TIMEOUT)
                        except (BrokenProcessPool, _FuturesTimeoutError, TimeoutError):
                            # A worker died (BrokenProcessPool poisons every
                            # pending future of the pool) or hung past the
                            # deadline.  The shard's *work* is not lost: it is
                            # re-executed below, in the parent, once the pool
                            # is out of the way.
                            failed.append(shard)
            finally:
                _FORK_CONTEXT = None
        retried: list[int] = []
        for shard in failed:
            reports[shard.index] = _execute_shard(
                _make_worker_service(self._engine, self._policy), shard
            )
            retried.append(shard.index)
        return [reports[shard.index] for shard in plan.shards], tuple(retried)

    @staticmethod
    def _check_picklable(plan: ShardPlan) -> None:
        try:
            pickle.dumps(plan.shards)
        except Exception as error:
            raise QueryError(
                "the process executor must pickle requests to pool workers and "
                f"this batch cannot be pickled ({error}); use executor='thread' "
                "or replace custom aggregate callables with the built-in aggregates"
            ) from None
