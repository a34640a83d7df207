"""The batch query service: many queries, one engine, shared expansion state.

:class:`QueryService` sits on top of a :class:`~repro.MCNQueryEngine` and
executes *batches* of mixed skyline / top-k requests.  Two interfaces are
offered:

* **batch** — :meth:`QueryService.run_batch` takes a sequence of requests and
  returns a :class:`~repro.service.requests.BatchReport`;
* **streaming** — :meth:`QueryService.submit` enqueues requests one at a time
  (returning a ticket), :meth:`QueryService.drain` executes everything queued
  and returns the outcomes in submission order.

All queries run through one :class:`CrossQueryExpansionCache`, so adjacency
and facility records fetched for an early query are reused by every later
one — the CEA information-sharing idea lifted from a single query to a whole
workload.  Repeat requests are answered straight from a result memo without
touching the engine.  Because the cache only short-circuits *reads* of
immutable records, batched results are always identical to what one-shot
engine calls would return; only the I/O differs.  The memo and the cache
bound are configured by the ``policy=`` :class:`~repro.api.ExecutionPolicy`
the service is built with (``memoize_results`` / ``max_cached_entries``).

Example
-------
>>> from repro import MCNQueryEngine, NetworkStorage, QueryService, SkylineRequest, TopKRequest
>>> from repro.datagen import WorkloadSpec, make_workload
>>> w = make_workload(WorkloadSpec(num_nodes=150, num_facilities=60, num_queries=2, seed=5))
>>> storage = NetworkStorage.build(w.graph, w.facilities, page_size=1024)
>>> engine = MCNQueryEngine(w.graph, w.facilities, accessor=storage)
>>> service = QueryService(engine)
>>> report = service.run_batch(
...     [SkylineRequest(w.queries[0]), TopKRequest(w.queries[1], k=3)]
... )
>>> len(report.outcomes)
2
"""

from __future__ import annotations

import time
from collections.abc import Sequence

from repro.api.policy import DEFAULT_POLICY, ExecutionPolicy
from repro.core.baseline import baseline_skyline, baseline_top_k
from repro.core.engine import MCNQueryEngine
from repro.core.results import SkylineResult, TopKResult
from repro.errors import PolicyError, QueryError
from repro.network.accessor import AccessStatistics
from repro.service.cache import CacheStatistics, CrossQueryExpansionCache
from repro.service.requests import (
    BatchReport,
    QueryOutcome,
    QueryRequest,
    SkylineRequest,
    TopKRequest,
)

__all__ = ["QueryService", "validate_request"]


def validate_request(engine: MCNQueryEngine, request: QueryRequest) -> None:
    """Reject a request the engine could never answer (type, location, aggregate).

    Shared by :class:`QueryService` and the sharded parallel service, both of
    which validate at submission time so a bad request can never abort a
    batch that already did work for earlier ones.
    """
    if not isinstance(request, (SkylineRequest, TopKRequest)):
        raise QueryError(
            f"expected a SkylineRequest or TopKRequest, got {type(request).__name__}"
        )
    request.location.validate(engine.graph)
    if isinstance(request, TopKRequest):
        engine.resolve_aggregate(request.aggregate, request.weights)


class QueryService:
    """Executes batches of preference queries against one shared engine.

    Parameters
    ----------
    engine:
        The engine to serve queries from.  Its accessor (in-memory or
        disk-resident) is the base data layer whose I/O counters are diffed
        per query.
    cache:
        Optional pre-built :class:`CrossQueryExpansionCache`; it must wrap
        the engine's own accessor.  By default a fresh cache is created.
    policy:
        An :class:`~repro.api.ExecutionPolicy` supplying the caching knobs:
        ``memoize_results`` answers identical repeat requests from a result
        memo; ``max_cached_entries`` bounds the default cache (LRU, ``None``
        = unbounded) and is mutually exclusive with ``cache``.  The policy's
        parallelism fields are ignored here (sharding is the caller's
        concern — see :meth:`run_batch`).
    """

    def __init__(
        self,
        engine: MCNQueryEngine,
        *,
        cache: CrossQueryExpansionCache | None = None,
        policy: ExecutionPolicy = DEFAULT_POLICY,
    ):
        if not isinstance(policy, ExecutionPolicy):
            raise PolicyError(
                f"expected an ExecutionPolicy, got {type(policy).__name__}"
            )
        if cache is not None:
            if cache.base_accessor is not engine.accessor:
                raise QueryError("the cache must wrap the engine's own accessor")
            if policy.max_cached_entries is not None:
                raise QueryError(
                    "pass either a pre-built cache or max_cached_entries, not both"
                )
        self._engine = engine
        self._policy = policy
        self._cache = cache or CrossQueryExpansionCache(
            engine.accessor, max_entries=policy.max_cached_entries
        )
        self._memoize_results = policy.memoize_results
        self._memo: dict[QueryRequest, SkylineResult | TopKResult] = {}
        self._pending: list[tuple[int, QueryRequest]] = []
        self._next_ticket = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def engine(self) -> MCNQueryEngine:
        """The engine queries are executed against."""
        return self._engine

    @property
    def policy(self) -> ExecutionPolicy:
        """The execution policy supplying this service's caching knobs."""
        return self._policy

    @property
    def cache(self) -> CrossQueryExpansionCache:
        """The cross-query expansion cache shared by every request."""
        return self._cache

    @property
    def cache_statistics(self) -> CacheStatistics:
        """Cumulative hit/miss counters of the shared cache (plus memo hits)."""
        return self._cache.cache_statistics

    @property
    def pending_count(self) -> int:
        """Number of submitted requests not yet drained."""
        return len(self._pending)

    @property
    def memoize_results(self) -> bool:
        """Whether identical repeat requests are answered from the result memo."""
        return self._memoize_results

    def reset_cache(self) -> None:
        """Drop all shared expansion state and the result memo (cold restart)."""
        self._cache.clear()
        self._memo.clear()

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    def submit(self, request: QueryRequest) -> int:
        """Enqueue one request and return its ticket.

        Tickets increase monotonically across the service's lifetime and
        identify the request's outcome in the list returned by
        :meth:`drain`.

        Example
        -------
        >>> ticket = service.submit(SkylineRequest(location))  # doctest: +SKIP
        """
        self._check_request(request)
        ticket = self._next_ticket
        self._next_ticket += 1
        self._pending.append((ticket, request))
        return ticket

    def drain(self) -> list[QueryOutcome]:
        """Execute every pending request and return outcomes in submission order.

        Returns an empty list when nothing is pending.  Requests are fully
        validated at submission time (type, algorithm, ``k``, location,
        aggregate arity/monotonicity), so a drain does not abort halfway
        through; if a query nevertheless raises, the queue has already been
        cleared and the service stays usable.

        Example
        -------
        >>> outcomes = service.drain()  # doctest: +SKIP
        """
        pending, self._pending = self._pending, []
        return [self._execute(ticket, request) for ticket, request in pending]

    # ------------------------------------------------------------------ #
    # Batch interface
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        requests: Sequence[QueryRequest],
        *,
        policy: ExecutionPolicy | None = None,
    ) -> BatchReport:
        """Execute ``requests`` in order and return a :class:`BatchReport`.

        The report carries each request's :class:`QueryOutcome` plus the
        batch totals: wall-clock time and the per-batch deltas of the
        base-accessor I/O counters and the cache counters.

        A ``policy`` override with ``workers > 1`` delegates to a
        :class:`~repro.parallel.ShardedQueryService` over this service's
        engine: the batch is partitioned into shards executed concurrently
        (each worker with its own data layer, cross-query cache — *not* this
        service's cache — and the *override's* caching knobs), and the
        returned report is the merged per-shard report with outcomes in
        submission order, exactly as a sequential run would order them.
        With ``workers == 1`` (or no override) the batch runs sequentially
        through this service's own cache.

        Example
        -------
        >>> report = service.run_batch([SkylineRequest(q) for q in queries])  # doctest: +SKIP
        >>> report.page_reads  # doctest: +SKIP
        """
        if policy is not None:
            if policy.workers > 1:
                # Imported lazily: repro.parallel depends on this module.
                from repro.parallel import ShardedQueryService

                return ShardedQueryService(self._engine, policy=policy).run_batch(requests)
            caching = (policy.memoize_results, policy.max_cached_entries)
            if caching != (self._policy.memoize_results, self._policy.max_cached_entries):
                # A sequential batch runs through THIS service's cache and
                # memo, which were fixed at construction — silently ignoring
                # the override's caching knobs would be worse than refusing.
                raise PolicyError(
                    "a workers=1 policy override cannot change this service's "
                    "caching knobs (memoize_results / max_cached_entries are "
                    "fixed at construction); build a QueryService, or open a "
                    "repro.api.Session, with the desired policy"
                )
        start = time.perf_counter()
        io_before = self._engine.accessor.statistics.snapshot()
        cache_before = self._cache.cache_statistics.snapshot()
        outcomes = [self.execute(request) for request in requests]
        return BatchReport(
            outcomes=outcomes,
            elapsed_seconds=time.perf_counter() - start,
            io=self._engine.accessor.statistics.since(io_before),
            cache=self._cache.cache_statistics.since(cache_before),
        )

    def execute(self, request: QueryRequest) -> QueryOutcome:
        """Execute one request immediately (through the shared cache).

        Equivalent to ``submit`` + ``drain`` for a single request; pending
        submissions are left untouched.
        """
        self._check_request(request)
        ticket = self._next_ticket
        self._next_ticket += 1
        return self._execute(ticket, request)

    # ------------------------------------------------------------------ #
    # Execution internals
    # ------------------------------------------------------------------ #
    def _execute(self, ticket: int, request: QueryRequest) -> QueryOutcome:
        memo_key = self._memo_key(request)
        start = time.perf_counter()
        if memo_key is not None and memo_key in self._memo:
            self._cache.cache_statistics.result_hits += 1
            return QueryOutcome(
                ticket=ticket,
                request=request,
                result=self._memo[memo_key],
                io=AccessStatistics(),
                elapsed_seconds=time.perf_counter() - start,
                served_from_memo=True,
            )
        self._cache.cache_statistics.result_misses += 1
        io_before = self._engine.accessor.statistics.snapshot()
        result = self._run(request)
        outcome = QueryOutcome(
            ticket=ticket,
            request=request,
            result=result,
            io=self._engine.accessor.statistics.since(io_before),
            elapsed_seconds=time.perf_counter() - start,
        )
        if memo_key is not None:
            self._memo[memo_key] = result
        return outcome

    def _run(self, request: QueryRequest) -> SkylineResult | TopKResult:
        graph = self._engine.graph
        seeds = self._cache.seeds_for(graph, request.location)
        if isinstance(request, SkylineRequest):
            if request.algorithm == "baseline":
                return baseline_skyline(self._cache, graph, request.location)
            search = self._engine.skyline_search(
                request.location,
                algorithm=request.algorithm,
                probing=request.probing,
                first_nn_shortcut=request.first_nn_shortcut,
                data_layer=self._cache,
                seeds=seeds,
            )
        else:
            if request.algorithm == "baseline":
                function = self._engine.resolve_aggregate(request.aggregate, request.weights)
                return baseline_top_k(self._cache, graph, request.location, function, request.k)
            search = self._engine.top_k_search(
                request.location,
                request.k,
                aggregate=request.aggregate,
                weights=request.weights,
                algorithm=request.algorithm,
                data_layer=self._cache,
                seeds=seeds,
            )
        return search.run()

    def _memo_key(self, request: QueryRequest) -> QueryRequest | None:
        if not self._memoize_results:
            return None
        try:
            hash(request)
        except TypeError:
            # e.g. a TopKRequest carrying an unhashable aggregate callable.
            return None
        return request

    def _check_request(self, request: QueryRequest) -> None:
        # Reject unanswerable requests at submission time, so a bad request
        # can never abort a drain() that already did work for earlier ones.
        validate_request(self._engine, request)
