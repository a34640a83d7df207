"""High-level facade: the :class:`MCNQueryEngine`.

The engine bundles a multi-cost graph, its facility set and a data layer
(in-memory or disk-resident), and exposes the paper's query types behind a
small API:

* :meth:`MCNQueryEngine.skyline` / :meth:`iter_skyline` — MCN skyline (LSA,
  CEA or the straightforward baseline), progressive when iterated.
* :meth:`MCNQueryEngine.top_k` — MCN top-k for a known ``k``.
* :meth:`MCNQueryEngine.iter_top` — incremental top-k (``k`` not known in
  advance).
* :meth:`MCNQueryEngine.skyline_search` / :meth:`top_k_search` — construct
  the underlying search objects without running them; this is the hook the
  batch :class:`~repro.service.QueryService` uses to inject its cross-query
  expansion cache as the data layer.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence

from repro.api.policy import compiled_env_default
from repro.core.aggregates import (
    AggregateFunction,
    MaxCost,
    WeightedLpNorm,
    WeightedSum,
    check_monotone,
)
from repro.core.baseline import baseline_skyline, baseline_top_k
from repro.core.expansion import ExpansionSeeds
from repro.core.incremental import IncrementalTopK
from repro.core.results import RankedFacility, SkylineFacility, SkylineResult, TopKResult
from repro.core.skyline import MCNSkylineSearch, ProbingPolicy
from repro.core.topk import MCNTopKSearch
from repro.errors import QueryError
from repro.network.accessor import GraphAccessor, InMemoryAccessor
from repro.network.compiled import CompiledGraph
from repro.network.facilities import FacilitySet
from repro.network.graph import MultiCostGraph
from repro.network.location import NetworkLocation
from repro.storage.scheme import NetworkStorage

__all__ = ["MCNQueryEngine"]

_ALGORITHMS = ("cea", "lsa", "baseline")


class MCNQueryEngine:
    """Preference queries (skyline and top-k) over a multi-cost network."""

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        *,
        accessor: GraphAccessor | None = None,
        compiled: bool | CompiledGraph | None = None,
    ):
        """Create an engine over ``graph`` and ``facilities``.

        ``accessor`` is the data layer queries run against; by default an
        :class:`InMemoryAccessor` over ``graph``.  A
        :class:`~repro.storage.NetworkStorage` — bulk-loaded with
        ``NetworkStorage.build(graph, facilities, page_size=...,
        buffer_fraction=...)``, opened from a dataset pack, or a
        :meth:`~repro.storage.NetworkStorage.snapshot_view` of either — runs
        them against the disk-resident storage scheme and reports page
        reads; it is then also :attr:`storage`.  Any other
        :class:`GraphAccessor` works too.

        ``compiled`` controls the columnar fast path.  ``True`` compiles the
        engine's data layer into a :class:`~repro.network.compiled.CompiledGraph`
        so LSA/CEA (skyline, top-k, incremental top-k) run on the
        :class:`~repro.core.kernel.ExpansionKernel` — answers and all I/O
        counters stay bit-identical, queries just get faster.  An existing
        :class:`CompiledGraph` is adopted as-is (this is how shard workers
        share one snapshot instead of each re-reading the network).
        ``None`` (the default) consults the ``REPRO_COMPILED`` environment
        toggle (parsed only by :func:`repro.api.policy.compiled_env_default`);
        ``False`` disables the fast path outright.
        """
        self._graph = graph
        self._facilities = facilities
        if accessor is None:
            accessor = InMemoryAccessor(graph, facilities)
        elif accessor.num_cost_types != graph.num_cost_types:
            raise QueryError(
                f"accessor has {accessor.num_cost_types} cost types "
                f"for a {graph.num_cost_types}-cost graph"
            )
        self._accessor: GraphAccessor = accessor
        if compiled is None:
            compiled = compiled_env_default()
        if isinstance(compiled, CompiledGraph):
            if compiled.graph is not graph:
                raise QueryError("the compiled graph was built over a different graph")
            if compiled.facilities is not facilities:
                raise QueryError(
                    "the compiled graph was built over a different facility set"
                )
            self._compiled: CompiledGraph | None = compiled
        elif isinstance(compiled, bool):
            self._compiled = (
                CompiledGraph.from_accessor(self._accessor) if compiled else None
            )
        else:
            raise QueryError(
                f"compiled must be a bool, None or a CompiledGraph, "
                f"got {type(compiled).__name__}"
            )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> MultiCostGraph:
        return self._graph

    @property
    def facilities(self) -> FacilitySet:
        return self._facilities

    @property
    def accessor(self) -> GraphAccessor:
        """The data layer queries run against."""
        return self._accessor

    @property
    def storage(self) -> NetworkStorage | None:
        """The data layer when it is a disk-resident :class:`NetworkStorage`."""
        accessor = self._accessor
        return accessor if isinstance(accessor, NetworkStorage) else None

    @property
    def compiled_graph(self) -> CompiledGraph | None:
        """The columnar snapshot the fast path runs on (``None`` when disabled)."""
        return self._compiled

    def _search_compiled(self) -> CompiledGraph | None:
        """The snapshot to hand a new search, refreshed against facility mutations."""
        if self._compiled is None:
            return None
        return self._compiled.ensure_fresh()

    # ------------------------------------------------------------------ #
    # Skyline
    # ------------------------------------------------------------------ #
    def skyline(
        self,
        query: NetworkLocation,
        *,
        algorithm: str = "cea",
        probing: ProbingPolicy = ProbingPolicy.ROUND_ROBIN,
        first_nn_shortcut: bool = True,
    ) -> SkylineResult:
        """The MCN skyline of ``query``: facilities not dominated under all cost types.

        Parameters
        ----------
        query:
            The query location (a node or a point along an edge).
        algorithm:
            ``"cea"`` (default, shared fetch-once expansions), ``"lsa"``
            (independent expansions) or ``"baseline"`` (compute every
            facility's full cost vector, then a plain skyline).
        probing:
            Expansion probing policy; round-robin is the paper's choice.
        first_nn_shortcut:
            Report the first nearest facility of every cost type immediately
            (the Section IV-A enhancement).  Ignored by the baseline.

        Returns
        -------
        SkylineResult
            The skyline members in report order, with per-query
            :class:`~repro.core.results.QueryStatistics` attached.

        Example
        -------
        >>> from repro.datagen import WorkloadSpec, make_workload
        >>> w = make_workload(WorkloadSpec(num_nodes=120, num_facilities=40, seed=1))
        >>> engine = MCNQueryEngine(w.graph, w.facilities)
        >>> len(engine.skyline(w.queries[0], algorithm="cea")) >= 1
        True
        """
        algorithm = self._check_algorithm(algorithm)
        if algorithm == "baseline":
            return baseline_skyline(self._accessor, self._graph, query)
        return self.skyline_search(
            query,
            algorithm=algorithm,
            probing=probing,
            first_nn_shortcut=first_nn_shortcut,
        ).run()

    def skyline_search(
        self,
        query: NetworkLocation,
        *,
        algorithm: str = "cea",
        probing: ProbingPolicy = ProbingPolicy.ROUND_ROBIN,
        first_nn_shortcut: bool = True,
        data_layer: GraphAccessor | None = None,
        seeds: ExpansionSeeds | None = None,
    ) -> MCNSkylineSearch:
        """Construct (but do not run) a skyline search over this engine's data.

        This is the hook used by :class:`repro.service.QueryService`: passing
        ``data_layer`` makes the search's expansions read through an external
        accessor (e.g. a cross-query cache shared by a whole batch) while the
        engine's own accessor still provides the I/O counters; ``seeds`` lets
        a caller reuse memoised :class:`ExpansionSeeds` for the location.

        Returns
        -------
        MCNSkylineSearch
            Call :meth:`~repro.core.skyline.MCNSkylineSearch.run` for the
            full skyline or iterate it for progressive results.

        Example
        -------
        >>> search = engine.skyline_search(query, algorithm="lsa")  # doctest: +SKIP
        >>> result = search.run()  # doctest: +SKIP
        """
        algorithm = self._check_algorithm(algorithm)
        if algorithm == "baseline":
            raise QueryError("the baseline algorithm has no search object; use skyline() instead")
        return MCNSkylineSearch(
            self._accessor,
            self._graph,
            query,
            share_accesses=(algorithm == "cea"),
            probing=probing,
            first_nn_shortcut=first_nn_shortcut,
            data_layer=data_layer,
            seeds=seeds,
            compiled=self._search_compiled(),
        )

    def iter_skyline(
        self,
        query: NetworkLocation,
        *,
        algorithm: str = "cea",
        probing: ProbingPolicy = ProbingPolicy.ROUND_ROBIN,
    ) -> Iterator[SkylineFacility]:
        """Progressively yield skyline facilities as they are confirmed.

        Parameters are as for :meth:`skyline`; the ``baseline`` algorithm is
        rejected because it is not progressive.

        Returns
        -------
        Iterator[SkylineFacility]
            Yields each member as soon as it can no longer be dominated.

        Example
        -------
        >>> first = next(engine.iter_skyline(query))  # doctest: +SKIP
        """
        algorithm = self._check_algorithm(algorithm)
        if algorithm == "baseline":
            raise QueryError("the baseline algorithm is not progressive; use skyline() instead")
        return iter(self.skyline_search(query, algorithm=algorithm, probing=probing))

    # ------------------------------------------------------------------ #
    # Top-k
    # ------------------------------------------------------------------ #
    def top_k(
        self,
        query: NetworkLocation,
        k: int,
        *,
        aggregate: AggregateFunction | None = None,
        weights: Sequence[float] | None = None,
        algorithm: str = "cea",
    ) -> TopKResult:
        """The ``k`` facilities with the smallest aggregate cost from ``query``.

        Parameters
        ----------
        query:
            The query location.
        k:
            Number of facilities to retrieve (``k >= 1``).
        aggregate / weights:
            Either an increasingly monotone aggregate function, or the
            coefficients of a :class:`~repro.core.aggregates.WeightedSum`
            (mutually exclusive).  Defaults to a uniform weighted sum.
        algorithm:
            ``"cea"``, ``"lsa"`` or ``"baseline"`` — as for :meth:`skyline`.

        Returns
        -------
        TopKResult
            Facilities in increasing score order, with statistics attached.

        Example
        -------
        >>> best = engine.top_k(query, k=2, weights=[0.9, 0.1])  # doctest: +SKIP
        >>> [item.facility_id for item in best]  # doctest: +SKIP
        """
        algorithm = self._check_algorithm(algorithm)
        if algorithm == "baseline":
            function = self.resolve_aggregate(aggregate, weights)
            return baseline_top_k(self._accessor, self._graph, query, function, k)
        return self.top_k_search(
            query, k, aggregate=aggregate, weights=weights, algorithm=algorithm
        ).run()

    def top_k_search(
        self,
        query: NetworkLocation,
        k: int,
        *,
        aggregate: AggregateFunction | None = None,
        weights: Sequence[float] | None = None,
        algorithm: str = "cea",
        data_layer: GraphAccessor | None = None,
        seeds: ExpansionSeeds | None = None,
    ) -> MCNTopKSearch:
        """Construct (but do not run) a top-k search over this engine's data.

        The service-layer counterpart of :meth:`skyline_search`: ``data_layer``
        injects an external accessor (e.g. the batch service's cross-query
        cache) and ``seeds`` reuses memoised expansion seeds.

        Returns
        -------
        MCNTopKSearch
            Call :meth:`~repro.core.topk.MCNTopKSearch.run` to execute.

        Example
        -------
        >>> result = engine.top_k_search(query, 3, weights=[0.5, 0.5]).run()  # doctest: +SKIP
        """
        algorithm = self._check_algorithm(algorithm)
        if algorithm == "baseline":
            raise QueryError("the baseline algorithm has no search object; use top_k() instead")
        function = self.resolve_aggregate(aggregate, weights)
        return MCNTopKSearch(
            self._accessor,
            self._graph,
            query,
            function,
            k,
            share_accesses=(algorithm == "cea"),
            data_layer=data_layer,
            seeds=seeds,
            compiled=self._search_compiled(),
        )

    def iter_top(
        self,
        query: NetworkLocation,
        *,
        aggregate: AggregateFunction | None = None,
        weights: Sequence[float] | None = None,
        algorithm: str = "cea",
    ) -> IncrementalTopK:
        """Incremental top-k: an iterator over facilities in increasing aggregate cost.

        Parameters are as for :meth:`top_k`, except no ``k`` is fixed — keep
        pulling from the returned iterator until satisfied.  The ``baseline``
        algorithm is rejected because it is not incremental.

        Returns
        -------
        IncrementalTopK
            An iterator of :class:`~repro.core.results.RankedFacility`.

        Example
        -------
        >>> stream = engine.iter_top(query, weights=[0.5, 0.5])  # doctest: +SKIP
        >>> next(stream)  # doctest: +SKIP
        """
        algorithm = self._check_algorithm(algorithm)
        if algorithm == "baseline":
            raise QueryError("the baseline algorithm is not incremental; use top_k() instead")
        function = self.resolve_aggregate(aggregate, weights)
        return IncrementalTopK(
            self._accessor,
            self._graph,
            query,
            function,
            share_accesses=(algorithm == "cea"),
            compiled=self._search_compiled(),
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def random_weights(self, rng: random.Random | None = None) -> WeightedSum:
        """A random weighted-sum aggregate matching the graph's cost types (paper's setting)."""
        return WeightedSum.random(self._graph.num_cost_types, rng)

    def resolve_aggregate(
        self, aggregate: AggregateFunction | None, weights: Sequence[float] | None
    ) -> AggregateFunction:
        """The validated aggregate function implied by ``(aggregate, weights)``.

        Exactly one of the two may be given (neither → uniform weighted sum).
        Weight tuples must match the graph's number of cost types; the
        built-in aggregates are accepted as-is after an arity check, while
        arbitrary callables are probed with :func:`check_monotone`.  Raises
        :class:`QueryError` on any violation — the batch service calls this
        at submission time so a bad request can never abort a running batch.
        """
        if aggregate is not None and weights is not None:
            raise QueryError("pass either an aggregate function or weights, not both")
        dimensions = self._graph.num_cost_types
        if weights is not None:
            if len(weights) != dimensions:
                raise QueryError(
                    f"got {len(weights)} weights for a {dimensions}-cost network"
                )
            return WeightedSum(tuple(float(w) for w in weights))
        if aggregate is None:
            return WeightedSum.uniform(dimensions)
        if isinstance(aggregate, (WeightedSum, WeightedLpNorm, MaxCost)):
            # Known monotone by construction; only the arity can be wrong.
            if len(aggregate.weights) != dimensions:
                raise QueryError(
                    f"aggregate has {len(aggregate.weights)} weights "
                    f"for a {dimensions}-cost network"
                )
            return aggregate
        if not check_monotone(aggregate, dimensions):
            raise QueryError("the aggregate cost function must be increasingly monotone")
        return aggregate

    @staticmethod
    def _check_algorithm(algorithm: str) -> str:
        normalized = algorithm.lower()
        if normalized not in _ALGORITHMS:
            raise QueryError(f"unknown algorithm {algorithm!r}; expected one of {_ALGORITHMS}")
        return normalized
