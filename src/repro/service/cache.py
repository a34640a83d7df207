"""Cross-query expansion-state cache: the data-layer half of the batch service.

The paper's CEA shares fetched information *within* one query through a
:class:`~repro.network.accessor.FetchOnceCache`.  The batch service
generalises the same idea *across* queries: one
:class:`CrossQueryExpansionCache` outlives every query of a batch, so

* the adjacency list of a node and the facility list of an edge reach the
  underlying accessor (and therefore the simulated disk) at most once per
  batch, no matter how many queries traverse them;
* :class:`~repro.core.expansion.ExpansionSeeds` are memoised per query
  location, so repeated or co-located queries skip re-deriving their anchor
  costs.

Exact repeat *requests* never reach the cache: the service's result memo
answers them — see ``QueryService``.

The cache implements the :class:`~repro.network.accessor.GraphAccessor`
protocol, so every algorithm of :mod:`repro.core` can run through it
unchanged; record lists handed out are the same immutable tuples the base
accessor produced, which is why a warm cache can never change query results,
only the I/O needed to obtain them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.expansion import ExpansionSeeds
from repro.core.kernel import DirectChargeLayer, KernelDataLayer
from repro.errors import QueryError
from repro.network.accessor import (
    AccessStatistics,
    AdjacencyRecord,
    FacilityRecord,
    GraphAccessor,
)
from repro.network.compiled import CompiledGraph
from repro.network.facilities import FacilityId
from repro.network.graph import EdgeId, MultiCostGraph, NodeId
from repro.network.location import NetworkLocation

__all__ = ["CacheStatistics", "CrossQueryExpansionCache", "SharedCacheChargeLayer"]


@dataclass
class CacheStatistics:
    """Hit/miss counters of the cross-query cache (all cumulative)."""

    adjacency_hits: int = 0
    adjacency_misses: int = 0
    facility_hits: int = 0
    facility_misses: int = 0
    facility_edge_hits: int = 0
    facility_edge_misses: int = 0
    seed_hits: int = 0
    seed_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    evictions: int = 0

    @property
    def record_hits(self) -> int:
        """Data-record requests answered without touching the base accessor."""
        return self.adjacency_hits + self.facility_hits + self.facility_edge_hits

    @property
    def record_misses(self) -> int:
        return self.adjacency_misses + self.facility_misses + self.facility_edge_misses

    def hit_rate(self) -> float:
        """Fraction of record requests served from the cache (0.0 when idle)."""
        total = self.record_hits + self.record_misses
        return self.record_hits / total if total else 0.0

    def snapshot(self) -> "CacheStatistics":
        return CacheStatistics(**vars(self))

    def since(self, earlier: "CacheStatistics") -> "CacheStatistics":
        """The counter deltas accumulated since ``earlier`` was snapshotted."""
        return CacheStatistics(
            **{name: value - getattr(earlier, name) for name, value in vars(self).items()}
        )

    def accumulate(self, other: "CacheStatistics") -> None:
        """Add ``other``'s counters into this one (merging per-shard reports)."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


class CrossQueryExpansionCache:
    """Expansion state shared by every query of a batch.

    Parameters
    ----------
    accessor:
        The base data layer (typically the engine's
        :class:`~repro.storage.NetworkStorage`).  All misses are forwarded
        here, so its I/O counters keep measuring the physical work.
    max_entries:
        Optional bound on the number of entries in each cached store —
        adjacency lists, edge facility lists and memoised seeds (each map
        bounded independently, LRU eviction).
        ``None`` (default) caches without bound — appropriate for batches
        over the moderate networks of the experiments.
    """

    def __init__(self, accessor: GraphAccessor, *, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise QueryError("max_entries must be positive (or None for unbounded)")
        self._accessor = accessor
        self._max_entries = max_entries
        self._adjacency: dict[NodeId, list[AdjacencyRecord]] = {}
        self._edge_facilities: dict[EdgeId, list[FacilityRecord]] = {}
        self._facility_edges: dict[FacilityId, EdgeId] = {}
        self._seeds: dict[NetworkLocation, ExpansionSeeds] = {}
        self._stats = CacheStatistics()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def base_accessor(self) -> GraphAccessor:
        """The accessor misses are forwarded to."""
        return self._accessor

    @property
    def num_cost_types(self) -> int:
        return self._accessor.num_cost_types

    @property
    def statistics(self) -> AccessStatistics:
        """The *base* accessor's I/O counters (the accessor-protocol view)."""
        return self._accessor.statistics

    @property
    def cache_statistics(self) -> CacheStatistics:
        """Hit/miss counters of this cache layer."""
        return self._stats

    @property
    def cached_nodes(self) -> int:
        return len(self._adjacency)

    @property
    def cached_edges(self) -> int:
        return len(self._edge_facilities)

    @property
    def max_entries(self) -> int | None:
        return self._max_entries

    def describe(self) -> dict[str, object]:
        """Summary used by the CLI and the replay driver."""
        return {
            "cached_nodes": self.cached_nodes,
            "cached_edges": self.cached_edges,
            "cached_seeds": len(self._seeds),
            "hit_rate": round(self._stats.hit_rate(), 4),
            "evictions": self._stats.evictions,
        }

    def clear(self) -> None:
        """Drop every cached record and seed (counters survive)."""
        self._adjacency.clear()
        self._edge_facilities.clear()
        self._facility_edges.clear()
        self._seeds.clear()

    # ------------------------------------------------------------------ #
    # GraphAccessor protocol
    # ------------------------------------------------------------------ #
    def adjacency(self, node_id: NodeId) -> list[AdjacencyRecord]:
        cached = self._adjacency.get(node_id)
        if cached is not None:
            self._stats.adjacency_hits += 1
            self._touch(self._adjacency, node_id)
            return cached
        self._stats.adjacency_misses += 1
        records = self._accessor.adjacency(node_id)
        self._insert(self._adjacency, node_id, records)
        return records

    def edge_facilities(self, edge_id: EdgeId) -> list[FacilityRecord]:
        cached = self._edge_facilities.get(edge_id)
        if cached is not None:
            self._stats.facility_hits += 1
            self._touch(self._edge_facilities, edge_id)
            return cached
        self._stats.facility_misses += 1
        records = self._accessor.edge_facilities(edge_id)
        self._insert(self._edge_facilities, edge_id, records)
        return records

    def facility_edge(self, facility_id: FacilityId) -> EdgeId:
        cached = self._facility_edges.get(facility_id)
        if cached is not None:
            self._stats.facility_edge_hits += 1
            return cached
        self._stats.facility_edge_misses += 1
        edge_id = self._accessor.facility_edge(facility_id)
        self._facility_edges[facility_id] = edge_id
        return edge_id

    # ------------------------------------------------------------------ #
    # Expansion-seed memoisation
    # ------------------------------------------------------------------ #
    def seeds_for(self, graph: MultiCostGraph, query: NetworkLocation) -> ExpansionSeeds:
        """The (memoised) expansion seeds of a query location."""
        seeds = self._seeds.get(query)
        if seeds is not None:
            self._stats.seed_hits += 1
            self._touch(self._seeds, query)
            return seeds
        self._stats.seed_misses += 1
        seeds = ExpansionSeeds.from_query(graph, query)
        self._insert(self._seeds, query, seeds)
        return seeds

    # ------------------------------------------------------------------ #
    # Kernel fast path
    # ------------------------------------------------------------------ #
    def kernel_charge_layer(self, compiled: CompiledGraph) -> KernelDataLayer | None:
        """A charge layer the kernel factory may use instead of forwarding.

        Returns a :class:`SharedCacheChargeLayer` bound to this cache, or
        ``None`` when the base accessor cannot be charged through page plans
        (an exotic accessor type, or plans compiled over a different
        storage) — the factory then falls back to a
        :class:`~repro.core.kernel.ForwardingLayer`, which is always
        correct.
        """
        try:
            return SharedCacheChargeLayer(compiled, self)
        except QueryError:
            return None

    # ------------------------------------------------------------------ #
    # LRU plumbing
    # ------------------------------------------------------------------ #
    def _touch(self, store: dict, key) -> None:
        if self._max_entries is None:
            return
        store[key] = store.pop(key)

    def _insert(self, store: dict, key, value) -> None:
        store[key] = value
        if self._max_entries is not None and len(store) > self._max_entries:
            store.pop(next(iter(store)))
            self._stats.evictions += 1


class SharedCacheChargeLayer(DirectChargeLayer):
    """Charge a :class:`CrossQueryExpansionCache` without routing reads through it.

    The forwarding path re-enacts every kernel request as a real accessor
    call so the cache's counters, LRU order and the base accessor's I/O stay
    exactly what the legacy expansions would have produced — at the price of
    materialising records the kernel never looks at.  This layer produces
    the *same observable state* directly: a hit is a dict probe plus a hit
    counter (and the LRU touch a bounded cache would have performed); a miss
    charges the base accessor through :class:`~repro.core.kernel.
    DirectChargeLayer` (counter increment, page-plan replay through the
    storage buffer) and then populates the cache with records rebuilt from
    the compiled columns — value-identical to what the base accessor would
    have returned, so later queries (including legacy-path ones sharing the
    cache) read the very same data.  Nothing about cache contents, hit/miss
    statistics, eviction counts or base-accessor I/O differs from the
    forwarding path; only the per-request Python overhead does.
    """

    __slots__ = (
        "_cache",
        "_cache_stats",
        "_adj_store",
        "_fac_store",
        "_edge_store",
        "_bounded",
        "_node_id_of",
        "_edge_id_of",
    )

    def __init__(self, compiled: CompiledGraph, cache: CrossQueryExpansionCache):
        super().__init__(compiled, cache.base_accessor)
        self._cache = cache
        self._cache_stats = cache._stats
        self._adj_store = cache._adjacency
        self._fac_store = cache._edge_facilities
        self._edge_store = cache._facility_edges
        # An unbounded cache's LRU touch is a no-op; hits are the hot path,
        # so skip the move-to-back entirely instead of re-deciding per
        # request (the touch is inlined below for the same reason).
        self._bounded = cache._max_entries is not None
        self._node_id_of = compiled.node_ids
        self._edge_id_of = compiled.edge_ids

    def note_adjacency(self, node_idx: int) -> None:
        key = self._node_id_of[node_idx]
        store = self._adj_store
        if key in store:
            self._cache_stats.adjacency_hits += 1
            if self._bounded:
                store[key] = store.pop(key)
            return
        self._cache_stats.adjacency_misses += 1
        DirectChargeLayer.note_adjacency(self, node_idx)
        self._cache._insert(store, key, self.compiled.adjacency_records(node_idx))

    def note_edge_facilities(self, edge_idx: int) -> None:
        key = self._edge_id_of[edge_idx]
        store = self._fac_store
        if key in store:
            self._cache_stats.facility_hits += 1
            if self._bounded:
                store[key] = store.pop(key)
            return
        self._cache_stats.facility_misses += 1
        DirectChargeLayer.note_edge_facilities(self, edge_idx)
        self._cache._insert(
            store, key, list(self.compiled.edge_facility_records(edge_idx))
        )

    def note_seed_edge(self, edge_id: EdgeId) -> None:
        self.note_edge_facilities(self.compiled.edge_index[edge_id])

    def facility_edge(self, facility_id: FacilityId) -> EdgeId:
        cached = self._edge_store.get(facility_id)
        if cached is not None:
            self._cache_stats.facility_edge_hits += 1
            return cached
        self._cache_stats.facility_edge_misses += 1
        edge_id = DirectChargeLayer.facility_edge(self, facility_id)
        self._edge_store[facility_id] = edge_id
        return edge_id

    def batch_charges(self) -> tuple[str, object]:
        # Every request flips cache state (counters, LRU order), so charges
        # must stay synchronous per request even over in-memory accessors.
        return ("generic", None)
