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
only the I/O needed to obtain them.  An adjacency entry the compiled kernel
filled (:class:`SharedCacheChargeLayer`) records membership only: the
kernel never reads the list, so it is built from the compiled snapshot the
first time a record-path request reads the entry.
"""

from __future__ import annotations

from collections.abc import Callable
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
        # A value is the record list, or the CompiledGraph of a
        # membership-only entry the kernel filled (see adjacency()).
        self._adjacency: dict[NodeId, list[AdjacencyRecord] | CompiledGraph] = {}
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
            if isinstance(cached, CompiledGraph):
                # A membership-only entry the kernel filled: build the list
                # it stands for now that a record-path request reads it.
                cached = cached.adjacency_records(cached.node_index[node_id])
                self._adjacency[node_id] = cached
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
    storage buffer) and then records the entry.  An adjacency entry records
    membership only (its value is the compiled snapshot), and
    :meth:`CrossQueryExpansionCache.adjacency` builds the list from the
    snapshot the first time a record-path request reads it; an edge's
    facility list is stored as the snapshot's records.  Either way a later
    record-path query sharing the cache reads the very data the base
    accessor would have returned.  Nothing about cache membership, hit/miss
    statistics, eviction counts or base-accessor I/O differs from the
    forwarding path; only the per-request Python overhead does.

    Over an unbounded cache and an in-memory base the layer's exit hook
    (:meth:`~repro.core.kernel.KernelDataLayer.exit_charge`) is
    :meth:`note_settled`: a kernel's ``next_facility`` hands it the nodes
    one call settled, once, on exit, instead of one :meth:`note_adjacency`
    call per settle.  No LRU order or page buffer can observe the
    difference there.  A bounded cache or a page-planned base keeps every
    charge synchronous, because the order of its LRU touches is part of the
    I/O contract.
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
        "_num_nodes",
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
        self._num_nodes = compiled.num_nodes

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
        self._cache._insert(store, key, self.compiled)

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

    def note_settled(self, node_indices: list[int]) -> None:
        """Charge one adjacency request per node, in order, in one pass.

        The folded form of :meth:`note_adjacency` on an unbounded cache over
        an in-memory base: the same hits, misses, base ``adjacency_requests``
        and membership entries, none of which depends on when it is charged.

        Once the adjacency store holds as many entries as the snapshot has
        nodes, every node is charged as a hit without a probe.  That is
        exact because only this snapshot's node ids ever enter the store:
        this layer inserts ids read from ``compiled.node_ids``, and the
        cache's own :meth:`~CrossQueryExpansionCache.adjacency` (the record
        path, a ``baseline`` request's full expansions included) inserts an
        id only after the base accessor answered it, which it does for the
        graph's nodes alone.  The engine refuses a search once the graph
        gains a node after compiling (``CompiledGraph.ensure_fresh``), so
        the graph's nodes are the snapshot's, and equal counts mean every
        node is present.
        """
        store = self._adj_store
        before = len(store)
        if before == self._num_nodes:
            self._cache_stats.adjacency_hits += len(node_indices)
            return
        compiled = self.compiled
        for key in map(self._node_id_of.__getitem__, node_indices):
            if key not in store:
                store[key] = compiled
        misses = len(store) - before
        self._cache_stats.adjacency_hits += len(node_indices) - misses
        self._cache_stats.adjacency_misses += misses
        self._stats.adjacency_requests += misses

    def exit_charge(self) -> Callable[[list[int]], None] | None:
        # A bounded cache's LRU touches and evictions, and a page-planned
        # base's buffer reads, depend on request order, so those charges
        # stay synchronous per request.  Otherwise a kernel call's adjacency
        # requests may be charged together when it returns.
        if self._bounded or self._buffer is not None:
            return None
        return self.note_settled
