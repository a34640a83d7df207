"""The allocation-light NE inner loop over a compiled graph: ``ExpansionKernel``.

This is the compute side of the compiled fast path (the data side is
:class:`~repro.network.compiled.CompiledGraph`).  The kernel is a drop-in
replacement for :class:`~repro.core.expansion.NearestFacilityExpansion` —
same constructor shape, same ``next_facility`` / ``pop_step`` / ``head_key``
/ ``enter_candidate_mode`` surface, same settled/reported views — but its
inner loop walks the snapshot's shared neighbour tuples:

* heap entries are flat 3-tuples ``(key, tiebreak, payload)`` — an int
  payload is a dense node index; a facility payload is the (shared, prebuilt)
  :class:`~repro.network.accessor.FacilityRecord` the eventual hit carries,
  so reporting allocates nothing;
* settled membership is a bytearray flag per dense node instead of a dict
  probe per relaxation;
* all ``d`` kernels of a query walk one ``(neighbour, cell)`` tuple per
  node and read their arc costs from their own cost list by cell;
* facility keys are ``distance + edge_cost * fraction`` with the fraction
  read from the snapshot's one cost-independent facility table — the
  record path's expression, without its divide and attribute loads;
* the pop/settle/relax cycle is one flat loop with every hot structure bound
  once per call, and a settle whose incident edges host no facility relaxes
  its arcs without probing the facility table;
* a settle appends its dense index and key to two append-only columns;
  the ``settled_costs`` dict, keyed by the snapshot's tuple of node-id
  objects, is built from them only when something reads it, and from then
  on every settle writes through, so a view handed out stays live;
* a layer whose adjacency charges no order can observe (in-memory LSA/CEA,
  an unbounded cross-query cache over an in-memory base) hands the kernel
  one exit hook that charges a call's settles together when it returns;
  every other request goes through the layer as it happens.  Views and
  counters are exact whenever no kernel method is mid-call, which is the
  only time the searches look.

**The logical I/O contract.**  The kernel performs *exactly* the data-layer
requests the legacy expansion performs, at the same points of the search —
it just routes them through a :class:`KernelDataLayer` that skips record
materialisation.  Three layers cover the three sharing regimes:

* :class:`DirectChargeLayer` — every request charges the base accessor (LSA);
* :class:`FetchOnceChargeLayer` — per-query dedup, first request charges
  (CEA's :class:`~repro.network.accessor.FetchOnceCache` semantics);
* :class:`ForwardingLayer` — every request is forwarded verbatim to an
  external accessor such as the batch service's
  :class:`~repro.service.CrossQueryExpansionCache`, so cross-query hit/miss
  accounting (and the underlying misses' page reads) stays bit-identical.

Charging against a disk-resident accessor replays the request's precomputed
page plan through the accessor's own LRU buffer — same pages, same order, so
page-read/buffer-hit counters cannot drift from the record path; such layers
(and bounded cross-query caches, which evict in LRU order) are charged
synchronously per request, because request *order* is part of the contract
for an LRU buffer.  :meth:`KernelDataLayer.exit_charge` is where a layer
says which of the two it needs.  The conformance suite
(``tests/expansion_conformance.py``) pins all of this against the reference
expansion: identical facility streams, identical settled maps in settle
order, identical counters.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Mapping
from types import MappingProxyType

from repro.core.expansion import ExpansionSeeds, FacilityHit, NearestFacilityExpansion
from repro.errors import QueryError
from repro.network.accessor import (
    FacilityRecord,
    FetchOnceCache,
    GraphAccessor,
    InMemoryAccessor,
)
from repro.network.compiled import CompiledGraph
from repro.network.facilities import FacilityId
from repro.network.graph import EdgeId, NodeId
from repro.storage.scheme import NetworkStorage

__all__ = [
    "DirectChargeLayer",
    "ExpansionKernel",
    "FetchOnceChargeLayer",
    "ForwardingLayer",
    "KernelDataLayer",
    "make_expansions",
    "make_kernel_data_layer",
]


class KernelDataLayer:
    """What an :class:`ExpansionKernel` needs from the I/O-accounting side.

    ``compiled`` supplies the data; the ``note_*`` hooks perform (only) the
    I/O accounting of a request, and are invoked at exactly the points the
    legacy expansion would invoke the corresponding accessor method.
    ``facility_edge`` additionally returns the edge id — the searches call
    it directly when preparing the shrinking stage.
    """

    __slots__ = ("compiled",)

    def __init__(self, compiled: CompiledGraph):
        self.compiled = compiled

    def note_adjacency(self, node_idx: int) -> None:
        raise NotImplementedError

    def note_edge_facilities(self, edge_idx: int) -> None:
        raise NotImplementedError

    def note_seed_edge(self, edge_id: EdgeId) -> None:
        raise NotImplementedError

    def facility_edge(self, facility_id: FacilityId) -> EdgeId:
        raise NotImplementedError

    def exit_charge(self) -> Callable[[list[int]], None] | None:
        """The hook that charges a ``next_facility`` call's settles on its exit.

        ``None`` (the default) — each settle is charged through
        :meth:`note_adjacency` as it happens, because the layer's request
        order is observable: page-plan replay through an LRU buffer, the LRU
        touches of a bounded cache, forwarding to an external accessor.  A
        callable — the kernel calls it once as the call returns, with the
        dense indices the call settled in settle order, and it charges
        exactly what as many :meth:`note_adjacency` calls would have.
        Facility-edge requests and ``pop_step`` settles go through the
        ``note_*`` hooks as they happen in every layer, so counters are exact
        whenever no kernel method is mid-call.
        """
        return None


def _check_charge_pairing(compiled: CompiledGraph, target: GraphAccessor) -> None:
    """Reject a snapshot/accessor pairing whose charges could not be exact.

    Enforced in the charge-layer constructors (not just the factory) so a
    directly constructed layer can never silently mis-account I/O: plans
    compiled from one storage must charge a storage over the same disk (it,
    or a snapshot view of it), and a plan-free snapshot must charge an
    in-memory accessor.
    """
    if isinstance(target, NetworkStorage):
        if compiled.storage is None or compiled.storage.disk is not target.disk:
            raise QueryError(
                "the compiled graph's page plans were built over a different "
                "storage than the accessor being charged"
            )
    elif isinstance(target, InMemoryAccessor):
        if compiled.has_page_plans:
            raise QueryError(
                "a compiled graph with page plans cannot charge an in-memory accessor"
            )
    else:
        raise QueryError(
            f"cannot charge a {type(target).__name__} through the kernel fast path"
        )


class DirectChargeLayer(KernelDataLayer):
    """Charge the base accessor on *every* request (LSA semantics).

    For in-memory accessors a charge is one counter increment; for
    disk-resident accessors it additionally replays the request's page plan
    through the accessor's own buffer pool.
    """

    __slots__ = ("_stats", "_buffer", "_adj_plans", "_fac_plans", "_tree_plans")

    def __init__(self, compiled: CompiledGraph, target: GraphAccessor):
        super().__init__(compiled)
        _check_charge_pairing(compiled, target)
        self._stats = target.statistics
        if compiled.has_page_plans:
            self._buffer = target.buffer  # type: ignore[union-attr]
            self._adj_plans = compiled.adjacency_plans
            self._fac_plans = compiled.facility_plans
            self._tree_plans = compiled.facility_tree_plans
        else:
            self._buffer = None
            self._adj_plans = None
            self._fac_plans = None
            self._tree_plans = None

    def note_adjacency(self, node_idx: int) -> None:
        self._stats.adjacency_requests += 1
        plans = self._adj_plans
        if plans is not None:
            read = self._buffer.read
            for page_id in plans[node_idx]:
                read(page_id)

    def note_edge_facilities(self, edge_idx: int) -> None:
        self._stats.facility_requests += 1
        plans = self._fac_plans
        if plans is not None:
            read = self._buffer.read
            for page_id in plans[edge_idx]:
                read(page_id)

    def note_seed_edge(self, edge_id: EdgeId) -> None:
        self.note_edge_facilities(self.compiled.edge_index[edge_id])

    def facility_edge(self, facility_id: FacilityId) -> EdgeId:
        self._stats.facility_tree_requests += 1
        plans = self._tree_plans
        if plans is not None:
            read = self._buffer.read
            for page_id in plans[facility_id]:
                read(page_id)
        return self.compiled.facility_edge_of[facility_id]

    def exit_charge(self) -> Callable[[list[int]], None] | None:
        if self._buffer is not None:
            return None
        return self._charge_count

    def _charge_count(self, node_indices: list[int]) -> None:
        self._stats.adjacency_requests += len(node_indices)


class FetchOnceChargeLayer(DirectChargeLayer):
    """Charge each node/edge/facility at most once per query (CEA semantics).

    Mirrors :class:`~repro.network.accessor.FetchOnceCache`: a repeated
    request is free and moves no counter (the cache serves it from memory).
    One instance is shared by all ``d`` expansions of a query.
    """

    __slots__ = ("_seen_nodes", "_seen_edges", "_seen_facilities")

    def __init__(self, compiled: CompiledGraph, target: GraphAccessor):
        super().__init__(compiled, target)
        self._seen_nodes = bytearray(compiled.num_nodes)
        self._seen_edges = bytearray(compiled.num_edges)
        self._seen_facilities: set[FacilityId] = set()

    def note_adjacency(self, node_idx: int) -> None:
        if self._seen_nodes[node_idx]:
            return
        self._seen_nodes[node_idx] = 1
        DirectChargeLayer.note_adjacency(self, node_idx)

    def note_edge_facilities(self, edge_idx: int) -> None:
        if self._seen_edges[edge_idx]:
            return
        self._seen_edges[edge_idx] = 1
        DirectChargeLayer.note_edge_facilities(self, edge_idx)

    def facility_edge(self, facility_id: FacilityId) -> EdgeId:
        if facility_id in self._seen_facilities:
            return self.compiled.facility_edge_of[facility_id]
        self._seen_facilities.add(facility_id)
        return DirectChargeLayer.facility_edge(self, facility_id)

    def exit_charge(self) -> Callable[[list[int]], None] | None:
        if self._buffer is not None:
            return None
        return self._charge_once

    def _charge_once(self, node_indices: list[int]) -> None:
        seen = self._seen_nodes
        charged = 0
        for node_idx in node_indices:
            if not seen[node_idx]:
                seen[node_idx] = 1
                charged += 1
        self._stats.adjacency_requests += charged


class ForwardingLayer(KernelDataLayer):
    """Forward every request verbatim to an external accessor, discarding records.

    This is how the kernel runs under the batch service's cross-query cache:
    the cache sees exactly the request stream the legacy expansions would
    send it, so its hit/miss counters — and the base accessor's I/O on
    misses — are untouched by the fast path.
    """

    __slots__ = ("_accessor", "_node_ids", "_edge_ids")

    def __init__(self, compiled: CompiledGraph, accessor: GraphAccessor):
        super().__init__(compiled)
        self._accessor = accessor
        self._node_ids = compiled.node_ids
        self._edge_ids = compiled.edge_ids

    def note_adjacency(self, node_idx: int) -> None:
        self._accessor.adjacency(self._node_ids[node_idx])

    def note_edge_facilities(self, edge_idx: int) -> None:
        self._accessor.edge_facilities(self._edge_ids[edge_idx])

    def note_seed_edge(self, edge_id: EdgeId) -> None:
        self._accessor.edge_facilities(edge_id)

    def facility_edge(self, facility_id: FacilityId) -> EdgeId:
        return self._accessor.facility_edge(facility_id)


def make_kernel_data_layer(
    compiled: CompiledGraph,
    *,
    target: GraphAccessor,
    external: GraphAccessor | None = None,
    fetch_once: bool = False,
) -> KernelDataLayer:
    """The data layer a search should hand its kernels.

    ``external`` (an injected data layer such as the cross-query cache) wins.
    An external accessor that knows how to charge itself without record
    materialisation may provide a ``kernel_charge_layer(compiled)`` hook
    returning a :class:`KernelDataLayer` (or ``None`` to decline) — the
    batch service's :class:`~repro.service.CrossQueryExpansionCache` does;
    anything else gets a :class:`ForwardingLayer`.  Otherwise ``target``
    (the engine's base accessor) is charged directly, deduplicated per query
    when ``fetch_once`` (the CEA regime).  Raises :class:`QueryError` when
    the snapshot and the target belong to different data layers (e.g. plans
    compiled from one storage charged against another).
    """
    if external is not None:
        maker = getattr(external, "kernel_charge_layer", None)
        if maker is not None:
            layer = maker(compiled)
            if layer is not None:
                return layer
        return ForwardingLayer(compiled, external)
    if fetch_once:
        return FetchOnceChargeLayer(compiled, target)
    return DirectChargeLayer(compiled, target)


def make_expansions(
    accessor: GraphAccessor,
    seeds: ExpansionSeeds,
    *,
    compiled: CompiledGraph | None,
    data_layer: GraphAccessor | None = None,
    fetch_once: bool = False,
) -> tuple[
    GraphAccessor | KernelDataLayer, list[ExpansionKernel | NearestFacilityExpansion]
]:
    """One query's d expansions and the data layer they read through.

    With a ``compiled`` snapshot they are :class:`ExpansionKernel`\\ s over
    :func:`make_kernel_data_layer`.  Without one they are the record path's
    :class:`~repro.core.expansion.NearestFacilityExpansion`\\ s over
    ``data_layer`` when given, else over ``accessor``, deduplicated per
    query through a :class:`~repro.network.accessor.FetchOnceCache` when
    ``fetch_once`` (the CEA regime).
    """
    dimensions = range(accessor.num_cost_types)
    if compiled is not None:
        layer = make_kernel_data_layer(
            compiled, target=accessor, external=data_layer, fetch_once=fetch_once
        )
        return layer, [ExpansionKernel(layer, seeds, index) for index in dimensions]
    if data_layer is None:
        data_layer = FetchOnceCache(accessor) if fetch_once else accessor
    return data_layer, [
        NearestFacilityExpansion(data_layer, seeds, index) for index in dimensions
    ]


class ExpansionKernel:
    """Incremental nearest-facility expansion over a compiled snapshot.

    Behaviourally identical to
    :class:`~repro.core.expansion.NearestFacilityExpansion` constructed over
    the same seeds and data: facility hits arrive in the same order with the
    same keys, ``head_key``/``heap_pops`` evolve identically, and the data
    layer receives the identical request sequence.
    """

    __slots__ = (
        "_layer",
        "_seeds",
        "_cost_index",
        "_node_ids",
        "_edge_ids",
        "_edge_length",
        "_arcs",
        "_costs",
        "_fac_cells",
        "_fac_nodes",
        "_heap",
        "_tiebreak",
        "_settled_flags",
        "_settled_idx",
        "_settled_keys",
        "_settled",
        "_reported",
        "_candidate_edges",
        "_cand_nodes",
        "_allowed",
        "_heap_pops",
        "_facilities_retrieved",
        "_charge",
    )

    def __init__(self, layer: KernelDataLayer, seeds: ExpansionSeeds, cost_index: int):
        compiled = layer.compiled
        if not 0 <= cost_index < compiled.num_cost_types:
            raise QueryError(
                f"cost index {cost_index} out of range for a "
                f"{compiled.num_cost_types}-cost network"
            )
        self._layer = layer
        self._seeds = seeds
        self._cost_index = cost_index
        self._node_ids = compiled.node_ids
        self._edge_ids = compiled.edge_ids
        self._edge_length = compiled.edge_length
        self._arcs = compiled.arcs
        self._costs = compiled.cell_costs[cost_index]
        self._fac_cells = compiled.facility_cells
        self._fac_nodes = compiled.facility_node_flags
        self._heap: list[tuple[float, int, object]] = []
        self._tiebreak = 0
        self._settled_flags = bytearray(compiled.num_nodes)
        # Every settle in settle order; the dict is built on first read.
        self._settled_idx: list[int] = []
        self._settled_keys: list[float] = []
        self._settled: dict[NodeId, float] | None = None
        self._reported: dict[FacilityId, float] = {}
        self._candidate_edges: dict[EdgeId, list[FacilityRecord]] | None = None
        self._cand_nodes: set[int] | None = None
        self._allowed: set[FacilityId] | None = None
        self._heap_pops = 0
        self._facilities_retrieved = 0
        self._charge = layer.exit_charge()
        self._seed()

    # ------------------------------------------------------------------ #
    # Introspection (mirror of the legacy expansion)
    # ------------------------------------------------------------------ #
    @property
    def cost_index(self) -> int:
        return self._cost_index

    @property
    def exhausted(self) -> bool:
        return not self._heap

    @property
    def reported_costs(self) -> Mapping[FacilityId, float]:
        """Facilities already returned (read-only live view)."""
        return MappingProxyType(self._reported)

    @property
    def settled_costs(self) -> Mapping[NodeId, float]:
        """Settled node distances keyed by *real* node id, in settle order.

        A read-only live view.  The first read builds the dict from the
        settle columns; from then on ``pop_step`` writes each settle through
        and ``next_facility`` folds its settles in as it returns, so every
        view handed out, such as the one ``_QueryDistanceMaps.bound`` holds
        across ``pop_step`` calls, stays current.  A search that never reads
        the map never builds it.
        """
        if self._settled is None:
            self._settled = {}
            self._fold_settled()
        return MappingProxyType(self._settled)

    @property
    def heap_pops(self) -> int:
        return self._heap_pops

    @property
    def facilities_retrieved(self) -> int:
        return self._facilities_retrieved

    def head_key(self) -> float:
        return self._heap[0][0] if self._heap else float("inf")

    # ------------------------------------------------------------------ #
    # Candidate-only mode
    # ------------------------------------------------------------------ #
    def enter_candidate_mode(self, candidates: dict[EdgeId, list[FacilityRecord]]) -> None:
        """Restrict the expansion to the given candidate facilities.

        Semantics identical to the legacy expansion's candidate mode,
        including the re-seeding of candidates on the query's own edge —
        required for *externally* supplied records (facilities not yet in
        the compiled columns, e.g. a prospective insertion being priced).
        """
        self._candidate_edges = {
            edge: list(records) for edge, records in candidates.items()
        }
        self._allowed = {
            record.facility_id
            for records in candidates.values()
            for record in records
        }
        # Nodes incident to a candidate-bearing edge: every other settle can
        # take a pure arc-relaxation branch with no per-arc candidate probes.
        # Candidate edges absent from the snapshot can never match an arc,
        # so they contribute no incident nodes.  Only worth materialising for
        # small candidate sets (insertion pricing: one or two edges) — a CEA
        # fallback recompute enters with hundreds of edges, where building
        # the set costs more than the probes it saves.
        if len(self._candidate_edges) <= 32:
            compiled = self._layer.compiled
            edge_index = compiled.edge_index
            incident: set[int] = set()
            for edge_id in self._candidate_edges:
                dense_edge = edge_index.get(edge_id)
                if dense_edge is not None:
                    incident.update(compiled.edge_nodes(dense_edge))
            self._cand_nodes = incident
        else:
            self._cand_nodes = None
        seeds = self._seeds
        if seeds.query_edge is not None:
            for record in self._candidate_edges.get(seeds.query_edge, []):
                cost = self._direct_cost_on_query_edge(record.offset)
                if cost is not None:
                    self._push_candidate(record, cost)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def next_facility(self) -> FacilityHit | None:
        """Retrieve the next nearest facility, or ``None`` when exhausted.

        The whole pop/settle/relax cycle runs in this one loop with every
        hot structure bound once per call.  Each settle is appended to the
        settle columns and charged through the layer's ``note_adjacency``,
        unless the layer handed the kernel an exit hook
        (:meth:`KernelDataLayer.exit_charge`): then the call's settles are
        charged together on the way out.  The ``settled_costs`` dict, once
        something has read it, is brought up to date there too, so views
        and counters are exact between calls.
        """
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        reported = self._reported
        flags = self._settled_flags
        arcs = self._arcs
        costs = self._costs
        fac_cells = self._fac_cells
        fac_nodes = self._fac_nodes
        allowed = self._allowed
        candidate_mode = self._candidate_edges is not None
        charge = self._charge
        per_settle = charge is None
        note_adjacency = self._layer.note_adjacency
        note_edge = self._layer.note_edge_facilities
        settled_idx = self._settled_idx
        start = len(settled_idx)
        settle_idx = settled_idx.append
        settle_key = self._settled_keys.append
        tie = self._tiebreak
        pops = 0
        try:
            while heap:
                key, _t, payload = pop(heap)
                pops += 1
                if type(payload) is int:
                    if flags[payload]:
                        continue
                    flags[payload] = 1
                    settle_idx(payload)
                    settle_key(key)
                    if per_settle:
                        note_adjacency(payload)
                    if candidate_mode:
                        self._tiebreak = tie
                        self._expand_node_candidates(payload, key)
                        tie = self._tiebreak
                        continue
                    if not fac_nodes[payload]:
                        # Facility-free settle (the overwhelmingly common
                        # case under sparse facilities): pure arc relaxation,
                        # no facility-table probes.  Push order is identical
                        # — the skipped cells were all empty.
                        for neighbor, cell in arcs[payload]:
                            if not flags[neighbor]:
                                tie += 1
                                push(heap, (key + costs[cell], tie, neighbor))
                        continue
                    for neighbor, cell in arcs[payload]:
                        edge_cost = costs[cell]
                        if not flags[neighbor]:
                            tie += 1
                            push(heap, (key + edge_cost, tie, neighbor))
                        facs = fac_cells[cell]
                        if facs:
                            note_edge(cell >> 1)
                            for facility_id, fraction, record in facs:
                                if facility_id in reported:
                                    continue
                                tie += 1
                                push(heap, (key + edge_cost * fraction, tie, record))
                    continue
                facility_id = payload.facility_id
                if facility_id in reported:
                    continue
                if allowed is not None and facility_id not in allowed:
                    continue
                reported[facility_id] = key
                self._facilities_retrieved += 1
                return FacilityHit(facility_id, key, self._cost_index, payload)
            return None
        finally:
            self._tiebreak = tie
            self._heap_pops += pops
            if len(settled_idx) > start:
                if charge is not None:
                    charge(settled_idx[start:])
                if self._settled is not None:
                    self._fold_settled()

    def pop_step(self) -> FacilityHit | None:
        """Pop and process a single heap element (shrinking-stage granularity)."""
        heap = self._heap
        if not heap:
            return None
        key, _tie, payload = heapq.heappop(heap)
        self._heap_pops += 1
        if type(payload) is int:
            self._settle_one(payload, key)
            return None
        facility_id = payload.facility_id
        if facility_id in self._reported:
            return None
        if self._allowed is not None and facility_id not in self._allowed:
            return None
        self._reported[facility_id] = key
        self._facilities_retrieved += 1
        return FacilityHit(facility_id, key, self._cost_index, payload)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _seed(self) -> None:
        compiled = self._layer.compiled
        cost_index = self._cost_index
        heap = self._heap
        for node, costs in self._seeds.anchors:
            self._tiebreak = tie = self._tiebreak + 1
            heapq.heappush(heap, (costs[cost_index], tie, compiled.node_index[node]))
        query_edge = self._seeds.query_edge
        if query_edge is not None:
            # The legacy expansion reads the query edge's facility list here
            # unconditionally (even when empty); charge the same request.
            self._layer.note_seed_edge(query_edge)
            # A validated query's edge is always in the snapshot (topology is
            # static); note_seed_edge would already have raised otherwise.
            edge_idx = compiled.edge_index[query_edge]
            for record in compiled.edge_facility_records(edge_idx):
                cost = self._direct_cost_on_query_edge(record.offset)
                if cost is not None:
                    self._push_candidate(record, cost)

    def _direct_cost_on_query_edge(self, offset: float) -> float | None:
        seeds = self._seeds
        if seeds.query_edge_costs is None:
            return None
        if seeds.directed and offset < seeds.query_offset:
            return None
        length = seeds.query_edge_length
        fraction = abs(offset - seeds.query_offset) / length if length else 0.0
        return seeds.query_edge_costs[self._cost_index] * fraction

    def _push_candidate(self, record: FacilityRecord, key: float) -> None:
        if record.facility_id in self._reported:
            return
        if self._allowed is not None and record.facility_id not in self._allowed:
            return
        self._tiebreak = tie = self._tiebreak + 1
        heapq.heappush(self._heap, (key, tie, record))

    def _fold_settled(self) -> None:
        """Add the settles the ``settled_costs`` dict lacks, in settle order."""
        settled = self._settled
        folded = len(settled)
        if folded < len(self._settled_idx):
            settled.update(
                zip(
                    map(self._node_ids.__getitem__, self._settled_idx[folded:]),
                    self._settled_keys[folded:],
                )
            )

    def _settle_one(self, node_idx: int, distance: float) -> None:
        """Settle one node outside the serving loop (the ``pop_step`` path).

        The charge goes straight through the layer: an exit hook's seen-flags
        are the very ones ``note_adjacency`` checks, and ``next_facility``
        hands its hook only the settles of its own call, so the two paths
        never double-count.
        """
        flags = self._settled_flags
        if flags[node_idx]:
            return
        flags[node_idx] = 1
        self._settled_idx.append(node_idx)
        self._settled_keys.append(distance)
        if self._settled is not None:
            self._settled[self._node_ids[node_idx]] = distance
        self._layer.note_adjacency(node_idx)
        if self._candidate_edges is not None:
            self._expand_node_candidates(node_idx, distance)
            return
        heap = self._heap
        push = heapq.heappush
        tie = self._tiebreak
        costs = self._costs
        if not self._fac_nodes[node_idx]:
            for neighbor, cell in self._arcs[node_idx]:
                if not flags[neighbor]:
                    tie += 1
                    push(heap, (distance + costs[cell], tie, neighbor))
            self._tiebreak = tie
            return
        reported = self._reported
        fac_cells = self._fac_cells
        note_edge = self._layer.note_edge_facilities
        for neighbor, cell in self._arcs[node_idx]:
            edge_cost = costs[cell]
            if not flags[neighbor]:
                tie += 1
                push(heap, (distance + edge_cost, tie, neighbor))
            facs = fac_cells[cell]
            if facs:
                note_edge(cell >> 1)
                for facility_id, fraction, record in facs:
                    if facility_id in reported:
                        continue
                    tie += 1
                    push(heap, (distance + edge_cost * fraction, tie, record))
        self._tiebreak = tie

    def _expand_node_candidates(self, node_idx: int, distance: float) -> None:
        """Candidate-mode arc walk (the cold path).

        Candidate records may be external — facilities not present in the
        compiled facility table, e.g. a prospective insertion being priced —
        so this path evaluates the record path's per-record fraction
        verbatim instead of reading the table.
        """
        heap = self._heap
        push = heapq.heappush
        tie = self._tiebreak
        flags = self._settled_flags
        costs = self._costs
        cand_nodes = self._cand_nodes
        if cand_nodes is not None and node_idx not in cand_nodes:
            # No incident edge carries candidates: relax the arcs (same
            # order, so identical pushes) and skip the per-arc candidate
            # probes entirely.
            for neighbor, cell in self._arcs[node_idx]:
                if not flags[neighbor]:
                    tie += 1
                    push(heap, (distance + costs[cell], tie, neighbor))
            self._tiebreak = tie
            return
        reported = self._reported
        candidates = self._candidate_edges
        allowed = self._allowed
        for neighbor, cell in self._arcs[node_idx]:
            edge_cost = costs[cell]
            if not flags[neighbor]:
                tie += 1
                push(heap, (distance + edge_cost, tie, neighbor))
            edge_idx = cell >> 1
            records = candidates.get(self._edge_ids[edge_idx])
            if not records:
                continue
            length = self._edge_length[edge_idx]
            is_forward = cell & 1
            for record in records:
                facility_id = record.facility_id
                if facility_id in reported:
                    continue
                if allowed is not None and facility_id not in allowed:
                    continue
                if length > 0:
                    if is_forward:
                        fraction = record.offset / length
                    else:
                        fraction = (length - record.offset) / length
                else:
                    fraction = 0.0
                tie += 1
                push(heap, (distance + edge_cost * fraction, tie, record))
        self._tiebreak = tie
