"""Incremental nearest-facility network expansion (the NE primitive).

This is the disk-based adaptation of Dijkstra's algorithm described in
Section II-C of the paper (network expansion, Papadias et al. [1]): starting
from the query location, nodes are de-heaped in increasing network distance
under *one* cost type; whenever a node is expanded, the facilities lying on
its incident edges are also en-heaped, so facilities pop in increasing
distance order — the next nearest facility can be retrieved incrementally.

One :class:`NearestFacilityExpansion` exists per cost type.  LSA runs ``d``
independent expansions over the same accessor; CEA runs the same expansions
through a :class:`~repro.network.accessor.FetchOnceCache`, so each node's
adjacency list and each edge's facility list reach the disk at most once.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from repro.errors import QueryError
from repro.network.accessor import FacilityRecord, GraphAccessor
from repro.network.facilities import FacilityId
from repro.network.graph import EdgeId, MultiCostGraph, NodeId
from repro.network.location import NetworkLocation

__all__ = ["FacilityHit", "ExpansionSeeds", "NearestFacilityExpansion"]


class FacilityHit(NamedTuple):
    """The next nearest facility returned by an expansion."""

    facility_id: FacilityId
    cost: float
    cost_index: int
    record: FacilityRecord


@dataclass(frozen=True)
class ExpansionSeeds:
    """Where an expansion starts: anchor nodes and the query's own edge.

    ``anchors`` maps the nodes reachable directly from the query location to
    the d-dimensional partial cost of reaching them.  When the query lies in
    the middle of an edge, ``query_edge`` identifies that edge so the
    expansion can also consider the facilities on it via the direct
    along-edge route.
    """

    anchors: tuple[tuple[NodeId, tuple[float, ...]], ...]
    query_edge: EdgeId | None
    query_offset: float
    query_edge_costs: tuple[float, ...] | None
    query_edge_length: float
    directed: bool

    @classmethod
    def from_query(cls, graph: MultiCostGraph, query: NetworkLocation) -> "ExpansionSeeds":
        """Compute the seeds of a query location on ``graph``."""
        query.validate(graph)
        anchors = tuple(
            (node, costs.values) for node, costs in query.anchor_costs(graph)
        )
        if query.edge_id is None:
            return cls(anchors, None, 0.0, None, 0.0, graph.directed)
        edge = graph.edge(query.edge_id)
        return cls(
            anchors,
            query.edge_id,
            query.offset,
            edge.costs.values,
            edge.length,
            graph.directed,
        )


class NearestFacilityExpansion:
    """Incremental nearest-facility search from a query location under one cost type."""

    def __init__(self, accessor: GraphAccessor, seeds: ExpansionSeeds, cost_index: int):
        if not 0 <= cost_index < accessor.num_cost_types:
            raise QueryError(
                f"cost index {cost_index} out of range for a {accessor.num_cost_types}-cost network"
            )
        self._accessor = accessor
        self._seeds = seeds
        self._cost_index = cost_index
        # Heap entries are flat 4-tuples (key, tiebreak, ident, record);
        # ``record`` is None for node entries, so no separate kind field is
        # needed.  The tiebreak is a plain int counter: it makes every entry
        # unique (comparisons never reach ``record``) and resolves equal keys
        # in push order, exactly as the paper's round-robin probing expects.
        self._heap: list[tuple[float, int, int, FacilityRecord | None]] = []
        self._tiebreak = 0
        self._visited_nodes: dict[NodeId, float] = {}
        self._reported: dict[FacilityId, float] = {}
        self._candidate_edges: dict[EdgeId, list[FacilityRecord]] | None = None
        self._allowed_facilities: set[FacilityId] | None = None
        self._heap_pops = 0
        self._facilities_retrieved = 0
        self._seed()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def cost_index(self) -> int:
        return self._cost_index

    @property
    def exhausted(self) -> bool:
        """True once the heap is empty — no further facility can be found."""
        return not self._heap

    @property
    def reported_costs(self) -> Mapping[FacilityId, float]:
        """Facilities already returned, with their network distance under this cost.

        A read-only live view (not a copy): harvesting it is O(1) no matter
        how much of the network the expansion visited.
        """
        return MappingProxyType(self._reported)

    @property
    def settled_costs(self) -> Mapping[NodeId, float]:
        """Nodes already expanded, with their settled distance under this cost type.

        A node is settled when it is de-heaped, at which point its distance is
        final (the Dijkstra invariant).  Entries are in settle order.  The
        monitor's insertion pricing (``_QueryDistanceMaps`` in
        :mod:`repro.core.maintenance`) reads the kernel's version of this
        view; the record path's is read by the tests' reference expansions.
        Returned as a read-only live view; callers that need a frozen copy
        (none in-tree do) must copy explicitly.
        """
        return MappingProxyType(self._visited_nodes)

    @property
    def heap_pops(self) -> int:
        return self._heap_pops

    @property
    def facilities_retrieved(self) -> int:
        return self._facilities_retrieved

    def head_key(self) -> float:
        """The key at the head of the expansion heap (``t_i`` in the paper).

        Any facility not yet reported by this expansion has network distance
        at least this value, which is what the top-k lower bounds rely on.
        Returns ``+inf`` when the expansion is exhausted.
        """
        return self._heap[0][0] if self._heap else float("inf")

    # ------------------------------------------------------------------ #
    # Candidate-only mode (shrinking-stage optimisation)
    # ------------------------------------------------------------------ #
    def enter_candidate_mode(self, candidates: dict[EdgeId, list[FacilityRecord]]) -> None:
        """Restrict the expansion to the given candidate facilities.

        After this call the expansion stops reading the facility file for
        traversed edges; it only en-heaps the supplied candidates when their
        edges are reached, and silently discards every other facility already
        sitting in its heap.  This mirrors the shrinking-stage optimisation of
        Section IV-A.
        """
        self._candidate_edges = {edge: list(records) for edge, records in candidates.items()}
        self._allowed_facilities = {
            record.facility_id for records in candidates.values() for record in records
        }
        # Re-seed candidates lying on the query's own edge with their direct
        # along-edge cost.  For candidates that were in the facility set when
        # the expansion was constructed this only adds a harmless duplicate
        # heap entry; for candidates supplied *externally* (the maintenance
        # layer costing a facility before it is inserted) it is required —
        # the path along the query edge may be shorter than any path through
        # the end-nodes, and _seed() could not have known the record.
        if self._seeds.query_edge is not None:
            for record in self._candidate_edges.get(self._seeds.query_edge, []):
                cost = self._direct_cost_on_query_edge(record)
                if cost is not None:
                    self._push_facility(record, cost)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def next_facility(self) -> FacilityHit | None:
        """Retrieve the next nearest facility, or ``None`` when exhausted."""
        while self._heap:
            hit = self.pop_step()
            if hit is not None:
                return hit
        return None

    def pop_step(self) -> FacilityHit | None:
        """Pop and process a single heap element.

        Returns a :class:`FacilityHit` when the popped element is a facility
        that should be reported (not previously reported and, in candidate
        mode, one of the allowed candidates); otherwise returns ``None``.
        The top-k shrinking stage uses this one-pop granularity directly.
        """
        if not self._heap:
            return None
        key, _tie, ident, record = heapq.heappop(self._heap)
        self._heap_pops += 1
        if record is None:
            self._expand_node(ident, key)
            return None
        return self._handle_facility(ident, key, record)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _seed(self) -> None:
        for node, costs in self._seeds.anchors:
            self._push_node(node, costs[self._cost_index])
        if self._seeds.query_edge is not None:
            records = self._accessor.edge_facilities(self._seeds.query_edge)
            for facility in records:
                cost = self._direct_cost_on_query_edge(facility)
                if cost is not None:
                    self._push_facility(facility, cost)

    def _direct_cost_on_query_edge(self, facility: FacilityRecord) -> float | None:
        if self._seeds.query_edge_costs is None:
            return None
        if self._seeds.directed and facility.offset < self._seeds.query_offset:
            return None
        length = self._seeds.query_edge_length
        fraction = abs(facility.offset - self._seeds.query_offset) / length if length else 0.0
        return self._seeds.query_edge_costs[self._cost_index] * fraction

    def _push_node(self, node: NodeId, key: float) -> None:
        # Settled nodes are filtered by the caller (_expand_node) and on pop;
        # a third check here would be pure overhead on the hottest push path.
        self._tiebreak = tie = self._tiebreak + 1
        heapq.heappush(self._heap, (key, tie, node, None))

    def _push_facility(self, record: FacilityRecord, key: float) -> None:
        if record.facility_id in self._reported:
            return
        if self._allowed_facilities is not None and record.facility_id not in self._allowed_facilities:
            return
        self._tiebreak = tie = self._tiebreak + 1
        heapq.heappush(self._heap, (key, tie, record.facility_id, record))

    def _expand_node(self, node: NodeId, distance: float) -> None:
        if node in self._visited_nodes:
            return
        self._visited_nodes[node] = distance
        for entry in self._accessor.adjacency(node):
            edge_cost = entry.costs[self._cost_index]
            if entry.neighbor not in self._visited_nodes:
                self._push_node(entry.neighbor, distance + edge_cost)
            self._enqueue_edge_facilities(node, entry, distance)

    def _enqueue_edge_facilities(self, node: NodeId, entry, distance: float) -> None:
        if self._candidate_edges is not None:
            records = self._candidate_edges.get(entry.edge_id)
            if not records:
                return
        else:
            if entry.facility_count == 0:
                return
            records = self._accessor.edge_facilities(entry.edge_id)
        edge_cost = entry.costs[self._cost_index]
        length = entry.length
        for record in records:
            if length > 0:
                if node == entry.first_node:
                    fraction = record.offset / length
                else:
                    fraction = (length - record.offset) / length
            else:
                fraction = 0.0
            self._push_facility(record, distance + edge_cost * fraction)

    def _handle_facility(
        self, facility_id: FacilityId, key: float, record: FacilityRecord | None
    ) -> FacilityHit | None:
        if facility_id in self._reported:
            return None
        if self._allowed_facilities is not None and facility_id not in self._allowed_facilities:
            return None
        self._reported[facility_id] = key
        self._facilities_retrieved += 1
        return FacilityHit(facility_id, key, self._cost_index, record)
