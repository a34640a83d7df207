"""Columnar (CSR) snapshots of a built network: the data side of the fast path.

Every query algorithm bottoms out in the NE primitive of Section II-C, whose
pure-Python inner loop spends most of its time materialising
:class:`~repro.network.accessor.AdjacencyRecord` /
:class:`~repro.network.accessor.FacilityRecord` objects and walking them
attribute by attribute.  A :class:`CompiledGraph` flattens the built network
once into contiguous ``array``-backed columns:

* **CSR adjacency** — per dense node an ``indptr`` range into parallel arc
  columns (dense neighbour index, dense edge index, per-cost-type edge cost,
  a forward/backward direction flag), one directed arc per traversal
  direction, in exactly the order the accessors return adjacency records;
* **columnar facility store** — facilities bucketed by dense edge as record
  tuples, with per-cost-type hot tables holding the *precomputed* pro-rated
  partial edge weight from either end-node, so the kernel en-heaps a
  facility with one float add instead of a divide and a multiply per pop
  (the precomputation uses the very same expressions as the legacy
  expansion, so the doubles are bit-identical); facility mutations patch
  only the buckets of the edges they touched, driven by the facility set's
  bounded changelog;
* **page plans** (only when compiled from a disk-resident
  :class:`~repro.storage.NetworkStorage`) — for every possible accessor
  request, the fixed page-id sequence that request reads.  Replaying a plan
  through an LRU buffer performs the same buffered reads as the
  record-materialising path, which is how the fast path keeps page-read and
  buffer-hit counters bit-identical without scanning page records.

The snapshot shares nothing mutable: one ``CompiledGraph`` can back every
shard worker of a parallel batch (fork workers inherit it copy-on-write,
thread workers read it concurrently) while each worker charges its own
buffer and counters.  Facility columns track the
:attr:`~repro.network.facilities.FacilitySet.revision` of the set they were
derived from and are rebuilt on demand by :meth:`CompiledGraph.ensure_fresh`;
the graph topology itself must stay static, exactly as the bulk-loaded
storage scheme already requires.
"""

from __future__ import annotations

from array import array

from repro.errors import QueryError
from repro.network.facilities import FacilityId, FacilitySet
from repro.network.graph import EdgeId, MultiCostGraph, NodeId

__all__ = ["CompiledGraph"]


class CompiledGraph:
    """A read-only CSR snapshot of a graph + facility set (+ optional page plans)."""

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        *,
        storage: object | None = None,
    ):
        if facilities.graph is not graph:
            raise QueryError("facility set was built for a different graph")
        self._graph = graph
        self._facilities = facilities
        self._storage = storage
        self._build_topology()
        self._build_facility_store()
        self._adjacency_plans: list[tuple[int, ...]] | None = None
        self._facility_plans: list[tuple[int, ...]] | None = None
        self._facility_tree_plans: dict[FacilityId, tuple[int, ...]] | None = None
        if storage is not None:
            self._build_page_plans(storage)
        # Compile eagerly: kernels only bind at query time, so all one-time
        # derivation cost lands here rather than inside the first query.
        for cost_index in range(graph.num_cost_types):
            self.hot_arcs(cost_index)
            self.hot_facilities(cost_index)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_accessor(cls, accessor: object) -> "CompiledGraph":
        """Compile the network behind a data layer (in-memory or disk-resident).

        Storage accessors (and their snapshot views) yield a snapshot with
        page plans bound to their simulated disk; the in-memory accessor
        yields a plan-free snapshot whose charging is pure counter bumps.
        """
        # Imported lazily: repro.storage depends on repro.network.
        from repro.network.accessor import InMemoryAccessor
        from repro.storage.catalog import PackedNetworkStorage
        from repro.storage.scheme import NetworkStorage, StorageSnapshotView

        if isinstance(accessor, StorageSnapshotView):
            accessor = accessor.base
        if isinstance(accessor, NetworkStorage):
            return cls(accessor.graph, accessor.facilities, storage=accessor)
        if isinstance(accessor, PackedNetworkStorage):
            # Compilation walks the full in-memory topology, so a pack can
            # only feed the fast path when opened with its source graph
            # attached; the standalone bisect-backed views cannot be compiled.
            if not isinstance(accessor.graph, MultiCostGraph) or not isinstance(
                accessor.facilities, FacilitySet
            ):
                raise QueryError(
                    "cannot compile a packed dataset opened standalone; reopen it "
                    "with its source graph and facility set attached"
                )
            return cls(accessor.graph, accessor.facilities, storage=accessor)
        if isinstance(accessor, InMemoryAccessor):
            return cls(accessor.graph, accessor.facilities)
        raise QueryError(
            f"cannot compile a graph from a {type(accessor).__name__}; expected "
            "an InMemoryAccessor, a NetworkStorage, a PackedNetworkStorage or "
            "a StorageSnapshotView"
        )

    def _build_topology(self) -> None:
        graph = self._graph
        self._num_nodes_at_build = graph.num_nodes
        self._num_edges_at_build = graph.num_edges
        # One int object per node, owned by the snapshot and allocated
        # together: settled maps keyed through this tuple share their keys
        # with every other search over the snapshot instead of boxing a fresh
        # int per settle.  The graph's own id objects would share as well,
        # but they lie scattered across its heap, and touching one per
        # settle cost the deep-expansion replay about a tenth of its time.
        node_ids = tuple(array("q", graph.node_ids()))
        node_index: dict[NodeId, int] = {
            node_id: dense for dense, node_id in enumerate(node_ids)
        }
        edge_index: dict[EdgeId, int] = {}
        edge_ids = array("q")
        edge_length = array("d")
        edge_costs: list[array] = [array("d") for _ in range(graph.num_cost_types)]
        for edge in graph.edges():
            edge_index[edge.edge_id] = len(edge_ids)
            edge_ids.append(edge.edge_id)
            edge_length.append(edge.length)
            for cost_index, value in enumerate(edge.costs.values):
                edge_costs[cost_index].append(value)

        indptr = array("q", [0])
        arc_neighbor = array("q")
        arc_edge = array("q")
        arc_forward = bytearray()
        arc_costs: list[array] = [array("d") for _ in range(graph.num_cost_types)]
        # Arcs are laid out in the exact order graph.neighbors() (and
        # therefore both accessors) return adjacency records, so a kernel
        # walking them pushes heap entries in the legacy push order — the
        # property that keeps tie-breaking, and hence results, bit-identical.
        for node_id in node_ids:
            for neighbor, edge in graph.neighbors(node_id):
                arc_neighbor.append(node_index[neighbor])
                arc_edge.append(edge_index[edge.edge_id])
                arc_forward.append(1 if node_id == edge.u else 0)
                for cost_index, value in enumerate(edge.costs.values):
                    arc_costs[cost_index].append(value)
            indptr.append(len(arc_neighbor))

        self.node_index = node_index
        self.node_ids = node_ids
        self.edge_index = edge_index
        self.edge_ids = edge_ids
        self.edge_length = edge_length
        self._edge_costs = edge_costs
        self.arc_indptr = indptr
        self.arc_neighbor = arc_neighbor
        self.arc_edge = arc_edge
        self.arc_forward = bytes(arc_forward)
        self.arc_costs = arc_costs
        self._costs_revision = graph.costs_revision
        # Per-cost hot arc structures (cost-dependent: patched per edge by
        # ensure_fresh when edge costs are re-profiled).
        self._hot_arcs: dict[int, list[tuple]] = {}
        # Dense edge -> incident dense nodes (topology-only, built lazily by
        # hot_facility_node_flags' maintenance).
        self._edge_nodes: list[tuple[int, ...]] | None = None

    def _build_facility_store(self) -> None:
        # One O(|F|) grouping pass over the set (iterating the set preserves
        # the per-edge order ``on_edge`` reports, because removals keep
        # relative order in both indexes).  The store is edge-bucketed
        # record tuples — the unit the per-cost hot tables and the
        # incremental refresh both work in.
        from repro.network.accessor import FacilityRecord  # lazy: avoids import cycle

        facilities = self._facilities
        edge_index = self.edge_index
        grouped: dict[int, list] = {}
        for facility in facilities:
            grouped.setdefault(edge_index[facility.edge_id], []).append(facility)
        edge_records: list[tuple] = [()] * self.num_edges
        facility_edge_of: dict[FacilityId, EdgeId] = {}
        for dense_edge, bucket in grouped.items():
            edge_id = self.edge_ids[dense_edge]
            edge_records[dense_edge] = tuple(
                FacilityRecord(facility.facility_id, edge_id, facility.offset)
                for facility in bucket
            )
            for facility in bucket:
                facility_edge_of[facility.facility_id] = edge_id
        self._edge_records = edge_records
        self.facility_edge_of = facility_edge_of
        self._hosting = set(grouped)
        self._facilities_revision = facilities.revision
        # Reconstructed AdjacencyRecord lists (see adjacency_records), keyed
        # by dense node.  facility_count is facility-set state, so the cache
        # follows the facility columns' revision, not the static topology.
        self._adj_records: dict[int, list] = {}
        self._adj_records_revision = facilities.revision
        # The facility store feeds the per-cost hot facility tables; a full
        # rebuild drops them (the arc structure is topology-only and survives).
        self._hot_facilities: dict[int, list[tuple]] = {}
        # Per-node "some incident edge hosts facilities" bitmap (see
        # hot_facility_node_flags); dropped with the store, patched on
        # incremental refreshes.
        self._fac_node_flags: bytearray | None = None

    def _facility_cells(self, dense_edge: int, cost_index: int) -> tuple[tuple, tuple]:
        """The (backward, forward) hot-table cells of one edge under one cost.

        Each cell is a tuple of ``(facility_id, key_delta, record)`` triples;
        the delta uses the same expressions the legacy expansion evaluates
        per pop (fraction first, then cost * fraction), hoisted to build
        time — identical IEEE operations, identical doubles.
        """
        records = self._edge_records[dense_edge]
        length = self.edge_length[dense_edge]
        edge_cost = self._edge_costs[cost_index][dense_edge]
        forward = []
        backward = []
        for record in records:
            if length > 0:
                fraction_fwd = record.offset / length
                fraction_bwd = (length - record.offset) / length
            else:
                fraction_fwd = fraction_bwd = 0.0
            forward.append((record.facility_id, edge_cost * fraction_fwd, record))
            backward.append((record.facility_id, edge_cost * fraction_bwd, record))
        return tuple(backward), tuple(forward)

    def _refresh_facility_edges(self, dense_edges: set[int]) -> None:
        """Re-derive the store and cached hot cells of the given edges only."""
        from repro.network.accessor import FacilityRecord  # lazy: avoids import cycle

        facilities = self._facilities
        # Drop the old id mappings first: a facility id deleted from one
        # edge and re-added on another in the same batch must not have its
        # fresh mapping clobbered by the stale edge's cleanup.
        for dense_edge in dense_edges:
            for record in self._edge_records[dense_edge]:
                self.facility_edge_of.pop(record.facility_id, None)
        for dense_edge in dense_edges:
            edge_id = self.edge_ids[dense_edge]
            records = tuple(
                FacilityRecord(facility.facility_id, edge_id, facility.offset)
                for facility in facilities.on_edge(edge_id)
            )
            self._edge_records[dense_edge] = records
            for record in records:
                self.facility_edge_of[record.facility_id] = edge_id
            if records:
                self._hosting.add(dense_edge)
            else:
                self._hosting.discard(dense_edge)
            for cost_index, table in self._hot_facilities.items():
                backward, forward = self._facility_cells(dense_edge, cost_index)
                table[dense_edge * 2] = backward
                table[dense_edge * 2 + 1] = forward
            self._patch_fac_node_flags(dense_edge)
            # Reconstructed adjacency records embed facility_count, so only
            # the nodes incident to a refreshed edge go stale — dropping
            # just those keeps mutation-heavy monitor ticks from rebuilding
            # the whole cache every revision.
            for node_idx in self._edge_endpoint_nodes()[dense_edge]:
                self._adj_records.pop(node_idx, None)
        self._facilities_revision = facilities.revision
        self._adj_records_revision = facilities.revision

    def _refresh_edge_costs(self, dense_edges: set[int]) -> None:
        """Patch every cost-dependent structure of the given edges, in place.

        The CSR arc-cost columns, the per-cost hot arc tuples of the incident
        nodes, the hot facility cells (their key deltas embed
        ``edge_cost * fraction``) and the reconstructed adjacency records all
        depend on edge costs; everything else — topology, facility store,
        page-plan machinery — is untouched.  Patching mutates the existing
        lists/arrays so kernels and layers that already bound them observe
        the new costs, exactly as facility patches behave.
        """
        graph = self._graph
        num_costs = self.num_cost_types
        edge_nodes = self._edge_endpoint_nodes()
        touched_nodes: set[int] = set()
        for dense_edge in dense_edges:
            edge = graph.edge(self.edge_ids[dense_edge])
            for cost_index, value in enumerate(edge.costs.values):
                self._edge_costs[cost_index][dense_edge] = value
            touched_nodes.update(edge_nodes[dense_edge])
        arc_edge = self.arc_edge
        arc_neighbor = self.arc_neighbor
        arc_forward = self.arc_forward
        indptr = self.arc_indptr
        for node_idx in touched_nodes:
            for arc in range(indptr[node_idx], indptr[node_idx + 1]):
                edge_idx = arc_edge[arc]
                if edge_idx in dense_edges:
                    for cost_index in range(num_costs):
                        self.arc_costs[cost_index][arc] = self._edge_costs[
                            cost_index
                        ][edge_idx]
            for cost_index, hot in self._hot_arcs.items():
                arc_cost = self.arc_costs[cost_index]
                hot[node_idx] = tuple(
                    (
                        arc_cost[arc],
                        arc_neighbor[arc],
                        arc_edge[arc] * 2 + arc_forward[arc],
                    )
                    for arc in range(indptr[node_idx], indptr[node_idx + 1])
                )
            self._adj_records.pop(node_idx, None)
        for dense_edge in dense_edges:
            for cost_index, table in self._hot_facilities.items():
                backward, forward = self._facility_cells(dense_edge, cost_index)
                table[dense_edge * 2] = backward
                table[dense_edge * 2 + 1] = forward
        self._costs_revision = graph.costs_revision

    def _edge_endpoint_nodes(self) -> list[tuple[int, ...]]:
        """Dense edge -> the dense nodes whose arc lists traverse it."""
        cached = self._edge_nodes
        if cached is not None:
            return cached
        touching: list[list[int]] = [[] for _ in range(self.num_edges)]
        arc_edge = self.arc_edge
        indptr = self.arc_indptr
        for node_idx in range(self.num_nodes):
            for arc in range(indptr[node_idx], indptr[node_idx + 1]):
                bucket = touching[arc_edge[arc]]
                if node_idx not in bucket:
                    bucket.append(node_idx)
        self._edge_nodes = [tuple(bucket) for bucket in touching]
        return self._edge_nodes

    def hot_facility_node_flags(self) -> bytearray:
        """Per-dense-node flag: some incident edge hosts facilities.

        The kernels' serving loops use this to take a facility-free fast
        branch when settling a node — in sparse-facility regimes that's
        nearly every settle.  The bitmap is facility-set state: it is
        dropped with the facility store and patched in place by the
        incremental refresh, so a kernel that bound it at construction sees
        mutations exactly as it sees the hot facility tables it also bound.
        """
        flags = self._fac_node_flags
        if flags is None:
            flags = bytearray(self.num_nodes)
            edge_nodes = self._edge_endpoint_nodes()
            for dense_edge in self._hosting:
                for node_idx in edge_nodes[dense_edge]:
                    flags[node_idx] = 1
            self._fac_node_flags = flags
        return flags

    def _patch_fac_node_flags(self, dense_edge: int) -> None:
        """Recompute the flag of every node incident to one refreshed edge."""
        flags = self._fac_node_flags
        if flags is None:
            return
        hosting = self._hosting
        arc_edge = self.arc_edge
        indptr = self.arc_indptr
        for node_idx in self._edge_endpoint_nodes()[dense_edge]:
            bit = 0
            for arc in range(indptr[node_idx], indptr[node_idx + 1]):
                if arc_edge[arc] in hosting:
                    bit = 1
                    break
            flags[node_idx] = bit

    def _build_page_plans(self, storage) -> None:
        self._adjacency_plans = [
            storage.adjacency_page_plan(node_id) for node_id in self.node_ids
        ]
        self._facility_plans = [
            storage.facility_page_plan(edge_id) for edge_id in self.edge_ids
        ]
        self._facility_tree_plans = {
            facility_id: storage.facility_tree_page_plan(facility_id)
            for facility_id in self.facility_edge_of
        }

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
    def storage(self):
        """The :class:`~repro.storage.NetworkStorage` plans are bound to (or ``None``)."""
        return self._storage

    @property
    def num_cost_types(self) -> int:
        return self._graph.num_cost_types

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_ids)

    @property
    def num_facilities(self) -> int:
        return len(self.facility_edge_of)

    @property
    def has_page_plans(self) -> bool:
        return self._adjacency_plans is not None

    @property
    def adjacency_plans(self) -> list[tuple[int, ...]] | None:
        """Per-dense-node page plans of an adjacency request (``None`` in-memory)."""
        return self._adjacency_plans

    @property
    def facility_plans(self) -> list[tuple[int, ...]] | None:
        """Per-dense-edge page plans of an edge-facilities request (``None`` in-memory)."""
        return self._facility_plans

    @property
    def facility_tree_plans(self) -> dict[FacilityId, tuple[int, ...]] | None:
        """Per-facility page plans of a facility-tree probe (``None`` in-memory)."""
        return self._facility_tree_plans

    @property
    def facilities_revision(self) -> int:
        """The facility-set revision the facility columns were derived from."""
        return self._facilities_revision

    @property
    def costs_revision(self) -> int:
        """The graph costs revision the cost columns were derived from."""
        return self._costs_revision

    def memoryview_columns(self) -> dict[str, memoryview]:
        """Zero-copy ``memoryview``\\ s over the core numeric columns.

        Handy for tests and external tooling that want to inspect (or hash)
        the snapshot without touching the ``array`` objects the kernels bind.
        """
        views = {
            "node_ids": memoryview(array("q", self.node_ids)),
            "edge_ids": memoryview(self.edge_ids),
            "edge_length": memoryview(self.edge_length),
            "arc_indptr": memoryview(self.arc_indptr),
            "arc_neighbor": memoryview(self.arc_neighbor),
            "arc_edge": memoryview(self.arc_edge),
            "arc_forward": memoryview(self.arc_forward),
            "fac_indptr": memoryview(array("q", self._facility_indptr())),
            "fac_ids": memoryview(array("q", self._facility_ids())),
            "fac_offsets": memoryview(array("d", self._facility_offsets())),
        }
        for cost_index, column in enumerate(self.arc_costs):
            views[f"arc_costs[{cost_index}]"] = memoryview(column)
        return views

    def hot_arcs(self, cost_index: int) -> list[tuple]:
        """The kernel's per-cost-type arc structure (lazily derived, cached forever).

        One entry per dense node: a tuple of arc entries
        ``(edge_cost, neighbor_idx, cell)``, where ``cell`` encodes the arc's
        dense edge and traversal direction as ``edge_idx * 2 + forward``.
        The inner expansion loop iterates these prebuilt tuples directly —
        zero index arithmetic, zero per-arc column loads — while the CSR
        arrays remain the canonical (and candidate-mode) representation.
        Topology is static, so this cache is never invalidated; the
        facility-dependent half lives in :meth:`hot_facilities`, keyed by the
        same cells, so facility mutations patch only the cells they touch.
        """
        cached = self._hot_arcs.get(cost_index)
        if cached is not None:
            return cached
        arc_cost = self.arc_costs[cost_index]
        forward = self.arc_forward
        neighbors = self.arc_neighbor
        arc_edges = self.arc_edge
        indptr = self.arc_indptr
        hot: list[tuple] = []
        for node_idx in range(self.num_nodes):
            hot.append(
                tuple(
                    (
                        arc_cost[arc],
                        neighbors[arc],
                        arc_edges[arc] * 2 + forward[arc],
                    )
                    for arc in range(indptr[node_idx], indptr[node_idx + 1])
                )
            )
        self._hot_arcs[cost_index] = hot
        return hot

    def hot_facilities(self, cost_index: int) -> list[tuple]:
        """Per-cost facility lookup table keyed by :meth:`hot_arcs` cells.

        ``table[edge_idx * 2 + forward]`` is a (possibly empty) tuple of
        ``(facility_id, key_delta, record)`` triples for the facilities on
        that edge, with the pro-rated partial weight already resolved for
        the traversal direction; ``record`` is the
        :class:`~repro.network.accessor.FacilityRecord` a reported hit
        carries.  Mutations patch only the cells of the edges they touched
        (:meth:`ensure_fresh`), so mutation-heavy monitoring ticks stay
        cheap.
        """
        cached = self._hot_facilities.get(cost_index)
        if cached is not None:
            return cached
        table: list[tuple] = [()] * (2 * self.num_edges)
        for edge_idx in self._hosting:
            backward, forward = self._facility_cells(edge_idx, cost_index)
            table[edge_idx * 2] = backward
            table[edge_idx * 2 + 1] = forward
        self._hot_facilities[cost_index] = table
        return table

    def describe(self) -> dict[str, object]:
        """Size summary used by the CLI, docs and the perf harness."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "arcs": len(self.arc_neighbor),
            "facilities": self.num_facilities,
            "cost_types": self.num_cost_types,
            "page_plans": self.has_page_plans,
        }

    # ------------------------------------------------------------------ #
    # Freshness
    # ------------------------------------------------------------------ #
    def ensure_fresh(self) -> "CompiledGraph":
        """Re-derive the facility columns if the facility set mutated.

        Topology is required to be static (the same contract the bulk-loaded
        storage scheme imposes); a snapshot with page plans cannot follow
        facility mutations either, because the on-disk facility file it
        charges against is itself static.  Returns ``self`` for chaining.
        """
        if (
            self._graph.num_nodes != self._num_nodes_at_build
            or self._graph.num_edges != self._num_edges_at_build
        ):
            raise QueryError(
                "the graph gained nodes or edges after it was compiled; "
                "rebuild the CompiledGraph (topology must be static)"
            )
        if self._graph.costs_revision != self._costs_revision:
            if self._storage is not None:
                raise QueryError(
                    "edge costs mutated under a compiled graph with page plans; "
                    "the disk-resident network file is bulk-loaded and static, "
                    "so rebuild the storage and recompile"
                )
            changed_edges = self._graph.changed_edges_since(self._costs_revision)
            if changed_edges is None:
                # Too far behind the graph's bounded changelog: every edge
                # is suspect, so patch all of them (still in place).
                self._refresh_edge_costs(set(range(self.num_edges)))
            else:
                edge_index = self.edge_index
                self._refresh_edge_costs(
                    {edge_index[edge_id] for edge_id in changed_edges}
                )
        if self._facilities.revision == self._facilities_revision:
            return self
        if self._storage is not None:
            raise QueryError(
                "the facility set mutated under a compiled graph with page plans; "
                "the disk-resident facility file is bulk-loaded and static, so "
                "rebuild the storage and recompile"
            )
        changed = self._facilities.changed_facilities_since(self._facilities_revision)
        if changed is None:
            # Too far behind the set's bounded changelog: rebuild everything.
            self._build_facility_store()
            return self
        edge_index = self.edge_index
        self._refresh_facility_edges({edge_index[f.edge_id] for f in changed})
        return self

    # ------------------------------------------------------------------ #
    # Flat facility columns (derived views over the edge-bucketed store,
    # used by memoryview_columns and tests; the query path reads the hot
    # tables, never these)
    # ------------------------------------------------------------------ #
    def _facility_indptr(self) -> list[int]:
        indptr = [0]
        running = 0
        for dense_edge in range(self.num_edges):
            running += len(self._edge_records[dense_edge])
            indptr.append(running)
        return indptr

    def _facility_ids(self) -> list[int]:
        return [
            record.facility_id for bucket in self._edge_records for record in bucket
        ]

    def _facility_offsets(self) -> list[float]:
        return [record.offset for bucket in self._edge_records for record in bucket]

    def edge_facility_records(self, dense_edge: int) -> tuple:
        """The facility records on one dense edge (bucket order = accessor order)."""
        return self._edge_records[dense_edge]

    def adjacency_records(self, node_idx: int) -> list:
        """The exact adjacency list an accessor would return for a dense node.

        Reconstructed from the CSR columns — same values, same order, no
        accessor request.  This is how the batch service's charge layer
        keeps its cross-query record cache populated without routing reads
        through the base accessor: the list compares equal (and stays
        results-identical) to what :meth:`InMemoryAccessor.adjacency
        <repro.network.accessor.InMemoryAccessor.adjacency>` or the storage
        scheme would have produced.  Lists are cached per node for the
        lifetime of the facility columns; ``facility_count`` is facility-set
        state, so the cache is dropped whenever the columns refresh.
        """
        from repro.network.accessor import AdjacencyRecord  # lazy: avoids import cycle

        if self._adj_records_revision != self._facilities_revision:
            self._adj_records.clear()
            self._adj_records_revision = self._facilities_revision
        cached = self._adj_records.get(node_idx)
        if cached is not None:
            return cached
        node_ids = self.node_ids
        edge_ids = self.edge_ids
        edge_costs = self._edge_costs
        edge_length = self.edge_length
        edge_records = self._edge_records
        arc_edge = self.arc_edge
        arc_neighbor = self.arc_neighbor
        arc_forward = self.arc_forward
        node_id = node_ids[node_idx]
        num_costs = len(edge_costs)
        records = []
        for arc in range(self.arc_indptr[node_idx], self.arc_indptr[node_idx + 1]):
            edge_idx = arc_edge[arc]
            neighbor_id = node_ids[arc_neighbor[arc]]
            records.append(
                AdjacencyRecord(
                    neighbor=neighbor_id,
                    edge_id=edge_ids[edge_idx],
                    costs=tuple(edge_costs[ci][edge_idx] for ci in range(num_costs)),
                    length=edge_length[edge_idx],
                    first_node=node_id if arc_forward[arc] else neighbor_id,
                    facility_count=len(edge_records[edge_idx]),
                )
            )
        self._adj_records[node_idx] = records
        return records
