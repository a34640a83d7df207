"""Compiled snapshots of a built network: the data side of the fast path.

Every query algorithm bottoms out in the NE primitive of Section II-C, whose
pure-Python inner loop spends most of its time materialising
:class:`~repro.network.accessor.AdjacencyRecord` /
:class:`~repro.network.accessor.FacilityRecord` objects and walking them
attribute by attribute.  A :class:`CompiledGraph` flattens the built network
once, in one pass over ``graph.neighbors``, into structures the kernel can
walk directly:

* **one topology for every cost type** — per dense node a tuple of
  ``(neighbour, cell)`` pairs, in exactly the order the accessors return
  adjacency records, where ``cell = edge_idx * 2 + forward`` names the arc's
  dense edge and traversal direction.  The paper's LSA and CEA run ``d``
  expansions over one network; all ``d`` kernels walk this one list;
* **per-cost cell-indexed cost lists** — ``cell_costs[cost_index][cell]`` is
  the edge's cost under that type, the graph's own float object (both
  cells of an edge hold it), so an arc's cost is one list index;
* **one cost-independent facility table** — ``facility_cells[cell]`` is a
  (possibly empty) tuple of ``(facility_id, fraction, record)`` triples for
  the facilities on that edge, ``fraction`` pro-rated for the traversal
  direction.  The kernel en-heaps a facility at ``key + edge_cost *
  fraction``, the record path's own expression, so every double is
  bit-identical; facility mutations patch only the cells of the edges they
  touched, driven by the facility set's bounded changelog;
* **page plans** (only when compiled from a disk-resident
  :class:`~repro.storage.NetworkStorage`) — for an accessor request, the
  fixed page-id sequence that request reads, computed the first time a
  search makes that request.  Replaying a plan through an LRU buffer
  performs the same buffered reads as the record-materialising path, which
  is how the fast path keeps page-read and buffer-hit counters
  bit-identical without scanning page records.

The snapshot shares nothing mutable with its searches (a page plan is
filled in on first use, the same tuple whichever search asks): one
``CompiledGraph`` can back every shard worker of a parallel batch, the
session's monitor and its searches, while each charges its own buffer and
counters.  :meth:`CompiledGraph.derive` builds another snapshot over the same
topology — a temporal snapshot's re-costed graph, or a plan-free twin of a
disk-resident one — that copies only the cost lists.  Cost and facility
columns track the revisions of the graph and the facility set they were
derived from and are patched on demand by :meth:`CompiledGraph.ensure_fresh`;
the topology itself must stay static, exactly as the bulk-loaded storage
scheme already requires.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable

from repro.errors import QueryError
from repro.network.facilities import FacilityId, FacilitySet
from repro.network.graph import EdgeId, MultiCostGraph, NodeId

__all__ = ["CompiledGraph"]


class _PagePlans(dict):
    """Page plans keyed by dense index (or facility id), each computed on first use.

    ``plan_of`` reads a plan off the static storage through uncounted
    ``peek`` reads, so computing one in the middle of a search moves no
    counter and no buffer page; a snapshot pays only for the requests its
    searches make instead of walking every index tree when it is built.
    """

    __slots__ = ("_plan_of", "_ids")

    def __init__(self, plan_of, ids=None):
        super().__init__()
        self._plan_of = plan_of
        self._ids = ids

    def __missing__(self, key):
        plan = self[key] = self._plan_of(key if self._ids is None else self._ids[key])
        return plan


class CompiledGraph:
    """A read-only compiled snapshot of a graph + facility set (+ optional page plans)."""

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
        self._set_page_plans()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_accessor(cls, accessor: object) -> "CompiledGraph":
        """Compile the network behind a data layer (in-memory or disk-resident).

        A storage accessor (built, packed or a snapshot view) yields a
        snapshot with page plans bound to its disk; the in-memory accessor
        yields a plan-free snapshot whose charging is pure counter bumps.
        """
        # Imported lazily: repro.storage depends on repro.network.
        from repro.storage.scheme import NetworkStorage

        if not cls.can_compile(accessor):
            # Compilation walks the full in-memory topology, so a pack can
            # only feed the fast path when opened with its source graph
            # attached; the standalone bisect-backed views cannot be compiled.
            raise QueryError(
                f"cannot compile a graph from a {type(accessor).__name__}; expected "
                "an InMemoryAccessor or a NetworkStorage (a packed dataset only "
                "with its source graph and facility set attached)"
            )
        storage = accessor if isinstance(accessor, NetworkStorage) else None
        return cls(accessor.graph, accessor.facilities, storage=storage)

    @staticmethod
    def can_compile(accessor: object) -> bool:
        """Whether :meth:`from_accessor` can compile ``accessor``'s network."""
        # Imported lazily: both modules import this package's siblings.
        from repro.network.accessor import InMemoryAccessor
        from repro.storage.scheme import NetworkStorage

        if isinstance(accessor, InMemoryAccessor):
            return True
        return (
            isinstance(accessor, NetworkStorage)
            and isinstance(accessor.graph, MultiCostGraph)
            and isinstance(accessor.facilities, FacilitySet)
        )

    def _build_topology(self) -> None:
        graph = self._graph
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
        edge_ids: list[EdgeId] = []
        edge_length: list[float] = []
        cell_costs: list[list[float]] = [[] for _ in range(graph.num_cost_types)]
        arcs: list[tuple[tuple[int, int], ...]] = []
        # One pass: an edge gets its dense index the first time a node's
        # neighbour list reaches it.  Pairs are laid out in the exact order
        # graph.neighbors() (and therefore both accessors) return adjacency
        # records, so a kernel walking them pushes heap entries in the
        # record path's push order — the property that keeps tie-breaking,
        # and hence results, bit-identical.
        for node_id in node_ids:
            row = []
            for neighbor, edge in graph.neighbors(node_id):
                dense_edge = edge_index.get(edge.edge_id)
                if dense_edge is None:
                    dense_edge = edge_index[edge.edge_id] = len(edge_ids)
                    edge_ids.append(edge.edge_id)
                    edge_length.append(edge.length)
                    for column, value in zip(cell_costs, edge.costs.values):
                        column.append(value)
                        column.append(value)
                row.append((node_index[neighbor], dense_edge * 2 + (node_id == edge.u)))
            arcs.append(tuple(row))
        self._set_topology(node_ids, node_index, edge_ids, edge_index, edge_length, arcs)
        self.cell_costs = cell_costs
        self._costs_revision = graph.costs_revision

    def _set_topology(
        self,
        node_ids: tuple[NodeId, ...],
        node_index: dict[NodeId, int],
        edge_ids: list[EdgeId],
        edge_index: dict[EdgeId, int],
        edge_length: list[float],
        arcs: list[tuple[tuple[int, int], ...]],
    ) -> None:
        """Bind the static topology: every field :meth:`derive` shares with its source."""
        self.node_ids = node_ids
        self.node_index = node_index
        self.edge_ids = edge_ids
        self.edge_index = edge_index
        self.edge_length = edge_length
        self.arcs = arcs

    def _build_facility_store(self) -> None:
        # One O(|F|) grouping pass over the set (iterating the set preserves
        # the per-edge order ``on_edge`` reports, because removals keep
        # relative order in both indexes).  The store is edge-bucketed
        # record tuples, from which the cost-independent facility table and
        # the per-node flags are derived.
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
        cells: list[tuple] = [()] * (2 * self.num_edges)
        flags = bytearray(self.num_nodes)
        # Bound before the cells are filled: _facility_cells reads the records.
        self._set_facility_side(edge_records, facility_edge_of, set(grouped), cells, flags)
        for dense_edge in self._hosting:
            cells[dense_edge * 2], cells[dense_edge * 2 + 1] = self._facility_cells(
                dense_edge
            )
            for node_idx in self.edge_nodes(dense_edge):
                flags[node_idx] = 1

    def _set_facility_side(
        self,
        edge_records: list[tuple],
        facility_edge_of: dict[FacilityId, EdgeId],
        hosting: set[int],
        cells: list[tuple],
        flags: bytearray,
        source: "CompiledGraph | None" = None,
    ) -> None:
        """Bind the facility side: every field :meth:`derive` may share with its source.

        ``facility_node_flags`` flags each dense node some edge of whose
        neighbour list hosts facilities; the kernels' serving loops take a
        facility-free fast branch when settling an unflagged node, which in
        sparse-facility regimes is nearly every settle.  Like the table, the
        flags are patched in place by the incremental refresh, so a kernel
        that bound both at construction sees every mutation.  ``source`` is
        the snapshot whose side this one reads until either facility set
        moves (see :meth:`ensure_fresh`); ``None`` for a side of its own.
        """
        self._edge_records = edge_records
        self.facility_edge_of = facility_edge_of
        self._hosting = hosting
        self.facility_cells = cells
        self.facility_node_flags = flags
        self._facilities_revision = self._facilities.revision
        self._facility_source = source
        self._facility_source_revision = (
            None if source is None else source._facilities_revision
        )

    def _facility_cells(self, dense_edge: int) -> tuple[tuple, tuple]:
        """The (backward, forward) facility-table cells of one edge.

        Each cell is a tuple of ``(facility_id, fraction, record)`` triples;
        the fraction uses the record path's expressions (offset over length
        from the first end-node, the rest of the edge from the other), so
        the kernel's ``key + edge_cost * fraction`` evaluates exactly the
        record path's doubles under every cost type.
        """
        length = self.edge_length[dense_edge]
        forward = []
        backward = []
        for record in self._edge_records[dense_edge]:
            if length > 0:
                fraction_fwd = record.offset / length
                fraction_bwd = (length - record.offset) / length
            else:
                fraction_fwd = fraction_bwd = 0.0
            forward.append((record.facility_id, fraction_fwd, record))
            backward.append((record.facility_id, fraction_bwd, record))
        return tuple(backward), tuple(forward)

    def _refresh_facility_edges(self, dense_edges: set[int]) -> None:
        """Re-derive the store, table cells and node flags of the given edges only."""
        from repro.network.accessor import FacilityRecord  # lazy: avoids import cycle

        facilities = self._facilities
        # Drop the old id mappings first: a facility id deleted from one
        # edge and re-added on another in the same batch must not have its
        # fresh mapping clobbered by the stale edge's cleanup.
        for dense_edge in dense_edges:
            for record in self._edge_records[dense_edge]:
                self.facility_edge_of.pop(record.facility_id, None)
        cells = self.facility_cells
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
            cells[dense_edge * 2], cells[dense_edge * 2 + 1] = self._facility_cells(
                dense_edge
            )
            self._patch_facility_node_flags(dense_edge)
        self._facilities_revision = facilities.revision

    def _refresh_edge_costs(self, dense_edges: Iterable[int]) -> None:
        """Patch both cost cells of the given edges under every cost type, in place.

        The cost lists are the only cost-dependent structure; patching
        mutates the lists kernels already bound, so they observe the new
        costs exactly as facility patches behave.
        """
        edge_of = self._graph.edge
        edge_ids = self.edge_ids
        cell_costs = self.cell_costs
        for dense_edge in dense_edges:
            cell = dense_edge * 2
            for column, value in zip(cell_costs, edge_of(edge_ids[dense_edge]).costs.values):
                column[cell] = column[cell + 1] = value

    def edge_nodes(self, dense_edge: int) -> tuple[int, ...]:
        """The dense nodes whose neighbour lists traverse one dense edge.

        Both end-nodes on an undirected graph, the first one on a directed
        graph.  Read from the graph, so no per-edge list is kept.
        """
        edge = self._graph.edge(self.edge_ids[dense_edge])
        first = self.node_index[edge.u]
        if self._graph.directed:
            return (first,)
        return (first, self.node_index[edge.v])

    def _patch_facility_node_flags(self, dense_edge: int) -> None:
        """Recompute the flag of every node incident to one refreshed edge."""
        flags = self.facility_node_flags
        hosting = self._hosting
        arcs = self.arcs
        for node_idx in self.edge_nodes(dense_edge):
            flags[node_idx] = any((cell >> 1) in hosting for _n, cell in arcs[node_idx])

    def _set_page_plans(self) -> None:
        storage = self._storage
        if storage is None:
            self._adjacency_plans = self._facility_plans = self._facility_tree_plans = None
            return
        self._adjacency_plans = _PagePlans(storage.adjacency_page_plan, self.node_ids)
        self._facility_plans = _PagePlans(storage.facility_page_plan, self.edge_ids)
        self._facility_tree_plans = _PagePlans(storage.facility_tree_page_plan)

    def derive(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        *,
        recosted: Iterable[EdgeId] = (),
        storage: object | None = None,
        costs: "CompiledGraph | None" = None,
    ) -> "CompiledGraph":
        """A snapshot of ``graph`` and ``facilities`` over this one's topology.

        ``graph`` must share this snapshot's topology: its own graph, or a
        graph :meth:`~repro.network.graph.MultiCostGraph.recosted` from it,
        with ``recosted`` naming every edge whose costs may differ.
        ``facilities`` must place exactly the facilities this snapshot's set
        places now (the set itself, or a rebinding of it to ``graph``).
        ``costs``, when given, is another snapshot derived over this
        topology: its cost lists are copied instead of this one's, ``graph``
        is re-costed from *its* graph, and ``recosted`` names the edges
        whose costs may differ from that graph's.  A stale temporal stack is
        rebuilt this way, patching only the edges ticked since it was built;
        nothing of ``costs`` is kept.

        The result shares the neighbour tuples and the node and edge
        indexes, and copies only the cost lists, patched for the re-costed
        edges (and for any edge whose cost the copied lists have not caught
        up with).  When both snapshots are plan-free it also reads this one's
        facility table until either facility set moves, after which it
        builds a table of its own; a disk-resident snapshot (``storage``
        given, page plans built over it) or a source with page plans builds
        its own facility side.  A disk-resident session's engine and monitor
        share one topology this way (the plan-free snapshot and the one with
        page plans, whichever is compiled first); a temporal snapshot
        session runs on one derived from the base session's.
        """
        if facilities.graph is not graph:
            raise QueryError("facility set was built for a different graph")
        if graph.num_nodes != self.num_nodes or graph.num_edges != self.num_edges:
            raise QueryError("the derived graph does not share this snapshot's topology")
        if costs is None:
            costs = self
        self.ensure_fresh()
        twin = object.__new__(CompiledGraph)
        twin._graph = graph
        twin._facilities = facilities
        twin._storage = storage
        twin._set_topology(
            self.node_ids,
            self.node_index,
            self.edge_ids,
            self.edge_index,
            self.edge_length,
            self.arcs,
        )
        twin.cell_costs = [list(column) for column in costs.cell_costs]
        lagging = costs._graph.changed_edges_since(costs._costs_revision)
        if lagging is None:
            twin._refresh_edge_costs(range(self.num_edges))
        else:
            edge_index = self.edge_index
            twin._refresh_edge_costs(
                {edge_index[edge_id] for edge_id in (*recosted, *lagging)}
            )
        twin._costs_revision = graph.costs_revision
        if storage is None and self._storage is None:
            twin._set_facility_side(
                self._edge_records,
                self.facility_edge_of,
                self._hosting,
                self.facility_cells,
                self.facility_node_flags,
                source=self,
            )
        else:
            twin._build_facility_store()
        twin._set_page_plans()
        return twin

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
    def adjacency_plans(self) -> dict[int, tuple[int, ...]] | None:
        """Per-dense-node page plans of an adjacency request (``None`` in-memory)."""
        return self._adjacency_plans

    @property
    def facility_plans(self) -> dict[int, tuple[int, ...]] | None:
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
        """The graph costs revision the cost lists were derived from."""
        return self._costs_revision

    def describe(self) -> dict[str, object]:
        """Size summary used by the CLI, docs and the perf harness."""
        return {
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "arcs": sum(map(len, self.arcs)),
            "facilities": self.num_facilities,
            "cost_types": self.num_cost_types,
            "page_plans": self.has_page_plans,
        }

    # ------------------------------------------------------------------ #
    # Freshness
    # ------------------------------------------------------------------ #
    def ensure_fresh(self) -> "CompiledGraph":
        """Patch the cost lists and facility columns the graph and set moved under.

        Topology is required to be static (the same contract the bulk-loaded
        storage scheme imposes).  A snapshot with page plans follows neither
        cost nor facility mutations: the disk-resident network and facility
        files it charges against are bulk-loaded and static, and the record
        path reads them as they were loaded, so this snapshot stays what it
        was compiled from too.  Returns ``self`` for chaining.
        """
        if self._graph.num_nodes != self.num_nodes or self._graph.num_edges != self.num_edges:
            raise QueryError(
                "the graph gained nodes or edges after it was compiled; "
                "rebuild the CompiledGraph (topology must be static)"
            )
        if self._storage is not None:
            return self
        if self._graph.costs_revision != self._costs_revision:
            changed_edges = self._graph.changed_edges_since(self._costs_revision)
            if changed_edges is None:
                # Too far behind the graph's bounded changelog: every edge
                # is suspect, so patch all of them (still in place).
                self._refresh_edge_costs(range(self.num_edges))
            else:
                edge_index = self.edge_index
                self._refresh_edge_costs({edge_index[edge_id] for edge_id in changed_edges})
            self._costs_revision = self._graph.costs_revision
        source = self._facility_source
        if (
            source is not None
            and source._facilities_revision != self._facility_source_revision
        ):
            # The shared table moved with the source's set: build our own.
            self._build_facility_store()
        if self._facilities.revision == self._facilities_revision:
            return self
        changed = self._facilities.changed_facilities_since(self._facilities_revision)
        if changed is None or self._facility_source is not None:
            # Too far behind the set's bounded changelog, or the table is
            # still the source's: rebuild a store of our own.
            self._build_facility_store()
            return self
        edge_index = self.edge_index
        self._refresh_facility_edges({edge_index[f.edge_id] for f in changed})
        return self

    # ------------------------------------------------------------------ #
    # Record views (what an accessor request would return)
    # ------------------------------------------------------------------ #
    def edge_facility_records(self, dense_edge: int) -> tuple:
        """The facility records on one dense edge (bucket order = accessor order)."""
        return self._edge_records[dense_edge]

    def adjacency_records(self, node_idx: int) -> list:
        """The exact adjacency list an accessor would return for a dense node.

        Built from the neighbour tuple, the cost lists and the facility
        store — same values, same order, no accessor request.  The batch
        service's cross-query cache builds a node's list this way only when
        a record-path request (``baseline``, say) reads an entry the kernel
        filled; the list compares equal (and stays results-identical) to what
        :meth:`InMemoryAccessor.adjacency
        <repro.network.accessor.InMemoryAccessor.adjacency>` or the storage
        scheme would have produced.
        """
        from repro.network.accessor import AdjacencyRecord  # lazy: avoids import cycle

        node_ids = self.node_ids
        edge_ids = self.edge_ids
        cell_costs = self.cell_costs
        node_id = node_ids[node_idx]
        records = []
        for neighbor, cell in self.arcs[node_idx]:
            edge_idx = cell >> 1
            neighbor_id = node_ids[neighbor]
            records.append(
                AdjacencyRecord(
                    neighbor=neighbor_id,
                    edge_id=edge_ids[edge_idx],
                    costs=tuple(column[cell] for column in cell_costs),
                    length=self.edge_length[edge_idx],
                    first_node=node_id if cell & 1 else neighbor_id,
                    facility_count=len(self._edge_records[edge_idx]),
                )
            )
        return records
