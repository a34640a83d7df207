"""The multi-cost network (MCN) graph model.

An MCN is a road network ``G = {V, E, W}`` where every edge carries a
``d``-dimensional cost vector.  Nodes optionally carry planar coordinates
(the algorithms never use them — only the data generators and examples do).
Edges are undirected by default; directed graphs are supported as the paper
notes the extension is trivial.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.errors import GraphError
from repro.network.costs import CostVector

__all__ = ["Node", "Edge", "MultiCostGraph"]

#: How many cost-changed edge ids the graph remembers; consumers that fall
#: further behind than this must rebuild instead of patching.
_CHANGELOG_LIMIT = 1024

NodeId = int
EdgeId = int


@dataclass(frozen=True)
class Node:
    """A network node (road intersection).

    Coordinates are optional: the query algorithms rely purely on
    connectivity, but the synthetic generators and plotting helpers use them.
    """

    node_id: NodeId
    x: float = 0.0
    y: float = 0.0


@dataclass(frozen=True)
class Edge:
    """A network edge (road segment) between ``u`` and ``v``.

    ``costs`` is the d-dimensional cost vector of the full segment.
    ``length`` is the segment's physical length used to pro-rate partial
    weights at facilities and query locations; it defaults to the first
    cost component when not supplied explicitly.
    """

    edge_id: EdgeId
    u: NodeId
    v: NodeId
    costs: CostVector
    length: float

    def other_end(self, node: NodeId) -> NodeId:
        """Return the end-node opposite to ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise GraphError(f"node {node} is not an end-node of edge {self.edge_id}")

    def partial_costs(self, from_node: NodeId, distance_along: float) -> CostVector:
        """Cost vector of the partial segment starting at ``from_node``.

        ``distance_along`` is measured from the edge's first end-node ``u``
        (the convention used by the facility file of the storage scheme).
        """
        if not 0.0 <= distance_along <= self.length + 1e-12:
            raise GraphError(
                f"offset {distance_along} outside edge {self.edge_id} of length {self.length}"
            )
        if self.length == 0:
            return CostVector.zeros(self.costs.dimensions)
        if from_node == self.u:
            fraction = distance_along / self.length
        elif from_node == self.v:
            fraction = (self.length - distance_along) / self.length
        else:
            raise GraphError(f"node {from_node} is not an end-node of edge {self.edge_id}")
        return self.costs.scale(fraction)


@dataclass
class _AdjacencyEntry:
    neighbor: NodeId
    edge_id: EdgeId


class MultiCostGraph:
    """A multi-cost network: nodes, edges and d-dimensional edge costs.

    The graph is the in-memory "source of truth"; the simulated disk layout
    (:class:`repro.storage.NetworkStorage`) is built from it, and the
    in-memory accessor (:class:`repro.network.accessor.InMemoryAccessor`)
    reads it directly.  :meth:`recosted` derives a graph that shares this
    one's topology and owns only its edge costs.
    """

    def __init__(self, num_cost_types: int, *, directed: bool = False):
        if num_cost_types < 1:
            raise GraphError("an MCN needs at least one cost type")
        self._num_cost_types = num_cost_types
        self._directed = directed
        self._nodes: dict[NodeId, Node] = {}
        self._edges: dict[EdgeId, Edge] = {}
        self._adjacency: dict[NodeId, list[_AdjacencyEntry]] = {}
        self._next_edge_id = 0
        self._costs_revision = 0
        self._cost_log: deque[EdgeId] = deque(maxlen=_CHANGELOG_LIMIT)
        # Set on a graph made by recosted(): its node and adjacency
        # containers belong to the graph it was derived from.
        self._shares_topology = False
        # Node -> connected-component label, derived lazily from the topology.
        self._components: dict[NodeId, NodeId] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node_id: NodeId, x: float = 0.0, y: float = 0.0) -> Node:
        """Add a node; re-adding an existing id with the same coordinates is a no-op."""
        self._check_owns_topology()
        existing = self._nodes.get(node_id)
        node = Node(node_id, float(x), float(y))
        if existing is not None:
            if existing != node:
                raise GraphError(f"node {node_id} already exists with different coordinates")
            return existing
        self._nodes[node_id] = node
        self._adjacency[node_id] = []
        self._components = None
        return node

    def add_edge(
        self,
        u: NodeId,
        v: NodeId,
        costs: Sequence[float] | CostVector,
        *,
        length: float | None = None,
        edge_id: EdgeId | None = None,
    ) -> Edge:
        """Add an edge between existing nodes ``u`` and ``v``.

        For undirected graphs the edge is traversable in both directions
        with the same cost vector (the paper's default assumption).
        """
        self._check_owns_topology()
        if u not in self._nodes:
            raise GraphError(f"unknown end-node {u}")
        if v not in self._nodes:
            raise GraphError(f"unknown end-node {v}")
        if u == v:
            raise GraphError("self-loop edges are not allowed in a road network")
        vector = self._cost_vector(costs)
        if edge_id is None:
            edge_id = self._next_edge_id
        if edge_id in self._edges:
            raise GraphError(f"edge id {edge_id} already exists")
        self._next_edge_id = max(self._next_edge_id, edge_id) + 1
        if length is None:
            length = vector[0] if vector[0] > 0 else 1.0
        if length <= 0:
            raise GraphError("edge length must be positive")
        edge = Edge(edge_id, u, v, vector, float(length))
        self._edges[edge_id] = edge
        self._adjacency[u].append(_AdjacencyEntry(v, edge_id))
        if not self._directed:
            self._adjacency[v].append(_AdjacencyEntry(u, edge_id))
        self._components = None
        return edge

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def update_edge_costs(self, edge_id: EdgeId, costs: Sequence[float] | CostVector) -> Edge:
        """Replace an edge's cost vector in place (topology and length keep).

        This is the primitive behind time-varying re-profiling: the edge's
        end-nodes, id and physical ``length`` are untouched (so facility
        offsets stay valid), only the d-dimensional cost vector changes.
        Every call bumps :attr:`costs_revision` and records the edge id in a
        bounded changelog consumed by :meth:`changed_edges_since` (the
        compiled snapshot patches exactly the touched edges).
        """
        old = self.edge(edge_id)
        edge = Edge(edge_id, old.u, old.v, self._cost_vector(costs), old.length)
        self._edges[edge_id] = edge
        self._costs_revision += 1
        self._cost_log.append(edge_id)
        return edge

    def recosted(
        self, costs_by_edge: Mapping[EdgeId, Sequence[float] | CostVector]
    ) -> "MultiCostGraph":
        """A graph over this graph's topology with the listed edges re-costed.

        The result shares this graph's node and adjacency containers by
        reference, so node order, edge order and every node's neighbour order
        are exactly this graph's.  It owns only its edge dict: a copy of this
        graph's, with a new :class:`Edge` (same end-nodes, id and ``length``)
        for each listed edge, plus its own :attr:`costs_revision` and
        changelog starting at zero.  Each listed vector passes the same checks
        as :meth:`update_edge_costs`.

        Because the topology is shared, the result refuses :meth:`add_node`
        and :meth:`add_edge` with :class:`GraphError`, while
        :meth:`update_edge_costs` on it writes only its own edge dict.  This
        graph's topology must not change while a re-costed graph is alive;
        nothing checks that, because a graph a session serves is static
        already (:class:`~repro.network.compiled.CompiledGraph` requires it,
        and no session, monitor or serve path adds nodes or edges).
        """
        edges = dict(self._edges)
        for edge_id, costs in costs_by_edge.items():
            old = self.edge(edge_id)
            edges[edge_id] = Edge(edge_id, old.u, old.v, self._cost_vector(costs), old.length)
        graph = MultiCostGraph(self._num_cost_types, directed=self._directed)
        graph._nodes = self._nodes
        graph._adjacency = self._adjacency
        graph._edges = edges
        graph._shares_topology = True
        return graph

    def _cost_vector(self, costs: Sequence[float] | CostVector) -> CostVector:
        vector = costs if isinstance(costs, CostVector) else CostVector(costs)
        if vector.dimensions != self._num_cost_types:
            raise GraphError(
                f"edge cost vector has {vector.dimensions} components, "
                f"expected {self._num_cost_types}"
            )
        return vector

    def _check_owns_topology(self) -> None:
        if self._shares_topology:
            raise GraphError(
                "a re-costed graph shares the topology of the graph it was "
                "derived from and cannot add nodes or edges"
            )

    @property
    def costs_revision(self) -> int:
        """A counter bumped by every :meth:`update_edge_costs` call."""
        return self._costs_revision

    def changed_edges_since(self, revision: int) -> list[EdgeId] | None:
        """The edge ids whose costs changed after ``revision`` (oldest first).

        Returns ``[]`` when the caller is current, the (possibly repeating)
        edge ids when the bounded changelog still covers the gap, and
        ``None`` when it overflowed — the caller must rebuild from scratch.
        A revision *ahead* of the graph's is a caller bug and raises.
        """
        if revision > self._costs_revision:
            raise GraphError(
                f"revision {revision} is ahead of the graph's revision {self._costs_revision}"
            )
        needed = self._costs_revision - revision
        if needed == 0:
            return []
        if needed > len(self._cost_log):
            return None
        return list(self._cost_log)[-needed:]

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def num_cost_types(self) -> int:
        """The number of cost types ``d``."""
        return self._num_cost_types

    @property
    def directed(self) -> bool:
        """Whether edges are one-way."""
        return self._directed

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[NodeId]:
        return iter(self._nodes.keys())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        return iter(self._edges.values())

    def has_node(self, node_id: NodeId) -> bool:
        return node_id in self._nodes

    def has_edge(self, edge_id: EdgeId) -> bool:
        return edge_id in self._edges

    def node(self, node_id: NodeId) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    def edge(self, edge_id: EdgeId) -> Edge:
        try:
            return self._edges[edge_id]
        except KeyError:
            raise GraphError(f"unknown edge {edge_id}") from None

    def neighbors(self, node_id: NodeId) -> list[tuple[NodeId, Edge]]:
        """Outgoing ``(neighbor, edge)`` pairs of ``node_id``."""
        if node_id not in self._adjacency:
            raise GraphError(f"unknown node {node_id}")
        return [(entry.neighbor, self._edges[entry.edge_id]) for entry in self._adjacency[node_id]]

    def degree(self, node_id: NodeId) -> int:
        if node_id not in self._adjacency:
            raise GraphError(f"unknown node {node_id}")
        return len(self._adjacency[node_id])

    def edge_between(self, u: NodeId, v: NodeId) -> Edge | None:
        """Return one edge connecting ``u`` to ``v`` (or ``None``)."""
        if u not in self._adjacency:
            raise GraphError(f"unknown node {u}")
        for entry in self._adjacency[u]:
            if entry.neighbor == v:
                return self._edges[entry.edge_id]
        return None

    def component_of(self, node_id: NodeId) -> NodeId:
        """The label of the connected component holding ``node_id``.

        Direction is ignored: two nodes share a label exactly when a path of
        edges, each taken either way, joins them.  So on an undirected graph
        a shared label means reachable, while on a directed graph a different
        label only proves that no directed path exists.  The labels are
        derived once per topology (one union-find pass over the edges) and
        :meth:`add_node` / :meth:`add_edge` drop them.
        """
        labels = self._component_labels()
        try:
            return labels[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    def is_connected(self) -> bool:
        """True if every node is reachable from every other (ignoring direction)."""
        return len(set(self._component_labels().values())) <= 1

    def _component_labels(self) -> dict[NodeId, NodeId]:
        labels = self._components
        if labels is None:
            parent = {node_id: node_id for node_id in self._nodes}

            def root(node_id: NodeId) -> NodeId:
                while parent[node_id] != node_id:
                    parent[node_id] = parent[parent[node_id]]
                    node_id = parent[node_id]
                return node_id

            for edge in self._edges.values():
                root_u, root_v = root(edge.u), root(edge.v)
                if root_u != root_v:
                    parent[root_u] = root_v
            labels = {node_id: root(node_id) for node_id in self._nodes}
            self._components = labels
        return labels

    def total_cost_statistics(self) -> dict[str, list[float]]:
        """Per-cost-type minimum / mean / maximum over all edges (for reporting)."""
        d = self._num_cost_types
        minima = [float("inf")] * d
        maxima = [0.0] * d
        totals = [0.0] * d
        for edge in self._edges.values():
            for i, value in enumerate(edge.costs):
                minima[i] = min(minima[i], value)
                maxima[i] = max(maxima[i], value)
                totals[i] += value
        count = max(len(self._edges), 1)
        return {
            "min": minima,
            "max": maxima,
            "mean": [total / count for total in totals],
        }

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        return (
            f"MultiCostGraph({kind}, d={self._num_cost_types}, "
            f"nodes={self.num_nodes}, edges={self.num_edges})"
        )
