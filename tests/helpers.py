"""Test helpers: brute-force oracles and tiny data builders."""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence

from repro.network import (
    CostVector,
    Facility,
    FacilitySet,
    InMemoryAccessor,
    MultiCostGraph,
    NetworkLocation,
    all_facility_cost_vectors,
    dominates,
)


def exact_skyline(vectors: Mapping[int, Sequence[float]]) -> set[int]:
    """Brute-force skyline over fully known cost vectors (the formal definition)."""
    result = set()
    for key, vector in vectors.items():
        vector = tuple(vector)
        if not any(
            dominates(tuple(other), vector) for other_key, other in vectors.items() if other_key != key
        ):
            result.add(key)
    return result


def exact_top_k(
    vectors: Mapping[int, Sequence[float]], aggregate, k: int
) -> list[tuple[int, float]]:
    """Brute-force top-k scores over fully known cost vectors."""
    scored = sorted(
        ((key, aggregate(tuple(vector))) for key, vector in vectors.items()),
        key=lambda item: (item[1], item[0]),
    )
    return scored[:k]


def facility_vectors(
    graph: MultiCostGraph, facilities: FacilitySet, query: NetworkLocation
) -> dict[int, tuple[float, ...]]:
    """Ground-truth cost vectors computed with plain Dijkstra (independent code path)."""
    return {
        fid: tuple(vector)
        for fid, vector in all_facility_cost_vectors(graph, facilities, query).items()
    }


def reference_snapshot(network, time: float) -> MultiCostGraph:
    """The snapshot of a ``TimeVaryingMCN`` at ``time`` as a whole-graph copy.

    Every node and edge of the base is re-added through the validating
    ``add_node``/``add_edge``, each edge costed by ``network.cost_at``, so the
    copy owns all of its containers: the independent reference that
    ``TimeVaryingMCN.snapshot`` (which shares the base's topology) is
    checked against.
    """
    base = network.base_graph
    snapshot = MultiCostGraph(base.num_cost_types, directed=base.directed)
    for node in base.nodes():
        snapshot.add_node(node.node_id, node.x, node.y)
    for edge in base.edges():
        snapshot.add_edge(
            edge.u,
            edge.v,
            network.cost_at(edge.edge_id, time),
            length=edge.length,
            edge_id=edge.edge_id,
        )
    return snapshot


def reference_facilities(graph: MultiCostGraph, facilities: FacilitySet) -> FacilitySet:
    """``facilities`` re-added facility by facility onto ``graph`` (the rebind reference)."""
    rebound = FacilitySet(graph)
    for facility in facilities:
        rebound.add(
            Facility(facility.facility_id, facility.edge_id, facility.offset, facility.attributes)
        )
    return rebound


def random_mcn(
    *,
    num_nodes: int,
    num_edges: int,
    num_cost_types: int,
    num_facilities: int,
    seed: int,
    integer_costs: bool = False,
) -> tuple[MultiCostGraph, FacilitySet]:
    """A random connected multigraph-free MCN with facilities, for property tests.

    ``integer_costs=True`` draws small integer edge costs, which makes exact
    cost ties common — the stress case for the tie-handling refinements.
    """
    rng = random.Random(seed)
    num_nodes = max(num_nodes, 2)
    graph = MultiCostGraph(num_cost_types)
    for node_id in range(num_nodes):
        graph.add_node(node_id, rng.uniform(0, 100), rng.uniform(0, 100))

    def draw_costs() -> list[float]:
        if integer_costs:
            return [float(rng.randint(1, 4)) for _ in range(num_cost_types)]
        return [rng.uniform(0.5, 10.0) for _ in range(num_cost_types)]

    # Random spanning tree first so the graph is connected.
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    for index in range(1, num_nodes):
        u = nodes[index]
        v = nodes[rng.randrange(index)]
        graph.add_edge(u, v, draw_costs(), length=rng.uniform(1.0, 5.0))
    attempts = 0
    while graph.num_edges < num_edges and attempts < 20 * num_edges:
        attempts += 1
        u, v = rng.randrange(num_nodes), rng.randrange(num_nodes)
        if u == v or graph.edge_between(u, v) is not None:
            continue
        graph.add_edge(u, v, draw_costs(), length=rng.uniform(1.0, 5.0))

    facilities = FacilitySet(graph)
    edges = list(graph.edges())
    for facility_id in range(num_facilities):
        edge = rng.choice(edges)
        offset = rng.uniform(0.0, edge.length)
        if integer_costs:
            offset = float(rng.choice([0.0, edge.length / 2, edge.length]))
        facilities.add_on_edge(facility_id, edge.edge_id, offset)
    return graph, facilities


def random_query(graph: MultiCostGraph, seed: int) -> NetworkLocation:
    """A random query location (node or on-edge) on ``graph``."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        return NetworkLocation.at_node(rng.choice(list(graph.node_ids())))
    edge = rng.choice(list(graph.edges()))
    return NetworkLocation.on_edge(edge.edge_id, rng.uniform(0.0, edge.length))


def accessor_for(graph: MultiCostGraph, facilities: FacilitySet) -> InMemoryAccessor:
    return InMemoryAccessor(graph, facilities)
