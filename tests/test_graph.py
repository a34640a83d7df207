"""Unit tests for the MultiCostGraph model."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.network.costs import CostVector
from repro.network.graph import Edge, MultiCostGraph


@pytest.fixture
def simple_graph() -> MultiCostGraph:
    graph = MultiCostGraph(num_cost_types=2)
    graph.add_node(1, 0.0, 0.0)
    graph.add_node(2, 1.0, 0.0)
    graph.add_node(3, 2.0, 0.0)
    graph.add_edge(1, 2, [1.0, 2.0])
    graph.add_edge(2, 3, [3.0, 4.0])
    return graph


class TestGraphConstruction:
    def test_requires_at_least_one_cost_type(self):
        with pytest.raises(GraphError):
            MultiCostGraph(0)

    def test_add_node_and_lookup(self):
        graph = MultiCostGraph(1)
        graph.add_node(7, 1.5, 2.5)
        node = graph.node(7)
        assert (node.x, node.y) == (1.5, 2.5)

    def test_re_adding_identical_node_is_noop(self):
        graph = MultiCostGraph(1)
        graph.add_node(7, 1.0, 2.0)
        graph.add_node(7, 1.0, 2.0)
        assert graph.num_nodes == 1

    def test_re_adding_node_with_different_coordinates_fails(self):
        graph = MultiCostGraph(1)
        graph.add_node(7, 1.0, 2.0)
        with pytest.raises(GraphError):
            graph.add_node(7, 9.0, 9.0)

    def test_add_edge_requires_existing_nodes(self):
        graph = MultiCostGraph(1)
        graph.add_node(1)
        with pytest.raises(GraphError):
            graph.add_edge(1, 2, [1.0])

    def test_add_edge_rejects_self_loop(self, simple_graph):
        with pytest.raises(GraphError):
            simple_graph.add_edge(1, 1, [1.0, 1.0])

    def test_add_edge_rejects_wrong_dimensionality(self, simple_graph):
        with pytest.raises(GraphError):
            simple_graph.add_edge(1, 3, [1.0])

    def test_add_edge_rejects_duplicate_edge_id(self, simple_graph):
        with pytest.raises(GraphError):
            simple_graph.add_edge(1, 3, [1.0, 1.0], edge_id=0)

    def test_edge_ids_auto_increment(self, simple_graph):
        edge = simple_graph.add_edge(1, 3, [1.0, 1.0])
        assert edge.edge_id == 2

    def test_explicit_edge_id_respected(self):
        graph = MultiCostGraph(1)
        graph.add_node(1)
        graph.add_node(2)
        edge = graph.add_edge(1, 2, [1.0], edge_id=42)
        assert edge.edge_id == 42
        assert graph.edge(42) is edge

    def test_default_length_is_first_cost(self, simple_graph):
        assert simple_graph.edge(0).length == 1.0

    def test_zero_first_cost_defaults_length_to_one(self):
        graph = MultiCostGraph(2)
        graph.add_node(1)
        graph.add_node(2)
        edge = graph.add_edge(1, 2, [0.0, 5.0])
        assert edge.length == 1.0

    def test_negative_length_rejected(self, simple_graph):
        with pytest.raises(GraphError):
            simple_graph.add_edge(1, 3, [1.0, 1.0], length=-2.0)

    def test_costs_accept_cost_vector_instances(self, simple_graph):
        edge = simple_graph.add_edge(1, 3, CostVector([1.0, 1.0]))
        assert edge.costs == (1.0, 1.0)


class TestGraphInspection:
    def test_counts(self, simple_graph):
        assert simple_graph.num_nodes == 3
        assert simple_graph.num_edges == 2

    def test_unknown_node_lookup(self, simple_graph):
        with pytest.raises(GraphError):
            simple_graph.node(99)

    def test_unknown_edge_lookup(self, simple_graph):
        with pytest.raises(GraphError):
            simple_graph.edge(99)

    def test_has_node_and_edge(self, simple_graph):
        assert simple_graph.has_node(1)
        assert not simple_graph.has_node(99)
        assert simple_graph.has_edge(0)
        assert not simple_graph.has_edge(99)

    def test_neighbors_undirected(self, simple_graph):
        neighbors = {n for n, _ in simple_graph.neighbors(2)}
        assert neighbors == {1, 3}

    def test_neighbors_unknown_node(self, simple_graph):
        with pytest.raises(GraphError):
            simple_graph.neighbors(99)

    def test_degree(self, simple_graph):
        assert simple_graph.degree(2) == 2
        assert simple_graph.degree(1) == 1

    def test_edge_between(self, simple_graph):
        assert simple_graph.edge_between(1, 2).costs == (1.0, 2.0)
        assert simple_graph.edge_between(2, 1).costs == (1.0, 2.0)
        assert simple_graph.edge_between(1, 3) is None

    def test_iterators(self, simple_graph):
        assert {node.node_id for node in simple_graph.nodes()} == {1, 2, 3}
        assert {edge.edge_id for edge in simple_graph.edges()} == {0, 1}

    def test_repr_mentions_sizes(self, simple_graph):
        text = repr(simple_graph)
        assert "nodes=3" in text and "edges=2" in text

    def test_cost_statistics(self, simple_graph):
        stats = simple_graph.total_cost_statistics()
        assert stats["min"] == [1.0, 2.0]
        assert stats["max"] == [3.0, 4.0]
        assert stats["mean"] == [2.0, 3.0]


class TestConnectivity:
    def test_connected_graph(self, simple_graph):
        assert simple_graph.is_connected()

    def test_disconnected_graph(self):
        graph = MultiCostGraph(1)
        for node_id in range(4):
            graph.add_node(node_id)
        graph.add_edge(0, 1, [1.0])
        graph.add_edge(2, 3, [1.0])
        assert not graph.is_connected()

    def test_empty_graph_is_connected(self):
        assert MultiCostGraph(1).is_connected()

    def test_directed_graph_connectivity_ignores_direction(self):
        graph = MultiCostGraph(1, directed=True)
        graph.add_node(0)
        graph.add_node(1)
        graph.add_edge(0, 1, [1.0])
        assert graph.is_connected()
        assert graph.component_of(0) == graph.component_of(1)

    @pytest.mark.parametrize("directed", [False, True])
    def test_labels_follow_added_nodes_and_edges(self, directed):
        graph = MultiCostGraph(1, directed=directed)
        for node_id in range(4):
            graph.add_node(node_id)
        graph.add_edge(0, 1, [1.0])
        graph.add_edge(3, 2, [1.0])
        assert graph.component_of(0) == graph.component_of(1)
        assert graph.component_of(2) == graph.component_of(3)
        assert graph.component_of(0) != graph.component_of(2)
        assert not graph.is_connected()
        graph.add_edge(2, 1, [1.0])
        assert len({graph.component_of(node_id) for node_id in range(4)}) == 1
        assert graph.is_connected()
        graph.add_node(4)
        assert graph.component_of(4) != graph.component_of(0)
        assert not graph.is_connected()
        graph.add_edge(4, 0, [1.0])
        assert graph.component_of(4) == graph.component_of(3)
        assert graph.is_connected()

    def test_component_of_unknown_node(self, simple_graph):
        with pytest.raises(GraphError):
            simple_graph.component_of(99)

    def test_recosted_graph_labels_its_shared_topology(self, simple_graph):
        recosted = simple_graph.recosted({0: [5.0, 5.0]})
        assert recosted.is_connected()
        assert recosted.component_of(1) == recosted.component_of(3)


class TestDirectedGraphs:
    def test_directed_adjacency_is_one_way(self):
        graph = MultiCostGraph(1, directed=True)
        graph.add_node(0)
        graph.add_node(1)
        graph.add_edge(0, 1, [1.0])
        assert [n for n, _ in graph.neighbors(0)] == [1]
        assert graph.neighbors(1) == []

    def test_directed_flag_exposed(self):
        assert MultiCostGraph(1, directed=True).directed
        assert not MultiCostGraph(1).directed


class TestEdgePartialCosts:
    def test_partial_costs_from_first_node(self):
        edge = Edge(0, 1, 2, CostVector([10.0, 4.0]), 10.0)
        assert edge.partial_costs(1, 2.5).values == (2.5, 1.0)

    def test_partial_costs_from_second_node(self):
        edge = Edge(0, 1, 2, CostVector([10.0, 4.0]), 10.0)
        assert edge.partial_costs(2, 2.5).values == (7.5, 3.0)

    def test_partial_costs_sum_to_full_vector(self):
        edge = Edge(0, 1, 2, CostVector([10.0, 4.0]), 8.0)
        total = edge.partial_costs(1, 3.0) + edge.partial_costs(2, 3.0)
        assert total.values == pytest.approx((10.0, 4.0))

    def test_partial_costs_outside_edge_rejected(self):
        edge = Edge(0, 1, 2, CostVector([10.0]), 10.0)
        with pytest.raises(GraphError):
            edge.partial_costs(1, 11.0)

    def test_partial_costs_from_non_end_node_rejected(self):
        edge = Edge(0, 1, 2, CostVector([10.0]), 10.0)
        with pytest.raises(GraphError):
            edge.partial_costs(3, 1.0)

    def test_other_end(self):
        edge = Edge(0, 1, 2, CostVector([1.0]), 1.0)
        assert edge.other_end(1) == 2
        assert edge.other_end(2) == 1
        with pytest.raises(GraphError):
            edge.other_end(3)
