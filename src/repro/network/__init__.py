"""Multi-cost network substrate: graphs, facilities, locations, shortest paths."""

from repro.network.accessor import (
    AccessStatistics,
    AdjacencyRecord,
    FacilityRecord,
    FetchOnceCache,
    GraphAccessor,
    InMemoryAccessor,
)
from repro.network.builder import graph_from_edge_list, validate_graph
from repro.network.compiled import CompiledGraph
from repro.network.costs import CostVector, dominates, dominates_or_equal
from repro.network.dijkstra import (
    all_facility_cost_vectors,
    shortest_path_between_nodes,
    single_source_facility_costs,
    single_source_node_costs,
)
from repro.network.facilities import Facility, FacilityId, FacilitySet
from repro.network.graph import Edge, EdgeId, MultiCostGraph, Node, NodeId
from repro.network.io import read_facilities, read_graph, write_facilities, write_graph
from repro.network.location import NetworkLocation
from repro.network.paths import Path

__all__ = [
    "AccessStatistics",
    "AdjacencyRecord",
    "CompiledGraph",
    "CostVector",
    "Edge",
    "EdgeId",
    "Facility",
    "FacilityId",
    "FacilityRecord",
    "FacilitySet",
    "FetchOnceCache",
    "GraphAccessor",
    "InMemoryAccessor",
    "MultiCostGraph",
    "NetworkLocation",
    "Node",
    "NodeId",
    "Path",
    "all_facility_cost_vectors",
    "dominates",
    "dominates_or_equal",
    "graph_from_edge_list",
    "read_facilities",
    "read_graph",
    "shortest_path_between_nodes",
    "single_source_facility_costs",
    "single_source_node_costs",
    "validate_graph",
    "write_facilities",
    "write_graph",
]
