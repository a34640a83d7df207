"""Packing of the adjacency file and the facility file onto simulated pages.

The layout follows Figure 2 of the paper:

* The **adjacency file** is a flat file holding, for every node, its
  adjacency list: one entry per incident edge with the neighbour id, the
  d-dimensional cost vector, and a pointer into the facility file for the
  facilities lying on that edge.
* The **facility file** is a flat file holding, for every edge with at least
  one facility, the facilities on it together with their distance from the
  edge's first end-node.

Both files are bulk-loaded page by page; the builders return per-node
(respectively per-edge) pointers, i.e. the lists of page ids to read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.network.accessor import AdjacencyRecord, FacilityRecord
from repro.network.facilities import FacilitySet
from repro.network.graph import EdgeId, MultiCostGraph, NodeId
from repro.storage.disk import SimulatedDisk
from repro.storage.pages import PageKind, RecordSizes

__all__ = [
    "StoredAdjacencyEntry",
    "AdjacencyLayout",
    "FacilityLayout",
    "build_facility_file",
    "build_adjacency_file",
    "pack_record_groups",
]


class StoredAdjacencyEntry(NamedTuple):
    """An adjacency entry as stored on disk (including its facility-file pointer)."""

    node: NodeId
    record: AdjacencyRecord
    facility_pages: tuple[int, ...]


@dataclass(frozen=True)
class AdjacencyLayout:
    """Result of packing the adjacency file: per-node page pointers."""

    node_pages: dict[NodeId, tuple[int, ...]]
    page_count: int


@dataclass(frozen=True)
class FacilityLayout:
    """Result of packing the facility file: per-edge page pointers."""

    edge_pages: dict[EdgeId, tuple[int, ...]]
    page_count: int


def pack_record_groups(
    disk,
    kind: PageKind,
    groups,
    sink,
    *,
    entry_size: int,
    header_size: int,
) -> int:
    """Pack fixed-size record groups onto pages of ``kind``; returns the page count.

    ``groups`` yields ``(key, records)`` pairs; every group's first record on
    a page also pays the per-group header.  ``sink(key, pages)`` is called
    once per group with the tuple of page ids the group landed on.  This is
    the single packing core behind both flat files — the in-memory builders
    below and the streaming pack builder consume it with different group
    sources, so the resulting page layout can never diverge between them.
    """
    current = disk.allocate(kind)
    page_count = 1
    for key, records in groups:
        pages_for_key: list[int] = []
        pending_header = True
        for record in records:
            size = entry_size + (header_size if pending_header else 0)
            if not current.add(record, size, disk.page_size):
                current = disk.allocate(kind)
                page_count += 1
                size = entry_size + header_size
                current.add(record, size, disk.page_size)
                pages_for_key.append(current.page_id)
                pending_header = False
                continue
            pending_header = False
            if current.page_id not in pages_for_key:
                pages_for_key.append(current.page_id)
        sink(key, tuple(pages_for_key))
    return page_count


def build_facility_file(
    disk: SimulatedDisk,
    facilities: FacilitySet,
) -> FacilityLayout:
    """Pack all facilities into facility-file pages, grouped by edge."""
    sizes = RecordSizes()
    edge_pages: dict[EdgeId, tuple[int, ...]] = {}
    groups = (
        (
            edge_id,
            [
                FacilityRecord(facility.facility_id, facility.edge_id, facility.offset)
                for facility in facilities.on_edge(edge_id)
            ],
        )
        for edge_id in sorted(facilities.edges_with_facilities())
    )
    page_count = pack_record_groups(
        disk,
        PageKind.FACILITY,
        groups,
        edge_pages.__setitem__,
        entry_size=sizes.facility_entry(),
        header_size=sizes.facility_header(),
    )
    return FacilityLayout(edge_pages=edge_pages, page_count=page_count)


def build_adjacency_file(
    disk: SimulatedDisk,
    graph: MultiCostGraph,
    facilities: FacilitySet,
    facility_layout: FacilityLayout,
) -> AdjacencyLayout:
    """Pack every node's adjacency list into adjacency-file pages."""
    sizes = RecordSizes()
    node_pages: dict[NodeId, tuple[int, ...]] = {}

    def groups():
        for node_id in sorted(node.node_id for node in graph.nodes()):
            records = []
            for neighbor, edge in graph.neighbors(node_id):
                records.append(
                    StoredAdjacencyEntry(
                        node=node_id,
                        record=AdjacencyRecord(
                            neighbor=neighbor,
                            edge_id=edge.edge_id,
                            costs=edge.costs.values,
                            length=edge.length,
                            first_node=edge.u,
                            facility_count=len(facilities.on_edge(edge.edge_id)),
                        ),
                        facility_pages=facility_layout.edge_pages.get(edge.edge_id, ()),
                    )
                )
            yield node_id, records

    page_count = pack_record_groups(
        disk,
        PageKind.ADJACENCY,
        groups(),
        node_pages.__setitem__,
        entry_size=sizes.adjacency_entry(graph.num_cost_types),
        header_size=sizes.adjacency_header(),
    )
    return AdjacencyLayout(node_pages=node_pages, page_count=page_count)
