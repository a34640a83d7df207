"""Synthetic road-network generation.

The paper evaluates on the San Francisco road network (174,956 nodes and
223,001 edges, produced by Brinkhoff's moving-objects framework).  That
dataset is not redistributable here, so this module generates networks with
the same structural character the algorithms care about: large, sparse
(average degree ~2.5), connected, roughly planar, with spatially coherent
edge lengths.  The generator starts from a jittered grid, removes a fraction
of the edges while protecting a spanning tree (so the network stays
connected and acquires irregular block shapes), and then adds a few random
"diagonal" shortcuts to reach the requested edge count.
"""

from __future__ import annotations

import math
import random
import struct
import tempfile
from dataclasses import dataclass

from repro.errors import DataGenerationError
from repro.network.facilities import FacilitySet
from repro.network.graph import MultiCostGraph, NodeId
from repro.storage.pages import DEFAULT_PAGE_SIZE, PageKind, RecordSizes

__all__ = [
    "RoadNetworkSpec",
    "generate_road_network",
    "euclidean_edge_lengths",
    "PackedDatasetSpec",
    "build_packed_dataset",
    "materialize_packed_dataset",
    "stream_topology",
]


@dataclass(frozen=True)
class RoadNetworkSpec:
    """Parameters of the synthetic road network.

    ``num_nodes`` is approximate (rounded to a full grid); ``target_degree``
    controls sparsity (San Francisco has ~2.55 incident edges per node).
    ``jitter`` perturbs node coordinates as a fraction of the grid spacing.
    """

    num_nodes: int = 2500
    target_degree: float = 2.55
    jitter: float = 0.35
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_nodes < 4:
            raise DataGenerationError("a road network needs at least 4 nodes")
        if not 1.5 <= self.target_degree <= 4.0:
            raise DataGenerationError("target degree must be between 1.5 and 4.0 (grid-like)")
        if not 0.0 <= self.jitter < 0.5:
            raise DataGenerationError("jitter must be in [0, 0.5)")


def generate_road_network(spec: RoadNetworkSpec, *, num_cost_types: int = 1) -> MultiCostGraph:
    """Generate a connected, grid-derived road network.

    The returned graph has ``num_cost_types`` cost types, each initially set
    to the Euclidean length of the edge; :mod:`repro.datagen.cost_models`
    replaces them with the independent / correlated / anti-correlated
    distributions used in the experiments.
    """
    rng = random.Random(spec.seed)
    side = max(int(round(math.sqrt(spec.num_nodes))), 2)
    spacing = 100.0
    graph = MultiCostGraph(num_cost_types)

    def node_id(row: int, column: int) -> NodeId:
        return row * side + column

    for row in range(side):
        for column in range(side):
            x = column * spacing + rng.uniform(-spec.jitter, spec.jitter) * spacing
            y = row * spacing + rng.uniform(-spec.jitter, spec.jitter) * spacing
            graph.add_node(node_id(row, column), x, y)

    # Full grid edges (right and down neighbours).
    grid_edges: list[tuple[NodeId, NodeId]] = []
    for row in range(side):
        for column in range(side):
            if column + 1 < side:
                grid_edges.append((node_id(row, column), node_id(row, column + 1)))
            if row + 1 < side:
                grid_edges.append((node_id(row, column), node_id(row + 1, column)))

    # Protect a random spanning tree so removals never disconnect the network.
    rng.shuffle(grid_edges)
    parent = {nid: nid for nid in range(side * side)}

    def find(x: NodeId) -> NodeId:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    protected: set[tuple[NodeId, NodeId]] = set()
    removable: list[tuple[NodeId, NodeId]] = []
    for u, v in grid_edges:
        root_u, root_v = find(u), find(v)
        if root_u != root_v:
            parent[root_u] = root_v
            protected.add((u, v))
        else:
            removable.append((u, v))

    target_edges = int(round(spec.target_degree * side * side / 2))
    target_edges = max(target_edges, side * side - 1)
    keep_extra = max(target_edges - len(protected), 0)
    rng.shuffle(removable)
    kept = list(protected) + removable[:keep_extra]

    def euclidean(u: NodeId, v: NodeId) -> float:
        node_u, node_v = graph.node(u), graph.node(v)
        return math.hypot(node_u.x - node_v.x, node_u.y - node_v.y)

    for u, v in kept:
        length = max(euclidean(u, v), 1e-6)
        graph.add_edge(u, v, [length] * num_cost_types, length=length)

    # A few diagonal shortcuts if the grid alone cannot reach the target degree.
    missing = target_edges - graph.num_edges
    attempts = 0
    while missing > 0 and attempts < 20 * missing + 100:
        attempts += 1
        row = rng.randrange(side - 1)
        column = rng.randrange(side - 1)
        u = node_id(row, column)
        v = node_id(row + 1, column + 1) if rng.random() < 0.5 else node_id(row + 1, max(column - 1, 0))
        if u == v or graph.edge_between(u, v) is not None:
            continue
        length = max(euclidean(u, v), 1e-6)
        graph.add_edge(u, v, [length] * num_cost_types, length=length)
        missing -= 1
    return graph


def euclidean_edge_lengths(graph: MultiCostGraph) -> dict[int, float]:
    """Euclidean length of every edge, computed from node coordinates."""
    lengths = {}
    for edge in graph.edges():
        node_u, node_v = graph.node(edge.u), graph.node(edge.v)
        lengths[edge.edge_id] = math.hypot(node_u.x - node_v.x, node_u.y - node_v.y)
    return lengths


# ===================================================================== #
# Streaming generation of packed datasets
# ===================================================================== #
# The in-RAM generator above tops out when the graph no longer fits in
# memory.  The streaming generator below derives every structural decision
# and every edge cost from a counter-mixed hash of the spec's seed, so the
# topology can be *scanned* (in node order, with a bounded look-back window)
# instead of stored — pages stream straight into a dataset pack and peak
# memory stays proportional to the grid width, the shortcut table and the
# facility table, never to the graph.  ``materialize_packed_dataset``
# replays the identical scan into an in-memory graph for small-scale parity
# tests against the simulated disk.

_MASK64 = (1 << 64) - 1
_TAG_RIGHT = 0x52494748
_TAG_COST = 0x434F5354
_TAG_LENGTH = 0x4C454E47
_TAG_OFFSET = 0x4F464653
_TAG_SHORTCUT = 0x53484F52
_TAG_FACILITY = 0x46414349


def _mix64(*values: int) -> int:
    """SplitMix64-style avalanche over a sequence of integers (deterministic)."""
    acc = 0x9E3779B97F4A7C15
    for value in values:
        acc = (acc + (value & _MASK64)) & _MASK64
        acc = ((acc ^ (acc >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        acc = ((acc ^ (acc >> 27)) * 0x94D049BB133111EB) & _MASK64
        acc ^= acc >> 31
    return acc


def _u01(*values: int) -> float:
    """A uniform double in [0, 1) derived from the mixed values."""
    return _mix64(*values) / 2.0**64


@dataclass(frozen=True)
class PackedDatasetSpec:
    """Parameters of a streamed grid/small-world dataset.

    The network is a ``rows`` x ``cols`` grid in which every vertical street
    exists, horizontal streets exist with probability ``street_density``
    (row 0 is always complete, which keeps the network connected), and
    ``shortcut_fraction * num_nodes`` random long-range shortcuts add the
    small-world character of real road networks (bridges, highways).  Edge
    costs are independent uniforms over ``cost_range``; ``num_facilities``
    facilities land on uniformly chosen edges at uniform offsets.
    """

    rows: int = 64
    cols: int = 64
    num_cost_types: int = 2
    num_facilities: int = 256
    street_density: float = 0.3
    shortcut_fraction: float = 0.005
    cost_range: tuple[float, float] = (1.0, 10.0)
    seed: int = 7
    page_size: int = DEFAULT_PAGE_SIZE

    def __post_init__(self) -> None:
        if self.rows < 2 or self.cols < 2:
            raise DataGenerationError("a packed dataset grid needs at least 2x2 nodes")
        if self.num_cost_types < 1:
            raise DataGenerationError("at least one cost type is required")
        if self.num_facilities < 1:
            raise DataGenerationError("at least one facility is required")
        if not 0.0 <= self.street_density <= 1.0:
            raise DataGenerationError("street density must be in [0, 1]")
        if not 0.0 <= self.shortcut_fraction <= 0.2:
            raise DataGenerationError("shortcut fraction must be in [0, 0.2]")
        low, high = self.cost_range
        if not 0 < low <= high:
            raise DataGenerationError("cost range must satisfy 0 < low <= high")
        if self.page_size <= 0:
            raise DataGenerationError("page size must be positive")

    @property
    def num_nodes(self) -> int:
        return self.rows * self.cols

    def to_payload(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "num_cost_types": self.num_cost_types,
            "num_facilities": self.num_facilities,
            "street_density": self.street_density,
            "shortcut_fraction": self.shortcut_fraction,
            "cost_range": list(self.cost_range),
            "seed": self.seed,
            "page_size": self.page_size,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PackedDatasetSpec":
        data = dict(payload)
        if "cost_range" in data:
            data["cost_range"] = tuple(data["cost_range"])
        return cls(**data)


def _keeps_right_edge(spec: PackedDatasetSpec, node: int) -> bool:
    if node < spec.cols:  # row 0 is complete (the connectivity spine)
        return True
    return _u01(spec.seed, _TAG_RIGHT, node) < spec.street_density


def _edge_costs(spec: PackedDatasetSpec, edge_id: int) -> tuple[tuple[float, ...], float]:
    """The (cost vector, length) of an edge — a pure function of its id."""
    low, high = spec.cost_range
    span = high - low
    costs = tuple(
        low + _u01(spec.seed, _TAG_COST, edge_id, k) * span
        for k in range(spec.num_cost_types)
    )
    length = low + _u01(spec.seed, _TAG_LENGTH, edge_id) * span
    return costs, length


def _draw_shortcuts(spec: PackedDatasetSpec) -> dict[int, list[int]]:
    """Long-range shortcut partners per owner node (owner = smaller endpoint)."""
    count = int(spec.shortcut_fraction * spec.num_nodes)
    rng = random.Random(_mix64(spec.seed, _TAG_SHORTCUT))
    seen: set[tuple[int, int]] = set()
    owners: dict[int, list[int]] = {}
    attempts = 0
    while len(seen) < count and attempts < 20 * count + 100:
        attempts += 1
        u = rng.randrange(spec.num_nodes)
        v = rng.randrange(spec.num_nodes)
        if u == v:
            continue
        u, v = min(u, v), max(u, v)
        # Skip pairs the grid may already connect (parallel edges are legal
        # but add nothing here).
        if (v - u == 1 and v % spec.cols != 0) or v - u == spec.cols:
            continue
        if (u, v) in seen:
            continue
        seen.add((u, v))
        owners.setdefault(u, []).append(v)
    for partners in owners.values():
        partners.sort()
    return owners


def stream_topology(spec: PackedDatasetSpec, shortcuts: dict[int, list[int]] | None = None):
    """Yield ``(node, incident)`` per node in id order, scanning the grid once.

    ``incident`` lists the node's full adjacency as ``(edge_id, neighbor,
    first_node)`` triples in ascending edge-id order — exactly the order an
    in-memory graph built in edge-id order reports.  Edge ids are assigned
    sequentially as each edge's *owner* (its smaller endpoint) is scanned,
    so the look-back state is one ``pending`` table of already-numbered
    edges whose far endpoint has not been reached yet (bounded by the grid
    width plus the in-flight shortcuts).
    """
    if shortcuts is None:
        shortcuts = _draw_shortcuts(spec)
    pending: dict[int, list[tuple[int, int]]] = {}
    next_edge = 0
    for node in range(spec.num_nodes):
        incident = [
            (edge_id, other, other) for edge_id, other in pending.pop(node, [])
        ]
        row, col = divmod(node, spec.cols)
        owned: list[int] = []
        if col + 1 < spec.cols and _keeps_right_edge(spec, node):
            owned.append(node + 1)
        if row + 1 < spec.rows:
            owned.append(node + spec.cols)
        owned.extend(shortcuts.get(node, ()))
        for other in owned:
            edge_id = next_edge
            next_edge += 1
            incident.append((edge_id, other, node))
            pending.setdefault(other, []).append((edge_id, node))
        incident.sort(key=lambda item: item[0])
        yield node, incident


def _count_edges(spec: PackedDatasetSpec, shortcuts: dict[int, list[int]]) -> int:
    count = sum(len(partners) for partners in shortcuts.values())
    count += (spec.rows - 1) * spec.cols  # every down edge exists
    for row in range(spec.rows):
        base = row * spec.cols
        for col in range(spec.cols - 1):
            if _keeps_right_edge(spec, base + col):
                count += 1
    return count


def _draw_facilities(spec: PackedDatasetSpec, num_edges: int) -> list[int]:
    """The host edge of every facility; facility ``i`` lives on ``draws[i]``.

    Draws are sorted so facility ids ascend with edge ids — the order both
    the facility file and the facility tree consume entries in.
    """
    rng = random.Random(_mix64(spec.seed, _TAG_FACILITY))
    return sorted(rng.randrange(num_edges) for _ in range(spec.num_facilities))


def _facility_offset(spec: PackedDatasetSpec, facility_id: int, length: float) -> float:
    return _u01(spec.seed, _TAG_OFFSET, facility_id) * length


def build_packed_dataset(spec: PackedDatasetSpec, path: str) -> "DatasetCatalog":
    """Generate a dataset and write it straight into a pack at ``path``.

    The build replicates the exact page-allocation order of
    :class:`~repro.storage.scheme.NetworkStorage` (facility file, adjacency
    file, adjacency tree, facility tree) through the same packing and
    bulk-loading code, so the resulting pack is byte-for-byte what packing a
    materialised ``NetworkStorage`` of the same spec would produce — without
    ever holding the graph in memory.  Transient state is the grid-width
    scan window, the shortcut and facility tables, and a temp-file spool of
    per-node page pointers for the adjacency tree's bulk load.
    """
    from repro.network.accessor import AdjacencyRecord, FacilityRecord
    from repro.storage.btree import StaticBPlusTree
    from repro.storage.catalog import (
        SECTION_EDGE_TABLE,
        SECTION_NODE_IDS,
        DatasetCatalog,
        TreeShape,
        _write_facility_index,
    )
    from repro.storage.layout import StoredAdjacencyEntry, pack_record_groups
    from repro.storage.persist import PackWriter, SpoolingDisk

    sizes = RecordSizes()
    shortcuts = _draw_shortcuts(spec)
    num_edges = _count_edges(spec, shortcuts)
    facility_edges = _draw_facilities(spec, num_edges)
    facilities_by_edge: dict[int, list[int]] = {}
    for facility_id, edge_id in enumerate(facility_edges):
        facilities_by_edge.setdefault(edge_id, []).append(facility_id)

    with PackWriter(
        path, page_size=spec.page_size, num_cost_types=spec.num_cost_types
    ) as writer, tempfile.TemporaryFile() as node_spool:
        disk = SpoolingDisk(writer)

        # Stage 1 — facility file (costs are pure functions of the edge id, so
        # no topology scan is needed here).
        edge_pages: dict[int, tuple[int, ...]] = {}

        def facility_groups():
            for edge_id in sorted(facilities_by_edge):
                _costs, length = _edge_costs(spec, edge_id)
                yield edge_id, [
                    FacilityRecord(fid, edge_id, _facility_offset(spec, fid, length))
                    for fid in facilities_by_edge[edge_id]
                ]

        pack_record_groups(
            disk,
            PageKind.FACILITY,
            facility_groups(),
            edge_pages.__setitem__,
            entry_size=sizes.facility_entry(),
            header_size=sizes.facility_header(),
        )

        # Stage 2 — adjacency file; the same scan also emits the node-id and
        # edge-table sections and spools (node, pages) pairs for stage 3.
        node_section = writer.section(SECTION_NODE_IDS)
        edge_section = writer.section(SECTION_EDGE_TABLE)
        edge_row = struct.Struct(f"<qqqd{spec.num_cost_types}d")
        spool_header = struct.Struct("<qI")

        def adjacency_groups():
            for node, incident in stream_topology(spec, shortcuts):
                node_section.write(struct.pack("<q", node))
                records = []
                for edge_id, other, first_node in incident:
                    costs, length = _edge_costs(spec, edge_id)
                    if first_node == node:  # this scan step numbered the edge
                        edge_section.write(
                            edge_row.pack(edge_id, node, other, length, *costs)
                        )
                    records.append(
                        StoredAdjacencyEntry(
                            node=node,
                            record=AdjacencyRecord(
                                neighbor=other,
                                edge_id=edge_id,
                                costs=costs,
                                length=length,
                                first_node=first_node,
                                facility_count=len(facilities_by_edge.get(edge_id, ())),
                            ),
                            facility_pages=edge_pages.get(edge_id, ()),
                        )
                    )
                yield node, records

        def spool_node_pages(node: int, pages: tuple[int, ...]) -> None:
            node_spool.write(spool_header.pack(node, len(pages)))
            for page_id in pages:
                node_spool.write(struct.pack("<q", page_id))

        pack_record_groups(
            disk,
            PageKind.ADJACENCY,
            adjacency_groups(),
            spool_node_pages,
            entry_size=sizes.adjacency_entry(spec.num_cost_types),
            header_size=sizes.adjacency_header(),
        )

        # Stage 3 — adjacency tree, bulk-loaded from the spooled pointers.
        def spooled_entries():
            node_spool.seek(0)
            while True:
                header = node_spool.read(spool_header.size)
                if not header:
                    break
                node, count = spool_header.unpack(header)
                pages = struct.unpack(f"<{count}q", node_spool.read(count * 8))
                yield node, pages

        adjacency_tree = StaticBPlusTree(
            disk, PageKind.ADJACENCY_INDEX, spooled_entries(), presorted=True
        )

        # Stage 4 — facility tree.
        facility_tree = StaticBPlusTree(
            disk,
            PageKind.FACILITY_INDEX,
            (
                (fid, (edge_id, edge_pages.get(edge_id, ())))
                for fid, edge_id in enumerate(facility_edges)
            ),
            presorted=True,
        )
        disk.flush()

        _write_facility_index(writer, edge_pages)
        payload = {
            "directed": False,
            "num_nodes": spec.num_nodes,
            "num_edges": num_edges,
            "num_facilities": spec.num_facilities,
            "page_kind_counts": {
                kind.value: disk.pages_of_kind(kind) for kind in PageKind
            },
            "adjacency_tree": TreeShape(
                root_page_id=adjacency_tree.root_page_id,
                height=adjacency_tree.height,
                num_entries=adjacency_tree.num_entries,
            ).to_payload(),
            "facility_tree": TreeShape(
                root_page_id=facility_tree.root_page_id,
                height=facility_tree.height,
                num_entries=facility_tree.num_entries,
            ).to_payload(),
            "extras": {"generator": "packed-grid", "spec": spec.to_payload()},
        }
        return DatasetCatalog.from_payload(writer.finalize(payload))


def materialize_packed_dataset(spec: PackedDatasetSpec) -> tuple[MultiCostGraph, FacilitySet]:
    """Build the same dataset in memory (small scales; parity tests, benches).

    Replays the identical topology scan, cost draws and facility draws as
    :func:`build_packed_dataset`, so for any spec the returned graph and
    facility set yield a :class:`~repro.storage.scheme.NetworkStorage`
    whose pages match the streamed pack exactly.
    """
    graph = MultiCostGraph(spec.num_cost_types)
    for node in range(spec.num_nodes):
        row, col = divmod(node, spec.cols)
        graph.add_node(node, float(col), float(row))
    shortcuts = _draw_shortcuts(spec)
    for node, incident in stream_topology(spec, shortcuts):
        for edge_id, other, first_node in incident:
            if first_node != node:
                continue  # the other endpoint's scan step adds it
            costs, length = _edge_costs(spec, edge_id)
            graph.add_edge(node, other, costs, length=length, edge_id=edge_id)
    facilities = FacilitySet(graph)
    for facility_id, edge_id in enumerate(_draw_facilities(spec, graph.num_edges)):
        length = graph.edge(edge_id).length
        facilities.add_on_edge(
            facility_id, edge_id, _facility_offset(spec, facility_id, length)
        )
    return graph, facilities
