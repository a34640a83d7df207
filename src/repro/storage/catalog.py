"""Dataset catalogs and the packed (file-backed) storage accessor.

The :class:`DatasetCatalog` is the metadata record embedded in every dataset
pack: page geometry, per-kind page counts, B+-tree shapes and the binary
section directory.  :func:`open_dataset` maps a pack and returns a
:class:`PackedDataset`, from which :meth:`~PackedDataset.storage` builds a
:class:`PackedNetworkStorage` — the
:class:`~repro.storage.scheme.NetworkStorage` read path over the pack's
``FileDisk``, so reads behave exactly (same pages, same order, same
counters) as on the in-RAM storage the pack was derived from.

A pack can be opened in two modes:

* **standalone** — queries run against :class:`PackedGraphView` /
  :class:`PackedFacilityView`, thin read-only views that answer the graph
  protocol (``has_node``/``has_edge``/``edge``/...) by bisecting the pack's
  binary sections in place; nothing graph-sized is materialised in RAM;
* **attached** — the original ``MultiCostGraph``/``FacilitySet`` are passed
  in, which additionally enables the compiled fast path and lets the same
  session compare simulated and file-backed residencies side by side.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.errors import GraphError, PackFormatError
from repro.network.costs import CostVector
from repro.network.graph import Edge, EdgeId, Node, NodeId
from repro.storage.btree import StaticBPlusTree
from repro.storage.pages import PageKind
from repro.storage.persist import FileDisk, PackWriter
from repro.storage.scheme import NetworkStorage, StorageConfig

__all__ = [
    "TreeShape",
    "DatasetCatalog",
    "PackedGraphView",
    "PackedFacilityView",
    "PackedNetworkStorage",
    "PackedDataset",
    "open_dataset",
    "pack_network_storage",
]

_I64 = struct.Struct("<q")
_U64 = struct.Struct("<Q")

SECTION_NODE_IDS = "node_ids"
SECTION_EDGE_TABLE = "edge_table"
SECTION_FACILITY_EDGE_IDS = "facility_edge_ids"
SECTION_FACILITY_EDGE_OFFSETS = "facility_edge_offsets"
SECTION_FACILITY_EDGE_PAGES = "facility_edge_pages"


@dataclass(frozen=True)
class TreeShape:
    """Shape metadata of one bulk-loaded B+-tree inside a pack."""

    root_page_id: int | None
    height: int
    num_entries: int

    def to_payload(self) -> dict:
        return {
            "root_page_id": self.root_page_id,
            "height": self.height,
            "num_entries": self.num_entries,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TreeShape":
        root = payload.get("root_page_id")
        return cls(
            root_page_id=None if root is None else int(root),
            height=int(payload.get("height", 0)),
            num_entries=int(payload.get("num_entries", 0)),
        )

    def adopt(self, disk: FileDisk, kind: PageKind) -> StaticBPlusTree:
        """The tree of this shape whose pages already live on ``disk`` (no read)."""
        return StaticBPlusTree.from_built(
            disk,
            kind,
            root_page_id=self.root_page_id,
            height=self.height,
            num_entries=self.num_entries,
        )


@dataclass(frozen=True)
class DatasetCatalog:
    """Everything a reader needs to interpret a dataset pack."""

    format_version: int
    page_size: int
    slot_size: int
    num_pages: int
    num_cost_types: int
    directed: bool
    num_nodes: int
    num_edges: int
    num_facilities: int
    page_kind_counts: dict[str, int]
    adjacency_tree: TreeShape
    facility_tree: TreeShape
    sections: dict[str, tuple[int, int]]
    checksum: str
    extras: dict = field(default_factory=dict)

    @property
    def mcn_page_count(self) -> int:
        """Pages of the MCN information (adjacency file + adjacency tree)."""
        return self.page_kind_counts.get(
            PageKind.ADJACENCY.value, 0
        ) + self.page_kind_counts.get(PageKind.ADJACENCY_INDEX.value, 0)

    @classmethod
    def from_payload(cls, payload: dict, *, checksum: str = "") -> "DatasetCatalog":
        try:
            return cls(
                format_version=int(payload["format_version"]),
                page_size=int(payload["page_size"]),
                slot_size=int(payload["slot_size"]),
                num_pages=int(payload["num_pages"]),
                num_cost_types=int(payload["num_cost_types"]),
                directed=bool(payload["directed"]),
                num_nodes=int(payload["num_nodes"]),
                num_edges=int(payload["num_edges"]),
                num_facilities=int(payload["num_facilities"]),
                page_kind_counts={
                    str(kind): int(count)
                    for kind, count in payload["page_kind_counts"].items()
                },
                adjacency_tree=TreeShape.from_payload(payload["adjacency_tree"]),
                facility_tree=TreeShape.from_payload(payload["facility_tree"]),
                sections={
                    str(name): (int(bounds[0]), int(bounds[1]))
                    for name, bounds in payload["sections"].items()
                },
                checksum=str(payload.get("checksum", checksum)),
                extras=dict(payload.get("extras", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PackFormatError(f"incomplete pack catalog: {exc}") from None

    def describe(self) -> dict:
        """Flat summary used by ``inspect-dataset`` and tests."""
        return {
            "format_version": self.format_version,
            "page_size": self.page_size,
            "slot_size": self.slot_size,
            "num_pages": self.num_pages,
            "num_cost_types": self.num_cost_types,
            "directed": self.directed,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "num_facilities": self.num_facilities,
            "mcn_pages": self.mcn_page_count,
            "page_kind_counts": dict(self.page_kind_counts),
            "adjacency_tree_height": self.adjacency_tree.height,
            "facility_tree_height": self.facility_tree.height,
            "checksum": self.checksum,
        }


def _bisect_section(mm, base: int, count: int, key: int) -> int:
    """Index of ``key`` in a sorted i64 array at ``base`` (or -1)."""
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        (value,) = _I64.unpack_from(mm, base + mid * _I64.size)
        if value < key:
            lo = mid + 1
        else:
            hi = mid
    if lo < count:
        (value,) = _I64.unpack_from(mm, base + lo * _I64.size)
        if value == key:
            return lo
    return -1


class PackedGraphView:
    """Graph protocol over a pack's binary sections (zero-copy bisect reads).

    Provides exactly the surface query validation and seed computation need
    — ``has_node``/``has_edge``/``node``/``edge``/``num_cost_types``/
    ``directed`` — without materialising any node or edge objects beyond the
    ones a call returns.  Node coordinates are not stored in packs, so
    :meth:`node` returns origin-coordinate nodes.
    """

    def __init__(self, disk: FileDisk, catalog: DatasetCatalog):
        self._disk = disk
        self._catalog = catalog
        self._node_base, node_bytes = disk.section_bounds(SECTION_NODE_IDS)
        self._num_nodes = node_bytes // _I64.size
        self._edge_base, edge_bytes = disk.section_bounds(SECTION_EDGE_TABLE)
        # edge row: edge_id, u, v (i64) + length + d costs (f64)
        self._edge_stride = 3 * 8 + 8 + catalog.num_cost_types * 8
        self._num_edges = edge_bytes // self._edge_stride if self._edge_stride else 0
        self._edge_row = struct.Struct(f"<qqqd{catalog.num_cost_types}d")

    @property
    def num_cost_types(self) -> int:
        return self._catalog.num_cost_types

    @property
    def directed(self) -> bool:
        return self._catalog.directed

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def _edge_index(self, edge_id: EdgeId) -> int:
        mm = self._disk.buffer
        lo, hi = 0, self._num_edges
        while lo < hi:
            mid = (lo + hi) // 2
            (value,) = _I64.unpack_from(mm, self._edge_base + mid * self._edge_stride)
            if value < edge_id:
                lo = mid + 1
            else:
                hi = mid
        if lo < self._num_edges:
            (value,) = _I64.unpack_from(mm, self._edge_base + lo * self._edge_stride)
            if value == edge_id:
                return lo
        return -1

    def has_node(self, node_id: NodeId) -> bool:
        return _bisect_section(self._disk.buffer, self._node_base, self._num_nodes, node_id) >= 0

    def has_edge(self, edge_id: EdgeId) -> bool:
        return self._edge_index(edge_id) >= 0

    def node(self, node_id: NodeId) -> Node:
        if not self.has_node(node_id):
            raise GraphError(f"unknown node {node_id}")
        return Node(node_id)

    def _edge_at(self, index: int) -> Edge:
        row = self._edge_row.unpack_from(
            self._disk.buffer, self._edge_base + index * self._edge_stride
        )
        edge_id, u, v, length = row[0], row[1], row[2], row[3]
        costs = row[4:]
        return Edge(edge_id, u, v, CostVector(costs), length)

    def edge(self, edge_id: EdgeId) -> Edge:
        index = self._edge_index(edge_id)
        if index < 0:
            raise GraphError(f"unknown edge {edge_id}")
        return self._edge_at(index)

    def node_ids(self):
        """Iterate all node ids in ascending order (streamed off the pack)."""
        mm = self._disk.buffer
        for index in range(self._num_nodes):
            (node_id,) = _I64.unpack_from(mm, self._node_base + index * _I64.size)
            yield node_id

    def edges(self):
        """Iterate all edges in ascending edge-id order (streamed off the pack)."""
        for index in range(self._num_edges):
            yield self._edge_at(index)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"PackedGraphView({kind}, d={self.num_cost_types}, "
            f"nodes={self._num_nodes}, edges={self._num_edges})"
        )


class PackedFacilityView:
    """Facility metadata of a packed dataset (ids and edges, no objects).

    Satisfies the little that engine and session construction need from a
    facility set — ``len``, ``graph`` identity and a frozen ``revision`` —
    while facility *content* is always read through the storage accessor
    (facility file + facility tree), as on the simulated disk.
    """

    def __init__(self, graph: PackedGraphView, catalog: DatasetCatalog):
        self._graph = graph
        self._catalog = catalog

    @property
    def graph(self) -> PackedGraphView:
        return self._graph

    @property
    def revision(self) -> int:
        """Packs are immutable; the revision never moves."""
        return 0

    def __len__(self) -> int:
        return self._catalog.num_facilities

    def density(self) -> float:
        if self._catalog.num_edges == 0:
            return 0.0
        return self._catalog.num_facilities / self._catalog.num_edges


class _FacilityPageIndex:
    """A pack's edge → facility-file pages index, bisected in place.

    Three sections back it: the sorted facility-bearing edge ids, each
    edge's ``[start, end)`` offsets, and the flat page-id blob.  Nothing is
    copied out of the map; :meth:`get` answers like ``dict.get``.
    """

    def __init__(self, disk: FileDisk):
        self._disk = disk
        self._ids_base, ids_bytes = disk.section_bounds(SECTION_FACILITY_EDGE_IDS)
        self._num_edges = ids_bytes // _I64.size
        self._offsets_base, _ = disk.section_bounds(SECTION_FACILITY_EDGE_OFFSETS)
        self._pages_base, _ = disk.section_bounds(SECTION_FACILITY_EDGE_PAGES)

    def get(self, edge_id: EdgeId, default: tuple[int, ...] = ()) -> tuple[int, ...]:
        mm = self._disk.buffer
        index = _bisect_section(mm, self._ids_base, self._num_edges, edge_id)
        if index < 0:
            return default
        start, end = struct.unpack_from("<QQ", mm, self._offsets_base + index * _U64.size)
        return struct.unpack_from(f"<{end - start}q", mm, self._pages_base + start * _I64.size)


class PackedNetworkStorage(NetworkStorage):
    """A :class:`~repro.storage.scheme.NetworkStorage` over a dataset pack.

    The pack holds the pages the source storage held, so the inherited read
    path produces bit-identical answers and page-read/buffer-hit counters
    for the same buffer configuration.  Opening reads no page: the tree
    shapes and page counts come from the catalog, and an edge's facility
    pages are bisected out of the pack's index sections on demand.  Without
    ``graph``/``facilities`` the storage answers through the bisect-backed
    :class:`PackedGraphView` / :class:`PackedFacilityView`.
    """

    def __init__(
        self,
        disk: FileDisk,
        catalog: DatasetCatalog,
        *,
        buffer_fraction: float = 0.01,
        buffer_capacity: int | None = None,
        graph=None,
        facilities=None,
    ):
        config = StorageConfig(page_size=catalog.page_size, buffer_fraction=buffer_fraction)
        if graph is None:
            graph = PackedGraphView(disk, catalog)
        if facilities is None and isinstance(graph, PackedGraphView):
            facilities = PackedFacilityView(graph, catalog)
        super().__init__(
            disk,
            catalog.adjacency_tree.adopt(disk, PageKind.ADJACENCY_INDEX),
            catalog.facility_tree.adopt(disk, PageKind.FACILITY_INDEX),
            _FacilityPageIndex(disk),
            graph,
            facilities,
            config,
            buffer_capacity=buffer_capacity,
        )
        self._catalog = catalog

    @property
    def catalog(self) -> DatasetCatalog:
        return self._catalog


class PackedDataset:
    """An opened dataset pack: the mapped disk plus its catalog."""

    def __init__(self, disk: FileDisk, catalog: DatasetCatalog):
        self._disk = disk
        self._catalog = catalog

    @property
    def disk(self) -> FileDisk:
        return self._disk

    @property
    def catalog(self) -> DatasetCatalog:
        return self._catalog

    @property
    def path(self) -> str:
        return self._disk.path

    def storage(
        self,
        *,
        buffer_fraction: float = 0.01,
        buffer_capacity: int | None = None,
        graph=None,
        facilities=None,
    ) -> PackedNetworkStorage:
        """A fresh accessor over this pack (each gets its own LRU buffer)."""
        return PackedNetworkStorage(
            self._disk,
            self._catalog,
            buffer_fraction=buffer_fraction,
            buffer_capacity=buffer_capacity,
            graph=graph,
            facilities=facilities,
        )

    def graph_view(self) -> PackedGraphView:
        return PackedGraphView(self._disk, self._catalog)

    def close(self) -> None:
        self._disk.close()

    def __enter__(self) -> "PackedDataset":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open_dataset(path: str, *, verify_checksum: bool = True) -> PackedDataset:
    """Map a dataset pack, optionally verifying its SHA-256 first.

    Raises the typed pack errors (:class:`~repro.errors.PackFormatError`,
    :class:`~repro.errors.PackVersionError`,
    :class:`~repro.errors.PackChecksumError`) on malformed or corrupt files.
    """
    disk = FileDisk(path, verify_checksum=verify_checksum)
    try:
        catalog = DatasetCatalog.from_payload(
            disk.catalog_payload, checksum=disk.checksum.hex()
        )
    except Exception:
        disk.close()
        raise
    return PackedDataset(disk, catalog)


# --------------------------------------------------------------------- #
# Building packs from a built NetworkStorage
# --------------------------------------------------------------------- #
def _write_facility_index(writer: PackWriter, edge_pages: dict[EdgeId, tuple[int, ...]]) -> None:
    ids = writer.section(SECTION_FACILITY_EDGE_IDS)
    offsets = writer.section(SECTION_FACILITY_EDGE_OFFSETS)
    pages_blob = writer.section(SECTION_FACILITY_EDGE_PAGES)
    position = 0
    sorted_ids = sorted(edge_pages)
    for edge_id in sorted_ids:
        ids.write(_I64.pack(edge_id))
        offsets.write(_U64.pack(position))
        for page_id in edge_pages[edge_id]:
            pages_blob.write(_I64.pack(page_id))
        position += len(edge_pages[edge_id])
    offsets.write(_U64.pack(position))


def _tree_shape(tree: StaticBPlusTree) -> TreeShape:
    return TreeShape(
        root_page_id=tree.root_page_id,
        height=tree.height,
        num_entries=tree.num_entries,
    )


def pack_network_storage(storage, path: str, *, extras: dict | None = None) -> DatasetCatalog:
    """Serialise a built :class:`NetworkStorage` into a dataset pack.

    Every simulated page is written to its slot unchanged, so a
    :class:`PackedNetworkStorage` over the result reads bit-identical pages
    (and therefore produces bit-identical answers and I/O counters) to the
    source storage.
    """
    graph = storage.graph
    writer = PackWriter(
        path, page_size=storage.config.page_size, num_cost_types=graph.num_cost_types
    )
    disk = storage.disk
    for page_id in range(disk.num_pages):
        writer.add_page(disk.peek(page_id))

    node_section = writer.section(SECTION_NODE_IDS)
    for node_id in sorted(graph.node_ids()):
        node_section.write(_I64.pack(node_id))
    edge_section = writer.section(SECTION_EDGE_TABLE)
    for edge in sorted(graph.edges(), key=lambda e: e.edge_id):
        edge_section.write(
            struct.pack(
                f"<qqqd{graph.num_cost_types}d",
                edge.edge_id,
                edge.u,
                edge.v,
                edge.length,
                *edge.costs.values,
            )
        )
    _write_facility_index(writer, storage._facility_pages)

    payload = {
        "directed": graph.directed,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "num_facilities": len(storage.facilities),
        "page_kind_counts": {
            kind.value: disk.pages_of_kind(kind) for kind in PageKind
        },
        "adjacency_tree": _tree_shape(storage._adjacency_tree).to_payload(),
        "facility_tree": _tree_shape(storage._facility_tree).to_payload(),
        "extras": dict(extras or {}),
    }
    final = writer.finalize(payload)
    return DatasetCatalog.from_payload(final)
