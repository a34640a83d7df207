"""The disk-resident storage scheme of Figure 2: ``NetworkStorage``.

``NetworkStorage`` reads the adjacency file + adjacency tree and the
facility file + facility tree of one disk through an LRU buffer pool, and
implements the :class:`~repro.network.accessor.GraphAccessor` protocol over
them.  The disk is either the simulated one :meth:`NetworkStorage.build`
bulk-loads in RAM, or the ``mmap``-backed
:class:`~repro.storage.persist.FileDisk` of a dataset pack
(:class:`~repro.storage.catalog.PackedNetworkStorage`); both hold the same
pages, so answers and I/O counters are identical over either.  All
LSA/CEA/top-k runs in the experiments of Section VI use this accessor, so
that page reads (the dominant cost in the paper) are measured.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.errors import StorageError
from repro.network.accessor import AccessStatistics, AdjacencyRecord, FacilityRecord
from repro.network.facilities import FacilityId, FacilitySet
from repro.network.graph import EdgeId, MultiCostGraph, NodeId
from repro.storage.buffer import LRUBufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.layout import build_adjacency_file, build_facility_file
from repro.storage.pages import DEFAULT_PAGE_SIZE, PageKind
from repro.storage.btree import StaticBPlusTree

__all__ = ["StorageConfig", "NetworkStorage"]


@dataclass(frozen=True)
class StorageConfig:
    """Knobs of the simulated storage layer.

    ``buffer_fraction`` is the LRU buffer size expressed as a fraction of the
    pages occupied by the MCN information (adjacency tree + adjacency file),
    exactly as in the paper's experiments (0 %–2 %, default 1 %).
    """

    page_size: int = DEFAULT_PAGE_SIZE
    buffer_fraction: float = 0.01

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise StorageError("page size must be positive")
        if self.buffer_fraction < 0:
            raise StorageError("buffer fraction cannot be negative")


class NetworkStorage:
    """Disk-resident MCN + facility storage with an LRU buffer.

    Implements the accessor protocol used by every query algorithm:

    * :meth:`adjacency` — adjacency-tree traversal + adjacency-file page reads;
    * :meth:`edge_facilities` — facility-file page reads (the pointer comes
      with the adjacency entry, as in Figure 2, so no extra index I/O);
    * :meth:`facility_edge` — facility-tree traversal (used once per candidate
      when the shrinking stage starts).
    """

    def __init__(
        self,
        disk,
        adjacency_tree: StaticBPlusTree,
        facility_tree: StaticBPlusTree,
        facility_pages,
        graph,
        facilities,
        config: StorageConfig,
        *,
        buffer_capacity: int | None = None,
    ):
        """Read a disk whose files and trees are already written.

        ``disk`` is a :class:`SimulatedDisk` or a
        :class:`~repro.storage.persist.FileDisk`; ``facility_pages`` maps an
        edge id to the facility-file pages holding its facilities (only its
        ``get(edge_id, ())`` is used).  The buffer holds ``buffer_capacity``
        pages, by default ``config.buffer_fraction`` of
        :attr:`mcn_page_count` (at least one page when the fraction is
        positive).  Construction reads no page.
        """
        self._disk = disk
        self._adjacency_tree = adjacency_tree
        self._facility_tree = facility_tree
        self._facility_pages = facility_pages
        self._graph = graph
        self._facilities = facilities
        self._config = config
        if buffer_capacity is None:
            buffer_capacity = max(int(round(self.mcn_page_count * config.buffer_fraction)), 0)
            if config.buffer_fraction > 0:
                buffer_capacity = max(buffer_capacity, 1)
        self._buffer = LRUBufferPool(disk, buffer_capacity)
        self._stats = AccessStatistics()
        self._is_view = False

    @classmethod
    def build(
        cls,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_fraction: float = 0.01,
    ) -> "NetworkStorage":
        """Bulk-load a fresh :class:`SimulatedDisk` with the paper's two knobs."""
        config = StorageConfig(page_size=page_size, buffer_fraction=buffer_fraction)
        disk = SimulatedDisk(config.page_size)
        # The allocation order (facility file, adjacency file, adjacency
        # tree, facility tree) fixes every page id, and
        # ``build_packed_dataset`` replays it.
        facility_layout = build_facility_file(disk, facilities)
        edge_pages = facility_layout.edge_pages
        adjacency_layout = build_adjacency_file(disk, graph, facilities, facility_layout)
        adjacency_tree = StaticBPlusTree(
            disk, PageKind.ADJACENCY_INDEX, adjacency_layout.node_pages.items()
        )
        facility_tree = StaticBPlusTree(
            disk,
            PageKind.FACILITY_INDEX,
            (
                (facility.facility_id, (facility.edge_id, edge_pages.get(facility.edge_id, ())))
                for facility in facilities
            ),
        )
        return cls(disk, adjacency_tree, facility_tree, edge_pages, graph, facilities, config)

    # ------------------------------------------------------------------ #
    # Sizing / introspection
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> MultiCostGraph:
        return self._graph

    @property
    def facilities(self) -> FacilitySet:
        return self._facilities

    @property
    def config(self) -> StorageConfig:
        return self._config

    @property
    def disk(self):
        """The page store: a :class:`SimulatedDisk` or a pack's ``FileDisk``."""
        return self._disk

    @property
    def buffer(self) -> LRUBufferPool:
        return self._buffer

    @property
    def num_cost_types(self) -> int:
        return self._graph.num_cost_types

    @property
    def mcn_page_count(self) -> int:
        """Pages occupied by the MCN information (adjacency tree + adjacency file)."""
        return self._disk.pages_of_kind(PageKind.ADJACENCY) + self._disk.pages_of_kind(
            PageKind.ADJACENCY_INDEX
        )

    @property
    def total_page_count(self) -> int:
        return self._disk.num_pages

    @property
    def statistics(self) -> AccessStatistics:
        stats = self._stats
        stats.page_reads = self._buffer.statistics.misses
        stats.buffer_hits = self._buffer.statistics.hits
        return stats

    def reset_statistics(self, *, clear_buffer: bool = False) -> None:
        """Zero all counters; optionally also drop buffered pages (cold start).

        A snapshot view zeroes only its own buffer and counters: the disk's
        physical-read counter is shared with its siblings.
        """
        self._stats.reset()
        self._buffer.statistics.reset()
        if not self._is_view:
            self._disk.statistics.reset()
        if clear_buffer:
            self._buffer.clear()

    # ------------------------------------------------------------------ #
    # Accessor protocol
    # ------------------------------------------------------------------ #
    def adjacency(self, node_id: NodeId) -> list[AdjacencyRecord]:
        """Adjacency list of ``node_id`` (index traversal + data page reads)."""
        self._stats.adjacency_requests += 1
        return self._read_adjacency(node_id)

    def edge_facilities(self, edge_id: EdgeId) -> list[FacilityRecord]:
        """Facilities on ``edge_id`` (facility-file page reads only)."""
        self._stats.facility_requests += 1
        return self._read_edge_facilities(edge_id)

    def facility_edge(self, facility_id: FacilityId) -> EdgeId:
        """Edge of a facility (facility-tree traversal)."""
        self._stats.facility_tree_requests += 1
        return self._read_facility_edge(facility_id)

    # ------------------------------------------------------------------ #
    # Page-level reads through this storage's buffer pool
    # ------------------------------------------------------------------ #
    # Each page answers the lookup itself: a simulated ``Page`` filters its
    # records, a pack's ``PageView`` bisects its slot and decodes only the
    # records it returns.  Either way the same pages are read in the same
    # order, so the counters cannot tell the disks apart.
    def _read_adjacency(self, node_id: NodeId) -> list[AdjacencyRecord]:
        buffer = self._buffer
        records: list[AdjacencyRecord] = []
        for page_id in self._adjacency_tree.lookup(node_id, buffer):  # type: ignore[union-attr]
            records.extend(buffer.read(page_id).adjacency_records(node_id))
        return records

    def _read_edge_facilities(self, edge_id: EdgeId) -> list[FacilityRecord]:
        buffer = self._buffer
        records: list[FacilityRecord] = []
        for page_id in self._facility_pages.get(edge_id, ()):
            records.extend(buffer.read(page_id).facility_records(edge_id))
        return records

    def _read_facility_edge(self, facility_id: FacilityId) -> EdgeId:
        edge_id, _pages = self._facility_tree.lookup(facility_id, self._buffer)
        return edge_id

    # ------------------------------------------------------------------ #
    # Page plans (the compiled-graph fast path)
    # ------------------------------------------------------------------ #
    # Every accessor request touches a fixed page sequence: the files and
    # index trees are bulk-loaded and never mutated, so the sequence can be
    # precomputed once and replayed through any buffer pool.  Replaying a
    # plan performs exactly the buffered reads the record-materialising read
    # path performs — same pages, same order — which is how the expansion
    # kernel keeps page-read/buffer-hit counters bit-identical without
    # scanning page records.  Plan extraction itself reads via the disk's
    # ``peek`` and moves no counter.

    def adjacency_page_plan(self, node_id: NodeId) -> tuple[int, ...]:
        """Page ids an :meth:`adjacency` request for ``node_id`` reads, in order."""
        path, pages = self._adjacency_tree.peek_lookup(node_id)
        return path + pages

    def facility_page_plan(self, edge_id: EdgeId) -> tuple[int, ...]:
        """Page ids an :meth:`edge_facilities` request for ``edge_id`` reads, in order."""
        return self._facility_pages.get(edge_id, ())

    def facility_tree_page_plan(self, facility_id: FacilityId) -> tuple[int, ...]:
        """Page ids a :meth:`facility_edge` request for ``facility_id`` reads, in order."""
        return self._facility_tree.peek_lookup(facility_id)[0]

    def snapshot_view(self, *, buffer_capacity: int | None = None) -> "NetworkStorage":
        """A sibling storage sharing this one's pages but owning its buffer.

        The sibling reads the same disk, trees and facility-page index (none
        of which change once written) through its own LRU buffer pool and
        I/O counters.  This is how parallel shard workers get independent
        data layers over one built network without copying any page: N
        workers cost N buffers, not N copies of the MCN.

        ``buffer_capacity`` overrides the page capacity of the sibling's
        buffer; by default it matches this storage's pool.
        """
        if buffer_capacity is None:
            buffer_capacity = self._buffer.capacity
        view = copy.copy(self)
        view._buffer = LRUBufferPool(self._disk, buffer_capacity)
        view._stats = AccessStatistics()
        view._is_view = True
        return view

    def describe(self) -> dict[str, int]:
        """Page-count summary used by the CLI and examples."""
        pages = self._disk.pages_of_kind
        return {
            "adjacency_file_pages": pages(PageKind.ADJACENCY),
            "adjacency_tree_pages": pages(PageKind.ADJACENCY_INDEX),
            "facility_file_pages": pages(PageKind.FACILITY),
            "facility_tree_pages": pages(PageKind.FACILITY_INDEX),
            "mcn_pages": self.mcn_page_count,
            "total_pages": self.total_page_count,
            "buffer_capacity": self._buffer.capacity,
        }
