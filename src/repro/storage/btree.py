"""A static, bulk-loaded B+-tree over integer keys, stored on simulated pages.

The "adjacency tree" and "facility tree" of the paper's storage scheme
(Figure 2) are modelled with this structure: given a node id (respectively a
facility id), a root-to-leaf traversal — each step a buffered page read —
yields the pointer into the adjacency file (respectively the facility file).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from collections.abc import Iterable

from repro.errors import PackFormatError, StorageError
from repro.storage.buffer import LRUBufferPool
from repro.storage.disk import SimulatedDisk
from repro.storage.pages import PageKind, RecordSizes

__all__ = ["StaticBPlusTree"]

_INDEX_ENTRY_BYTES = RecordSizes().index_entry()


@dataclass(frozen=True)
class _LeafRecord:
    keys: tuple[int, ...]
    values: tuple[object, ...]

    def value(self, key: int) -> object:
        position = bisect.bisect_left(self.keys, key)
        if position < len(self.keys) and self.keys[position] == key:
            return self.values[position]
        raise StorageError(f"key {key} not found in index")


@dataclass(frozen=True)
class _InternalRecord:
    separators: tuple[int, ...]  # smallest key reachable under each child except the first
    children: tuple[int, ...]  # child page ids

    def child(self, key: int) -> int:
        return self.children[bisect.bisect_right(self.separators, key)]


class StaticBPlusTree:
    """Bulk-loaded B+ tree mapping integer keys to opaque values.

    The tree is read-only after construction, which matches the paper's
    setting (the network and facility set are static during querying).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        kind: PageKind,
        entries: Iterable[tuple[int, object]],
        *,
        presorted: bool = False,
    ):
        """Bulk-load the tree from ``entries``.

        With ``presorted=True`` the entries are consumed as a stream that
        must already be in strictly increasing key order; nothing is
        materialised, so million-entry trees can be loaded with bounded
        memory (the streaming pack builder relies on this).  The resulting
        pages are identical to the sorted-list path for the same entries.
        """
        self._disk = disk
        self._kind = kind
        self._fanout = max(disk.page_size // _INDEX_ENTRY_BYTES, 2)
        if not presorted:
            entries = sorted(entries, key=lambda pair: pair[0])
            keys = [key for key, _ in entries]
            if len(set(keys)) != len(keys):
                raise StorageError("B+ tree keys must be unique")
        self._num_entries = 0
        self._height = 0
        self._root_page_id = self._bulk_load(iter(entries))

    @classmethod
    def from_built(
        cls,
        disk,
        kind: PageKind,
        *,
        root_page_id: int | None,
        height: int,
        num_entries: int,
    ) -> "StaticBPlusTree":
        """Adopt a tree whose pages already live on ``disk`` (no bulk load).

        Used when a dataset pack is opened: the leaf and internal pages were
        serialised at build time, so only the root pointer and shape
        metadata need restoring.
        """
        tree = object.__new__(cls)
        tree._disk = disk
        tree._kind = kind
        tree._num_entries = num_entries
        tree._height = height
        tree._root_page_id = root_page_id
        return tree

    @property
    def height(self) -> int:
        """Number of levels (pages read per lookup)."""
        return self._height

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def root_page_id(self) -> int | None:
        return self._root_page_id

    def page_count(self) -> int:
        """Number of pages the tree occupies."""
        return self._disk.pages_of_kind(self._kind)

    def _flush_leaf(self, keys: list[int], values: list[object]) -> tuple[int, int]:
        page = self._disk.allocate(self._kind)
        page.records.append(_LeafRecord(keys=tuple(keys), values=tuple(values)))
        page.used_bytes = len(keys) * _INDEX_ENTRY_BYTES
        return keys[0], page.page_id

    def _bulk_load(self, sorted_entries) -> int | None:
        # Leaf level, streamed: entries are consumed in key order and each
        # full fanout-chunk becomes one leaf page immediately.
        level: list[tuple[int, int]] = []  # (smallest key, page id)
        chunk_keys: list[int] = []
        chunk_values: list[object] = []
        previous_key: int | None = None
        for key, value in sorted_entries:
            if previous_key is not None and key <= previous_key:
                raise StorageError("B+ tree keys must be unique and in increasing order")
            previous_key = key
            chunk_keys.append(key)
            chunk_values.append(value)
            self._num_entries += 1
            if len(chunk_keys) == self._fanout:
                level.append(self._flush_leaf(chunk_keys, chunk_values))
                chunk_keys = []
                chunk_values = []
        if chunk_keys:
            level.append(self._flush_leaf(chunk_keys, chunk_values))
        if not level:
            return None
        self._height = 1
        # Internal levels.
        while len(level) > 1:
            next_level: list[tuple[int, int]] = []
            for start in range(0, len(level), self._fanout):
                chunk = level[start : start + self._fanout]
                page = self._disk.allocate(self._kind)
                record = _InternalRecord(
                    separators=tuple(key for key, _ in chunk[1:]),
                    children=tuple(page_id for _, page_id in chunk),
                )
                page.records.append(record)
                page.used_bytes = len(chunk) * _INDEX_ENTRY_BYTES
                next_level.append((chunk[0][0], page.page_id))
            level = next_level
            self._height += 1
        return level[0][1]

    def _traverse(self, key: int, read) -> tuple[list[int], object]:
        """Root-to-leaf descent for ``key``: the visited page ids and the value.

        ``read`` supplies each page — the buffered (counted) reader for live
        lookups, :meth:`SimulatedDisk.peek` for plan extraction — so both
        callers share one descent and can never diverge.  The descent reads
        exactly :attr:`height` pages, so a pack whose child pointers loop
        cannot hang it.  Raises :class:`StorageError` when the key is
        absent, and :class:`PackFormatError` when a page on the way is not
        an index page of this tree.
        """
        if self._root_page_id is None:
            raise StorageError(f"key {key} not found in empty index")
        path: list[int] = []
        page_id = self._root_page_id
        for _ in range(self._height - 1):
            path.append(page_id)
            page_id = self._index_page(page_id, read).index_child(key)
        path.append(page_id)
        return path, self._index_page(page_id, read).index_value(key)

    def _index_page(self, page_id: int, read):
        page = read(page_id)
        if page.kind is not self._kind:
            raise PackFormatError(
                f"page {page_id} is a {page.kind.value} page inside the "
                f"{self._kind.value} tree (corrupt pack)"
            )
        return page

    def lookup(self, key: int, buffer: LRUBufferPool) -> object:
        """Return the value stored under ``key``; every page visited is a buffered read.

        Raises :class:`StorageError` when the key is absent.
        """
        return self._traverse(key, buffer.read)[1]

    def peek_lookup(self, key: int) -> tuple[tuple[int, ...], object]:
        """The root-to-leaf page ids a :meth:`lookup` of ``key`` would read, and its value.

        The tree is static, so the path is fixed at build time; the compiled
        graph precomputes it per key and replays it through a buffer pool to
        charge exactly the page reads a live traversal would cost.  Reads go
        through the disk's ``peek``, so no counter moves here.
        """
        path, value = self._traverse(key, self._disk.peek)
        return tuple(path), value
