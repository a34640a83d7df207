"""The on-disk dataset pack format and its ``mmap``-backed page store.

A *pack* is a single file holding an entire built dataset: every page of the
Figure-2 storage scheme (adjacency file, facility file and both bulk-loaded
B+-trees) plus the binary side tables a graph view needs (node ids, edge
table, facility-page index) and a JSON catalog describing all of it.

Layout (all integers little-endian)::

    +--------------------------------------------------------------+
    | header (88 bytes, fixed)                                     |
    |   magic "MCNPACK1" | endian tag | format version             |
    |   page_size | slot_size | num_pages                          |
    |   catalog offset | catalog length | SHA-256 checksum         |
    +--------------------------------------------------------------+
    | page region: num_pages slots of slot_size bytes each         |
    |   slot i starts at HEADER_SIZE + i * slot_size  (arithmetic) |
    +--------------------------------------------------------------+
    | binary sections (node ids, edge table, facility-page index)  |
    +--------------------------------------------------------------+
    | catalog JSON (section offsets, tree shapes, page counts)     |
    +--------------------------------------------------------------+

Every page is encoded into a fixed-width slot (the width is the largest
encoded page, so ``page_id -> file offset`` is a multiply-add), which lets
:class:`FileDisk` serve :meth:`read`/:meth:`peek` straight off an ``mmap``
with the exact interface of :class:`~repro.storage.disk.SimulatedDisk`.  The
checksum is the SHA-256 of the whole file with the checksum field zeroed.

Slot layout, format version 2.  Every slot opens with an 8-byte header —
kind code (u8), pad, record count ``n`` (u16), used bytes (u32) — and the
body depends on the kind::

    adjacency  node ids (i64 x n, ascending) | each record's offset in the
               slot (u32 x n) | n records: node, neighbour, edge id, first
               node (i64), length (f64), facility count (u32), d costs
               (f64), facility pages (u32 count + i64 ids)
    facility   n records of 24 bytes, in edge order: facility id, edge id
               (i64), offset (f64)
    index      one record: type (u8), then a leaf — keys (u32 count m +
               i64 x m) | each value's offset in the slot (u32 x m) | m
               values (adjacency tree: page ids as u32 count + i64 ids;
               facility tree: edge id (i64) + page ids) — or an internal
               node — separators, then children (each u32 count + i64 ids)

The node directory, the facility records' fixed stride and the leaf's
value offsets are what make pages lazy: :meth:`FileDisk.read` returns a
:class:`PageView` that decodes nothing up front and answers the read
path's three lookups — one node's adjacency records, one edge's facility
records, one B+-tree step — by bisecting the slot in place and decoding
only the records it returns.  Version-1 packs, which lack the offset
tables, are refused with :class:`~repro.errors.PackVersionError`.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import tempfile
import threading

from repro.errors import (
    PackChecksumError,
    PackFormatError,
    PackVersionError,
    StorageError,
)
from repro.network.accessor import AdjacencyRecord, FacilityRecord
from repro.storage.btree import _InternalRecord, _LeafRecord
from repro.storage.disk import DiskStatistics
from repro.storage.layout import StoredAdjacencyEntry
from repro.storage.pages import Page, PageKind

__all__ = [
    "PACK_MAGIC",
    "PACK_VERSION",
    "FileDisk",
    "PageView",
    "PackWriter",
    "SpoolingDisk",
    "bisect_column",
    "compute_pack_checksum",
    "read_pack_header",
]

PACK_MAGIC = b"MCNPACK1"
PACK_VERSION = 2
# Written as a native little-endian u32; a pack produced on (or doctored
# for) a big-endian layout reads back as 0x04030201 and is rejected.
_ENDIAN_TAG = 0x01020304
_ENDIAN_TAG_SWAPPED = 0x04030201

_HEADER = struct.Struct("<8sIIQQQQQ32s")
HEADER_SIZE = _HEADER.size
_CHECKSUM_OFFSET = HEADER_SIZE - 32

_SLOT_HEADER = struct.Struct("<BxHI")  # page kind, pad, record count, used_bytes

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_FACILITY_RECORD = struct.Struct("<qqd")
# node, neighbour, edge id, first node, length, facility count
_ADJACENCY_ENTRY = struct.Struct("<qqqqdI")

_KIND_CODES = {
    PageKind.ADJACENCY: 0,
    PageKind.FACILITY: 1,
    PageKind.ADJACENCY_INDEX: 2,
    PageKind.FACILITY_INDEX: 3,
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

_LEAF = 0
_INTERNAL = 1


# --------------------------------------------------------------------- #
# Page slot codec
# --------------------------------------------------------------------- #
def _append_ids(out: bytearray, ids) -> None:
    out += _U32.pack(len(ids))
    out += struct.pack(f"<{len(ids)}q", *ids)


def _require_sorted(keys: list[int], page: Page) -> None:
    # The reader bisects these keys in place; a page out of order would
    # read back wrong instead of failing.
    if any(later < earlier for earlier, later in zip(keys, keys[1:])):
        raise StorageError(f"page {page.page_id}: {page.kind.value} records out of key order")


def encode_page(page: Page, num_cost_types: int) -> bytes:
    """Serialise one page (without slot padding) in the version-2 layout."""
    out = bytearray(
        _SLOT_HEADER.pack(_KIND_CODES[page.kind], len(page.records), page.used_bytes)
    )
    if page.kind is PageKind.ADJACENCY:
        nodes = [stored.node for stored in page.records]
        _require_sorted(nodes, page)
        out += struct.pack(f"<{len(nodes)}q", *nodes)
        table = len(out)
        out += bytes(_U32.size * len(nodes))
        for index, stored in enumerate(page.records):
            _U32.pack_into(out, table + index * _U32.size, len(out))
            record = stored.record
            out += _ADJACENCY_ENTRY.pack(
                stored.node,
                record.neighbor,
                record.edge_id,
                record.first_node,
                record.length,
                record.facility_count,
            )
            out += struct.pack(f"<{len(record.costs)}d", *record.costs)
            _append_ids(out, stored.facility_pages)
    elif page.kind is PageKind.FACILITY:
        _require_sorted([record.edge_id for record in page.records], page)
        for record in page.records:
            out += _FACILITY_RECORD.pack(record.facility_id, record.edge_id, record.offset)
    else:
        for record in page.records:
            if isinstance(record, _LeafRecord):
                out += _U8.pack(_LEAF)
                _append_ids(out, record.keys)
                table = len(out)
                out += bytes(_U32.size * len(record.keys))
                for index, value in enumerate(record.values):
                    _U32.pack_into(out, table + index * _U32.size, len(out))
                    if page.kind is PageKind.ADJACENCY_INDEX:
                        # Adjacency-tree values are adjacency-file page tuples.
                        _append_ids(out, value)
                    else:
                        # Facility-tree values are (edge id, facility-page tuple).
                        edge_id, pages = value
                        out += _I64.pack(edge_id)
                        _append_ids(out, pages)
            elif isinstance(record, _InternalRecord):
                out += _U8.pack(_INTERNAL)
                _append_ids(out, record.separators)
                _append_ids(out, record.children)
            else:  # pragma: no cover - guarded by the storage layer itself
                raise PackFormatError(
                    f"unencodable index record {type(record).__name__}"
                )
    return bytes(out)


def _overrun(page_id: int) -> PackFormatError:
    return PackFormatError(f"page {page_id}: slot ends mid-record (corrupt pack)")


class _Cursor:
    """Sequential struct reads over a buffer, with bounds checking."""

    __slots__ = ("buffer", "offset", "end")

    def __init__(self, buffer, offset: int, end: int):
        self.buffer = buffer
        self.offset = offset
        self.end = end

    def unpack(self, fmt: struct.Struct):
        if self.offset + fmt.size > self.end:
            raise PackFormatError("page slot ends mid-record (corrupt pack)")
        values = fmt.unpack_from(self.buffer, self.offset)
        self.offset += fmt.size
        return values

    def skip(self, size: int) -> None:
        if self.offset + size > self.end:
            raise PackFormatError("page slot ends mid-record (corrupt pack)")
        self.offset += size

    def read_ids(self) -> tuple[int, ...]:
        (count,) = self.unpack(_U32)
        if count > (self.end - self.offset) // _I64.size:
            raise PackFormatError("id list longer than its page slot (corrupt pack)")
        values = struct.unpack_from(f"<{count}q", self.buffer, self.offset)
        self.offset += count * _I64.size
        return values


def decode_page(buffer, offset: int, slot_size: int, page_id: int, num_cost_types: int) -> Page:
    """Decode every record of the page stored in the slot starting at ``offset``.

    The query path never calls this: it asks a :class:`PageView` for the
    records it needs.  The full decode serves inspection and the tests that
    compare a pack page by page with the simulated disk it was written from.
    """
    cursor = _Cursor(buffer, offset, offset + slot_size)
    kind_code, record_count, used_bytes = cursor.unpack(_SLOT_HEADER)
    kind = _CODE_KINDS.get(kind_code)
    if kind is None:
        raise PackFormatError(f"page {page_id} has unknown kind code {kind_code}")
    records: list[object] = []
    if kind is PageKind.ADJACENCY:
        # The node directory and offset table only index the records below.
        cursor.skip(record_count * (_I64.size + _U32.size))
        costs_struct = struct.Struct(f"<{num_cost_types}d")
        for _ in range(record_count):
            node, neighbor, edge_id, first_node, length, facility_count = cursor.unpack(
                _ADJACENCY_ENTRY
            )
            costs = cursor.unpack(costs_struct)
            facility_pages = cursor.read_ids()
            records.append(
                StoredAdjacencyEntry(
                    node=node,
                    record=AdjacencyRecord(
                        neighbor=neighbor,
                        edge_id=edge_id,
                        costs=costs,
                        length=length,
                        first_node=first_node,
                        facility_count=facility_count,
                    ),
                    facility_pages=facility_pages,
                )
            )
    elif kind is PageKind.FACILITY:
        for _ in range(record_count):
            facility_id, edge_id, facility_offset = cursor.unpack(_FACILITY_RECORD)
            records.append(FacilityRecord(facility_id, edge_id, facility_offset))
    else:
        for _ in range(record_count):
            (record_type,) = cursor.unpack(_U8)
            if record_type == _LEAF:
                keys = cursor.read_ids()
                cursor.skip(len(keys) * _U32.size)  # the value offset table
                values: list[object] = []
                if kind is PageKind.ADJACENCY_INDEX:
                    for _ in keys:
                        values.append(cursor.read_ids())
                else:
                    for _ in keys:
                        (edge_id,) = cursor.unpack(_I64)
                        values.append((edge_id, cursor.read_ids()))
                records.append(_LeafRecord(keys=keys, values=tuple(values)))
            elif record_type == _INTERNAL:
                separators = cursor.read_ids()
                children = cursor.read_ids()
                records.append(_InternalRecord(separators=separators, children=children))
            else:
                raise PackFormatError(
                    f"page {page_id} has unknown index record type {record_type}"
                )
    return Page(page_id=page_id, kind=kind, records=records, used_bytes=used_bytes)


def bisect_column(buffer, base: int, count: int, key: int, stride: int = _I64.size) -> int:
    """Leftmost insertion point of ``key`` in a sorted i64 column, read in place.

    The column's ``count`` values start at ``base`` and lie ``stride`` bytes
    apart; the result is what :func:`bisect.bisect_left` would return for
    them.  Nothing is copied out of ``buffer``.
    """
    unpack = _I64.unpack_from
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        if unpack(buffer, base + mid * stride)[0] < key:
            lo = mid + 1
        else:
            hi = mid
    return lo


class PageView:
    """One page of a pack, read in place from its ``mmap`` slot.

    Building a view reads only the 8-byte slot header.  The three lookups of
    the Figure-2 read path — :meth:`adjacency_records`,
    :meth:`facility_records` and the B+-tree step (:meth:`index_child`,
    :meth:`index_value`) — bisect the slot's sorted keys in place and decode
    only the records they return; :class:`~repro.storage.pages.Page` answers
    the same lookups on the simulated disk.  Every count and offset read
    from the slot is checked against the slot's end, so a corrupt slot
    raises :class:`~repro.errors.PackFormatError`, and a view used after
    its pack is closed raises :class:`~repro.errors.StorageError`.
    """

    __slots__ = ("page_id", "kind", "used_bytes", "_disk", "_base", "_end", "_count")

    def __init__(self, disk: "FileDisk", page_id: int):
        base = HEADER_SIZE + page_id * disk._slot_size
        kind_code, count, used_bytes = _SLOT_HEADER.unpack_from(disk._mm, base)
        kind = _CODE_KINDS.get(kind_code)
        if kind is None:
            raise PackFormatError(f"page {page_id} has unknown kind code {kind_code}")
        self.page_id = page_id
        self.kind = kind
        self.used_bytes = used_bytes
        self._disk = disk
        self._base = base
        self._end = base + disk._slot_size
        self._count = count

    def _buffer(self):
        disk = self._disk
        if disk._closed:
            raise StorageError(f"{disk.path}: pack is closed")
        return disk._mm

    def _buffer_as(self, kind: PageKind):
        mm = self._buffer()
        if self.kind is not kind:
            raise PackFormatError(
                f"page {self.page_id} is a {self.kind.value} page, not a {kind.value} page"
            )
        return mm

    @property
    def records(self) -> list[object]:
        """Every record of the page, fully decoded (inspection and tests only)."""
        disk = self._disk
        page = decode_page(
            self._buffer(), self._base, disk._slot_size, self.page_id, disk._num_cost_types
        )
        return page.records

    def adjacency_records(self, node_id: int) -> list[AdjacencyRecord]:
        """The adjacency records of ``node_id`` stored on this page, in order."""
        mm = self._buffer_as(PageKind.ADJACENCY)
        count = self._count
        ids = self._base + _SLOT_HEADER.size
        table = ids + count * _I64.size
        if table + count * _U32.size > self._end:
            raise _overrun(self.page_id)
        entry = self._disk._adjacency_record
        limit = self._end - entry.size
        records: list[AdjacencyRecord] = []
        index = bisect_column(mm, ids, count, node_id)
        while index < count and _I64.unpack_from(mm, ids + index * _I64.size)[0] == node_id:
            start = self._base + _U32.unpack_from(mm, table + index * _U32.size)[0]
            if start > limit:
                raise _overrun(self.page_id)
            values = entry.unpack_from(mm, start)
            # values: node, neighbour, edge id, first node, length,
            # facility count, then the d costs.
            records.append(
                AdjacencyRecord(values[1], values[2], values[6:], values[4], values[3], values[5])
            )
            index += 1
        return records

    def facility_records(self, edge_id: int) -> list[FacilityRecord]:
        """The facility records of ``edge_id`` stored on this page, in order."""
        mm = self._buffer_as(PageKind.FACILITY)
        count = self._count
        base = self._base + _SLOT_HEADER.size
        if base + count * _FACILITY_RECORD.size > self._end:
            raise _overrun(self.page_id)
        stride = _FACILITY_RECORD.size
        records: list[FacilityRecord] = []
        # Records sit in edge order; the edge id is each record's second field.
        index = bisect_column(mm, base + _I64.size, count, edge_id, stride)
        while index < count:
            facility_id, record_edge, offset = _FACILITY_RECORD.unpack_from(
                mm, base + index * stride
            )
            if record_edge != edge_id:
                break
            records.append(FacilityRecord(facility_id, record_edge, offset))
            index += 1
        return records

    def _index_record(self, record_type: int):
        """The map and the body offset of this index page's one record."""
        mm = self._buffer()
        if self.kind is PageKind.ADJACENCY or self.kind is PageKind.FACILITY:
            raise PackFormatError(
                f"page {self.page_id} is a {self.kind.value} page, not an index page"
            )
        if self._count != 1:
            raise PackFormatError(
                f"index page {self.page_id} holds {self._count} records, not 1 (corrupt pack)"
            )
        start = self._base + _SLOT_HEADER.size
        if start + _U8.size + _U32.size > self._end:
            raise _overrun(self.page_id)
        if mm[start] != record_type:
            expected = "leaf" if record_type == _LEAF else "internal"
            raise PackFormatError(
                f"index page {self.page_id}: record type {mm[start]} where a {expected} "
                "record belongs (corrupt pack)"
            )
        return mm, start + _U8.size

    def index_child(self, key: int) -> int:
        """The child page this internal index page routes ``key`` to."""
        mm, start = self._index_record(_INTERNAL)
        (count,) = _U32.unpack_from(mm, start)
        separators = start + _U32.size
        children = separators + count * _I64.size + _U32.size
        if children > self._end:
            raise _overrun(self.page_id)
        (num_children,) = _U32.unpack_from(mm, children - _U32.size)
        if children + num_children * _I64.size > self._end:
            raise _overrun(self.page_id)
        # bisect_right over integer separators is bisect_left of key + 1.
        index = bisect_column(mm, separators, count, key + 1)
        if index >= num_children:
            raise PackFormatError(
                f"index page {self.page_id} has fewer children than separators (corrupt pack)"
            )
        return _I64.unpack_from(mm, children + index * _I64.size)[0]

    def index_value(self, key: int):
        """The value this leaf index page stores under ``key``.

        An adjacency-tree value is a tuple of adjacency-file page ids; a
        facility-tree value is ``(edge id, facility-file page ids)``.
        Raises :class:`~repro.errors.StorageError` when ``key`` is absent.
        """
        mm, start = self._index_record(_LEAF)
        (count,) = _U32.unpack_from(mm, start)
        keys = start + _U32.size
        table = keys + count * _I64.size
        if table + count * _U32.size > self._end:
            raise _overrun(self.page_id)
        index = bisect_column(mm, keys, count, key)
        if index == count or _I64.unpack_from(mm, keys + index * _I64.size)[0] != key:
            raise StorageError(f"key {key} not found in index")
        (offset,) = _U32.unpack_from(mm, table + index * _U32.size)
        cursor = _Cursor(mm, self._base + offset, self._end)
        if self.kind is PageKind.ADJACENCY_INDEX:
            return cursor.read_ids()
        (edge_id,) = cursor.unpack(_I64)
        return edge_id, cursor.read_ids()


# --------------------------------------------------------------------- #
# Checksum
# --------------------------------------------------------------------- #
def compute_pack_checksum(readable, total_size: int) -> bytes:
    """SHA-256 of a pack with the header's checksum field zeroed.

    ``readable`` must support ``seek``/``read``; the file is consumed in
    chunks so arbitrarily large packs hash with constant memory.
    """
    digest = hashlib.sha256()
    readable.seek(0)
    digest.update(readable.read(_CHECKSUM_OFFSET))
    digest.update(b"\x00" * 32)
    readable.seek(_CHECKSUM_OFFSET + 32)
    remaining = total_size - (_CHECKSUM_OFFSET + 32)
    while remaining > 0:
        chunk = readable.read(min(remaining, 1 << 20))
        if not chunk:
            raise PackFormatError("pack file shrank while hashing")
        digest.update(chunk)
        remaining -= len(chunk)
    return digest.digest()


# --------------------------------------------------------------------- #
# Writing
# --------------------------------------------------------------------- #
class _SectionWriter:
    """Accumulates one binary section in a spill file."""

    def __init__(self, name: str, directory: str):
        self.name = name
        self._file = tempfile.TemporaryFile(dir=directory)
        self.length = 0

    def write(self, data: bytes) -> None:
        self._file.write(data)
        self.length += len(data)

    def copy_into(self, destination, chunk_size: int = 1 << 20) -> None:
        self._file.seek(0)
        while True:
            chunk = self._file.read(chunk_size)
            if not chunk:
                break
            destination.write(chunk)

    def close(self) -> None:
        self._file.close()


class PackWriter:
    """Streams encoded page slots and sections into a pack file.

    Pages and section bytes are spilled to temporary files as they arrive
    (the final slot width is only known once the largest page has been
    seen), then assembled into the destination file by :meth:`finalize`.
    Nothing is held in memory, so million-page packs build with bounded RSS.
    :meth:`finalize` closes the spill files; a build that fails before it
    closes them with :meth:`close`, or by using the writer in a ``with``
    block.
    """

    def __init__(self, path: str, *, page_size: int, num_cost_types: int):
        if page_size <= 0:
            raise StorageError("page size must be positive")
        self._path = os.fspath(path)
        self._page_size = page_size
        self._num_cost_types = num_cost_types
        directory = os.path.dirname(os.path.abspath(self._path)) or "."
        self._directory = directory
        self._slots = tempfile.TemporaryFile(dir=directory)
        self._sections: list[_SectionWriter] = []
        self._num_pages = 0
        self._max_slot = 0
        self._finalized = False

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def num_pages(self) -> int:
        return self._num_pages

    def close(self) -> None:
        """Close the spill files (idempotent); the writer takes nothing after."""
        for section in self._sections:
            section.close()
        self._slots.close()

    def __enter__(self) -> "PackWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def add_page(self, page: Page) -> None:
        """Append a page; pages must arrive in ``page_id`` order from 0."""
        if page.page_id != self._num_pages:
            raise StorageError(
                f"pages must be added in id order: expected {self._num_pages}, "
                f"got {page.page_id}"
            )
        encoded = encode_page(page, self._num_cost_types)
        self._slots.write(_U32.pack(len(encoded)))
        self._slots.write(encoded)
        self._max_slot = max(self._max_slot, len(encoded))
        self._num_pages += 1

    def section(self, name: str) -> _SectionWriter:
        """Open a named binary section; write bytes to the returned object."""
        writer = _SectionWriter(name, self._directory)
        self._sections.append(writer)
        return writer

    def finalize(self, catalog_payload: dict) -> dict:
        """Assemble the pack file and stamp its checksum.

        ``catalog_payload`` is extended with the slot geometry and section
        directory, serialised as the trailing JSON catalog, and returned.
        """
        if self._finalized:
            raise StorageError("pack writer already finalized")
        self._finalized = True
        # Align slots to 8 bytes so mmap'ed struct reads stay aligned.
        slot_size = (self._max_slot + 7) & ~7 if self._num_pages else 0
        payload = dict(catalog_payload)
        payload["format_version"] = PACK_VERSION
        payload["page_size"] = self._page_size
        payload["num_cost_types"] = self._num_cost_types
        payload["num_pages"] = self._num_pages
        payload["slot_size"] = slot_size

        sections: dict[str, list[int]] = {}
        offset = HEADER_SIZE + self._num_pages * slot_size
        for section in self._sections:
            sections[section.name] = [offset, section.length]
            offset += section.length
        payload["sections"] = sections
        catalog_offset = offset
        catalog_bytes = json.dumps(payload, sort_keys=True).encode("utf-8")

        try:
            with open(self._path, "wb") as out:
                out.write(
                    _HEADER.pack(
                        PACK_MAGIC,
                        _ENDIAN_TAG,
                        PACK_VERSION,
                        self._page_size,
                        slot_size,
                        self._num_pages,
                        catalog_offset,
                        len(catalog_bytes),
                        b"\x00" * 32,
                    )
                )
                self._slots.seek(0)
                for _ in range(self._num_pages):
                    (length,) = _U32.unpack(self._slots.read(_U32.size))
                    encoded = self._slots.read(length)
                    out.write(encoded)
                    out.write(b"\x00" * (slot_size - length))
                for section in self._sections:
                    section.copy_into(out)
                out.write(catalog_bytes)
                out.flush()
        finally:
            self.close()
        with open(self._path, "r+b") as out:
            checksum = compute_pack_checksum(out, os.path.getsize(self._path))
            out.seek(_CHECKSUM_OFFSET)
            out.write(checksum)
        payload["checksum"] = checksum.hex()
        return payload


class SpoolingDisk:
    """A write-only stand-in for :class:`SimulatedDisk` that streams to a pack.

    The flat-file and B+-tree builders only ever touch the page they most
    recently allocated, so the previous page can be encoded and spilled the
    moment a new one is requested.  Reads are refused: nothing queries a
    dataset while it is being built.
    """

    def __init__(self, writer: PackWriter):
        self._writer = writer
        self._current: Page | None = None
        self._next_page_id = 0
        self._kind_counts = {kind: 0 for kind in PageKind}
        self._stats = DiskStatistics()

    @property
    def page_size(self) -> int:
        return self._writer.page_size

    @property
    def num_pages(self) -> int:
        return self._next_page_id

    @property
    def statistics(self) -> DiskStatistics:
        return self._stats

    def allocate(self, kind: PageKind) -> Page:
        self.flush()
        page = Page(page_id=self._next_page_id, kind=kind)
        self._current = page
        self._next_page_id += 1
        self._kind_counts[kind] += 1
        self._stats.page_writes += 1
        return page

    def flush(self) -> None:
        """Spill the in-flight page (called automatically; once more at the end)."""
        if self._current is not None:
            self._writer.add_page(self._current)
            self._current = None

    def read(self, page_id: int) -> Page:
        raise StorageError("a spooling disk is write-only (pack under construction)")

    def peek(self, page_id: int) -> Page:
        raise StorageError("a spooling disk is write-only (pack under construction)")

    def pages_of_kind(self, kind: PageKind) -> int:
        return self._kind_counts[kind]


# --------------------------------------------------------------------- #
# Reading
# --------------------------------------------------------------------- #
def read_pack_header(path: str) -> dict:
    """Parse and validate a pack header; returns its fields as a dict.

    Raises the typed pack errors on malformed input; never reads past the
    header, so it is safe on arbitrarily corrupt files.
    """
    size = os.path.getsize(path)
    if size < HEADER_SIZE:
        raise PackFormatError(
            f"{path}: file of {size} bytes is shorter than the {HEADER_SIZE}-byte header"
        )
    with open(path, "rb") as handle:
        raw = handle.read(HEADER_SIZE)
    (
        magic,
        endian_tag,
        version,
        page_size,
        slot_size,
        num_pages,
        catalog_offset,
        catalog_length,
        checksum,
    ) = _HEADER.unpack(raw)
    if magic != PACK_MAGIC:
        raise PackFormatError(f"{path}: bad magic {magic!r}; not a dataset pack")
    if endian_tag == _ENDIAN_TAG_SWAPPED:
        raise PackFormatError(
            f"{path}: byte-swapped endianness tag; pack written with opposite endianness"
        )
    if endian_tag != _ENDIAN_TAG:
        raise PackFormatError(f"{path}: corrupt endianness tag 0x{endian_tag:08x}")
    if version != PACK_VERSION:
        raise PackVersionError(
            f"{path}: pack format version {version}, this build reads version {PACK_VERSION}"
        )
    expected = catalog_offset + catalog_length
    if size < expected:
        raise PackFormatError(
            f"{path}: truncated pack ({size} bytes, catalog ends at {expected})"
        )
    if num_pages and slot_size < _SLOT_HEADER.size:
        raise PackFormatError(f"{path}: slot size {slot_size} cannot hold a page header")
    if HEADER_SIZE + num_pages * slot_size > catalog_offset:
        raise PackFormatError(
            f"{path}: {num_pages} slots of {slot_size} bytes overrun the catalog "
            f"at {catalog_offset}"
        )
    return {
        "page_size": page_size,
        "slot_size": slot_size,
        "num_pages": num_pages,
        "catalog_offset": catalog_offset,
        "catalog_length": catalog_length,
        "checksum": checksum,
        "file_size": size,
    }


class FileDisk:
    """``mmap``-backed read-only page store over a dataset pack.

    Satisfies the read interface of :class:`~repro.storage.disk.SimulatedDisk`
    — counted :meth:`read`, uncounted :meth:`peek` (page-plan extraction),
    ``page_size`` / ``num_pages`` / ``statistics`` / :meth:`pages_of_kind` —
    so the LRU buffer pool, ``NetworkStorage``, golden page-read fixtures
    and the differential oracle run unchanged over it.  A read returns a
    :class:`PageView` over the page's slot, which decodes only the records
    a lookup returns; resident memory is therefore bounded by the buffer
    pool's views and the records callers keep, not by the dataset.
    """

    def __init__(self, path: str, *, verify_checksum: bool = True):
        self._path = os.fspath(path)
        header = read_pack_header(self._path)
        self._page_size = header["page_size"]
        self._slot_size = header["slot_size"]
        self._num_pages = header["num_pages"]
        self._file = open(self._path, "rb")
        try:
            self._mm = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._file.close()
            raise PackFormatError(f"{self._path}: cannot map an empty pack") from None
        try:
            if verify_checksum:
                # Hash through chunked file reads, not mmap slices: slicing
                # the map would fault the whole pack into resident memory,
                # defeating the bounded-RSS property on multi-GB datasets.
                actual = compute_pack_checksum(self._file, header["file_size"])
                if actual != header["checksum"]:
                    raise PackChecksumError(
                        f"{self._path}: SHA-256 mismatch — expected "
                        f"{header['checksum'].hex()}, file hashes to {actual.hex()}"
                    )
            start = header["catalog_offset"]
            end = start + header["catalog_length"]
            try:
                payload = json.loads(self._mm[start:end].decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise PackFormatError(f"{self._path}: undecodable catalog: {exc}") from None
            if not isinstance(payload, dict):
                raise PackFormatError(f"{self._path}: catalog is not a JSON object")
            self._catalog_payload = payload
            self._num_cost_types = int(payload.get("num_cost_types", 1))
            self._adjacency_record = struct.Struct(
                f"{_ADJACENCY_ENTRY.format}{self._num_cost_types}d"
            )
            counts = payload.get("page_kind_counts", {})
            self._kind_counts = {
                kind: int(counts.get(kind.value, 0)) for kind in PageKind
            }
            self._checksum = header["checksum"]
        except Exception:
            self._mm.close()
            self._file.close()
            raise
        self._stats = DiskStatistics()
        self._stats_lock = threading.Lock()
        self._closed = False

    # -- SimulatedDisk interface ---------------------------------------- #
    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def num_pages(self) -> int:
        return self._num_pages

    @property
    def statistics(self) -> DiskStatistics:
        return self._stats

    def allocate(self, kind: PageKind) -> Page:
        raise StorageError("a pack-backed disk is read-only")

    def _view(self, page_id: int) -> PageView:
        if self._closed:
            raise StorageError(f"{self._path}: pack is closed")
        if not 0 <= page_id < self._num_pages:
            raise StorageError(f"unknown page {page_id}")
        return PageView(self, page_id)

    def read(self, page_id: int) -> PageView:
        """Physically read a page (counted; safe under concurrent readers)."""
        view = self._view(page_id)
        with self._stats_lock:
            self._stats.page_reads += 1
        return view

    def peek(self, page_id: int) -> PageView:
        """Read a page without touching any counter (page-plan extraction)."""
        return self._view(page_id)

    def pages_of_kind(self, kind: PageKind) -> int:
        return self._kind_counts[kind]

    # -- pack-specific surface ------------------------------------------ #
    @property
    def path(self) -> str:
        return self._path

    @property
    def checksum(self) -> bytes:
        """The SHA-256 recorded in the header (32 raw bytes)."""
        return self._checksum

    @property
    def catalog_payload(self) -> dict:
        """The decoded trailing JSON catalog."""
        return self._catalog_payload

    def section_bounds(self, name: str) -> tuple[int, int]:
        """``(offset, length)`` of a named binary section."""
        try:
            offset, length = self._catalog_payload["sections"][name]
        except (KeyError, TypeError, ValueError):
            raise PackFormatError(f"{self._path}: pack has no section {name!r}") from None
        return int(offset), int(length)

    @property
    def buffer(self):
        """The raw ``mmap`` (sections are bisected in place, never copied)."""
        return self._mm

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._mm.close()
            self._file.close()

    def __enter__(self) -> "FileDisk":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
