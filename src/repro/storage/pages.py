"""Disk pages and record-size accounting for the simulated storage layer.

The simulator does not serialise real bytes; instead every record type has a
declared byte footprint, and pages accumulate records until the configured
page size is exhausted.  This reproduces the I/O behaviour (how many pages a
structure occupies, how many page reads a traversal needs) without paying
for actual byte packing in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import StorageError

__all__ = ["PageKind", "Page", "RecordSizes", "DEFAULT_PAGE_SIZE"]

DEFAULT_PAGE_SIZE = 4096


class PageKind(Enum):
    """What a page stores; used only for reporting and sanity checks."""

    ADJACENCY = "adjacency"
    FACILITY = "facility"
    ADJACENCY_INDEX = "adjacency-index"
    FACILITY_INDEX = "facility-index"


@dataclass
class Page:
    """A disk page holding a list of opaque records and their byte footprint."""

    page_id: int
    kind: PageKind
    records: list[object] = field(default_factory=list)
    used_bytes: int = 0

    def add(self, record: object, size: int, capacity: int) -> bool:
        """Append ``record`` if ``size`` more bytes fit within ``capacity``.

        Returns False (and leaves the page untouched) when the record does
        not fit; the caller then opens a fresh page.
        """
        if size > capacity:
            raise StorageError(
                f"record of {size} bytes cannot fit in a page of {capacity} bytes"
            )
        if self.used_bytes + size > capacity:
            return False
        self.records.append(record)
        self.used_bytes += size
        return True

    # The read path's three lookups; a pack's ``PageView`` answers the same
    # ones by bisecting its slot in place.
    def adjacency_records(self, node_id: int) -> list:
        """The adjacency records of ``node_id`` stored on this page, in order."""
        return [stored.record for stored in self.records if stored.node == node_id]

    def facility_records(self, edge_id: int) -> list:
        """The facility records of ``edge_id`` stored on this page, in order."""
        return [record for record in self.records if record.edge_id == edge_id]

    def index_child(self, key: int) -> int:
        """The child page this internal index page routes ``key`` to."""
        return self.records[0].child(key)

    def index_value(self, key: int) -> object:
        """The value this leaf index page stores under ``key`` (``StorageError`` if absent)."""
        return self.records[0].value(key)


@dataclass(frozen=True)
class RecordSizes:
    """Byte footprints of the record types of the Figure-2 storage scheme.

    The defaults model 32-bit identifiers and 32-bit floats:

    * an adjacency entry stores the neighbour id, the d edge costs, the edge
      length, a pointer into the facility file and a facility count;
    * a facility entry stores the facility id and its offset from the edge's
      first end-node;
    * an index entry stores a key and a child/record pointer.
    """

    id_bytes: int = 4
    float_bytes: int = 4
    pointer_bytes: int = 4
    count_bytes: int = 2

    def adjacency_entry(self, num_cost_types: int) -> int:
        return (
            self.id_bytes  # neighbour id
            + self.id_bytes  # edge id
            + num_cost_types * self.float_bytes  # cost vector
            + self.float_bytes  # edge length
            + self.pointer_bytes  # facility-file pointer
            + self.count_bytes  # facility count
        )

    def adjacency_header(self) -> int:
        """Per-node header inside the adjacency file (node id + entry count)."""
        return self.id_bytes + self.count_bytes

    def facility_entry(self) -> int:
        return self.id_bytes + self.float_bytes

    def facility_header(self) -> int:
        """Per-edge header inside the facility file (edge id + entry count)."""
        return self.id_bytes + self.count_bytes

    def index_entry(self) -> int:
        return self.id_bytes + self.pointer_bytes
