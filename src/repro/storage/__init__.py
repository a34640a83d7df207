"""Disk-resident storage: simulated pages, LRU buffer, Figure-2 layout,
and the file-backed dataset packs served through ``mmap``."""

from repro.storage.buffer import BufferStatistics, LRUBufferPool
from repro.storage.btree import StaticBPlusTree
from repro.storage.catalog import (
    DatasetCatalog,
    PackedDataset,
    PackedGraphView,
    PackedNetworkStorage,
    TreeShape,
    open_dataset,
    pack_network_storage,
)
from repro.storage.disk import DiskStatistics, SimulatedDisk
from repro.storage.layout import (
    AdjacencyLayout,
    FacilityLayout,
    build_adjacency_file,
    build_facility_file,
)
from repro.storage.pages import DEFAULT_PAGE_SIZE, Page, PageKind, RecordSizes
from repro.storage.persist import FileDisk, PackWriter, SpoolingDisk
from repro.storage.scheme import NetworkStorage, StorageConfig

__all__ = [
    "AdjacencyLayout",
    "BufferStatistics",
    "DEFAULT_PAGE_SIZE",
    "DatasetCatalog",
    "DiskStatistics",
    "FacilityLayout",
    "FileDisk",
    "LRUBufferPool",
    "NetworkStorage",
    "PackWriter",
    "PackedDataset",
    "PackedGraphView",
    "PackedNetworkStorage",
    "Page",
    "PageKind",
    "RecordSizes",
    "SimulatedDisk",
    "SpoolingDisk",
    "StaticBPlusTree",
    "StorageConfig",
    "TreeShape",
    "build_adjacency_file",
    "build_facility_file",
    "open_dataset",
    "pack_network_storage",
]
