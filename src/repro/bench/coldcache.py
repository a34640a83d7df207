"""Cold-cache parity check: file-backed packs vs the simulated disk.

The simulated-disk benchmarks always query a storage that was *just built*
in RAM.  This check streams a dataset pack to a file (never materialising
the graph), re-opens it with checksum verification, and runs queries over
the ``mmap``-backed :class:`~repro.storage.persist.FileDisk` through a cold
LRU buffer.  Its *compare* leg then builds the same dataset on the in-RAM
:class:`~repro.storage.disk.SimulatedDisk` and replays the identical
queries: answers and page-read/buffer-hit counters must match exactly (the
pack is the same page sequence), which makes the check a residency-parity
oracle.  It measures no time; the repository benchmark's ``pack_reads``
workload (``perfbench/``) does.

Run via ``repro-mcn bench cold-cache``.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

from repro.api.policy import ExecutionPolicy
from repro.api.session import Session
from repro.datagen.road_network import (
    PackedDatasetSpec,
    build_packed_dataset,
    materialize_packed_dataset,
)
from repro.errors import QueryError
from repro.network.location import NetworkLocation

__all__ = [
    "ColdCacheSpec",
    "ColdCacheReport",
    "run_cold_cache_bench",
    "format_cold_cache_report",
]


@dataclass(frozen=True)
class ColdCacheSpec:
    """One cold-cache run: the dataset to stream plus the query load."""

    dataset: PackedDatasetSpec = field(default_factory=PackedDatasetSpec)
    buffer_fraction: float = 0.01
    num_queries: int = 16

    def __post_init__(self):
        if self.buffer_fraction <= 0 or self.buffer_fraction > 1:
            raise QueryError(
                f"buffer fraction must lie in (0, 1], got {self.buffer_fraction!r}"
            )
        if self.num_queries < 1:
            raise QueryError(f"need at least one query, got {self.num_queries!r}")

    def query_nodes(self) -> list[int]:
        """Deterministic query nodes spread evenly over the grid."""
        total = self.dataset.num_nodes
        return sorted({(index * total) // self.num_queries for index in range(self.num_queries)})


@dataclass(frozen=True)
class ColdCacheReport:
    """The full cold-cache verdict for one spec."""

    spec: ColdCacheSpec
    pack_bytes: int
    num_pages: int
    checksum: str
    buffer_capacity: int
    page_reads: int
    buffer_hits: int
    skyline_sizes: list[int]
    simulated_page_reads: int
    simulated_buffer_hits: int
    results_identical: bool

    @property
    def io_identical(self) -> bool:
        """Page-read/buffer-hit parity with the simulated leg."""
        return (
            self.page_reads == self.simulated_page_reads
            and self.buffer_hits == self.simulated_buffer_hits
        )

    def to_payload(self) -> dict:
        return {
            "spec": {
                "dataset": self.spec.dataset.to_payload(),
                "buffer_fraction": self.spec.buffer_fraction,
                "num_queries": self.spec.num_queries,
            },
            "pack_bytes": self.pack_bytes,
            "num_pages": self.num_pages,
            "checksum": self.checksum,
            "buffer_capacity": self.buffer_capacity,
            "page_reads": self.page_reads,
            "buffer_hits": self.buffer_hits,
            "skyline_sizes": list(self.skyline_sizes),
            "simulated": {
                "page_reads": self.simulated_page_reads,
                "buffer_hits": self.simulated_buffer_hits,
                "io_identical": self.io_identical,
                "results_identical": self.results_identical,
            },
        }


def _query_session(session: Session, nodes: list[int]) -> tuple[list[set], int, int]:
    sizes: list[set] = []
    page_reads = 0
    buffer_hits = 0
    for node_id in nodes:
        response = session.skyline(NetworkLocation.at_node(node_id))
        sizes.append(response.result.facility_ids())
        page_reads += response.io.page_reads
        buffer_hits += response.io.buffer_hits
    return sizes, page_reads, buffer_hits


def run_cold_cache_bench(
    spec: ColdCacheSpec, *, pack_path: str | None = None, keep_pack: bool = False
) -> ColdCacheReport:
    """Stream, verify, and cold-query one dataset, then replay it on the simulated disk.

    ``pack_path`` reuses (or names) the pack file; by default a temporary
    file is created next to the working directory and removed afterwards
    unless ``keep_pack`` is set.
    """
    owned = pack_path is None
    if pack_path is None:
        handle = tempfile.NamedTemporaryFile(suffix=".mcnpack", delete=False)
        handle.close()
        pack_path = handle.name
    try:
        catalog = build_packed_dataset(spec.dataset, pack_path)
        pack_bytes = os.path.getsize(pack_path)

        policy = ExecutionPolicy(buffer_fraction=spec.buffer_fraction)
        nodes = spec.query_nodes()
        with Session(dataset_path=pack_path, policy=policy) as session:
            capacity = session.storage_for().buffer.capacity
            cold_sets, page_reads, buffer_hits = _query_session(session, nodes)

        graph, facilities = materialize_packed_dataset(spec.dataset)
        sim_policy = ExecutionPolicy(
            residency="disk",
            page_size=spec.dataset.page_size,
            buffer_fraction=spec.buffer_fraction,
        )
        with Session(graph, facilities, policy=sim_policy) as sim_session:
            sim_sets, simulated_reads, simulated_hits = _query_session(sim_session, nodes)

        return ColdCacheReport(
            spec=spec,
            pack_bytes=pack_bytes,
            num_pages=catalog.num_pages,
            checksum=catalog.checksum,
            buffer_capacity=capacity,
            page_reads=page_reads,
            buffer_hits=buffer_hits,
            skyline_sizes=[len(found) for found in cold_sets],
            simulated_page_reads=simulated_reads,
            simulated_buffer_hits=simulated_hits,
            results_identical=sim_sets == cold_sets,
        )
    finally:
        if owned and not keep_pack:
            try:
                os.unlink(pack_path)
            except OSError:
                pass


def format_cold_cache_report(report: ColdCacheReport) -> str:
    """Human-readable table for ``repro-mcn bench cold-cache``."""
    dataset = report.spec.dataset
    mib = 1024 * 1024
    lines = [
        f"dataset: {dataset.rows}x{dataset.cols} grid "
        f"({dataset.num_nodes} nodes, d={dataset.num_cost_types}, "
        f"{dataset.num_facilities} facilities), page size {dataset.page_size}",
        f"pack: {report.pack_bytes / mib:.1f} MiB, {report.num_pages} pages, "
        f"sha256 {report.checksum[:16]}...",
        "",
        f"cold FileDisk: {len(report.skyline_sizes)} skylines, "
        f"{report.page_reads} page reads, {report.buffer_hits} buffer hits "
        f"(buffer capacity {report.buffer_capacity} pages)",
        f"simulated disk: {report.simulated_page_reads} page reads, "
        f"{report.simulated_buffer_hits} buffer hits",
        "page-read parity with SimulatedDisk: " + ("yes" if report.io_identical else "NO"),
        "results identical to SimulatedDisk: "
        + ("yes" if report.results_identical else "NO"),
    ]
    return "\n".join(lines) + "\n"
