"""The dataset pack format: round-trip fidelity, FileDisk, corruption.

Three pillars:

* **golden page fidelity** — every page decoded off the ``mmap``-backed
  :class:`FileDisk` equals the page the :class:`SimulatedDisk` holds, slot
  by slot, so the pack is a faithful serialisation of the Figure-2 scheme;
* **differential oracle** — the same queries over :class:`NetworkStorage`
  and :class:`PackedNetworkStorage` produce identical answers AND identical
  I/O counters (page reads, buffer hits, logical requests);
* **corruption** — truncation, bit flips, endianness and version mismatches
  all surface as the typed pack errors, never as struct garbage.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy, Session
from repro.core.engine import MCNQueryEngine
from repro.datagen import WorkloadSpec, make_workload
from repro.errors import (
    PackChecksumError,
    PackFormatError,
    PackVersionError,
    ReproError,
    StorageError,
)
from repro.service import SkylineRequest, TopKRequest
from repro.storage import NetworkStorage, open_dataset, pack_network_storage
from repro.storage.pages import PageKind
from repro.storage.persist import (
    HEADER_SIZE,
    PACK_MAGIC,
    FileDisk,
    read_pack_header,
)

SPEC = WorkloadSpec(
    num_nodes=140, num_facilities=40, num_cost_types=2, num_queries=4, seed=21
)
PAGE_SIZE = 512
BUFFER_FRACTION = 0.02


@pytest.fixture(scope="module")
def workload():
    return make_workload(SPEC)


@pytest.fixture(scope="module")
def storage(workload):
    return NetworkStorage.build(
        workload.graph,
        workload.facilities,
        page_size=PAGE_SIZE,
        buffer_fraction=BUFFER_FRACTION,
    )


@pytest.fixture(scope="module")
def pack_path(storage, tmp_path_factory):
    path = tmp_path_factory.mktemp("packs") / "workload.mcnpack"
    pack_network_storage(storage, str(path))
    return path


@pytest.fixture(scope="module")
def dataset(pack_path):
    with open_dataset(str(pack_path)) as opened:
        yield opened


class TestPackRoundTrip:
    def test_header_is_valid(self, pack_path, storage):
        header = read_pack_header(str(pack_path))
        assert header["page_size"] == PAGE_SIZE
        assert header["num_pages"] == storage.disk.num_pages
        assert header["file_size"] == header["catalog_offset"] + header["catalog_length"]

    def test_catalog_mirrors_the_source_storage(self, dataset, storage, workload):
        catalog = dataset.catalog
        assert catalog.num_nodes == workload.graph.num_nodes
        assert catalog.num_edges == workload.graph.num_edges
        assert catalog.num_facilities == len(workload.facilities)
        assert catalog.num_cost_types == workload.graph.num_cost_types
        assert catalog.directed == workload.graph.directed
        for kind in PageKind:
            assert catalog.page_kind_counts[kind.value] == storage.disk.pages_of_kind(kind)
        assert catalog.mcn_page_count == storage.mcn_page_count
        assert len(catalog.checksum) == 64  # hex SHA-256

    def test_golden_page_fidelity(self, dataset, storage):
        # Every slot decodes to the exact page the simulated disk holds —
        # kind, record sequence and used-byte accounting included.
        disk = dataset.disk
        assert disk.num_pages == storage.disk.num_pages
        for page_id in range(disk.num_pages):
            want = storage.disk.peek(page_id)
            got = disk.peek(page_id)
            assert got.page_id == want.page_id
            assert got.kind is want.kind
            assert got.used_bytes == want.used_bytes
            assert list(got.records) == list(want.records), f"page {page_id}"

    def test_graph_view_mirrors_the_graph(self, dataset, workload):
        view = dataset.graph_view()
        graph = workload.graph
        assert view.num_nodes == graph.num_nodes
        assert view.num_edges == graph.num_edges
        assert list(view.node_ids()) == sorted(graph.node_ids())
        for edge in graph.edges():
            assert view.has_edge(edge.edge_id)
            packed = view.edge(edge.edge_id)
            assert (packed.u, packed.v, packed.length) == (edge.u, edge.v, edge.length)
            assert packed.costs.values == edge.costs.values
        assert not view.has_edge(10**9)
        assert not view.has_node(10**9)


class TestFileDiskInterface:
    def test_read_is_counted_peek_is_not(self, pack_path):
        with FileDisk(str(pack_path)) as disk:
            disk.peek(0)
            assert disk.statistics.page_reads == 0
            disk.read(0)
            disk.read(1)
            assert disk.statistics.page_reads == 2

    def test_allocate_refused(self, dataset):
        with pytest.raises(StorageError, match="read-only"):
            dataset.disk.allocate(PageKind.ADJACENCY)

    def test_unknown_page_rejected(self, dataset):
        with pytest.raises(StorageError, match="unknown page"):
            dataset.disk.peek(dataset.disk.num_pages)

    def test_pages_of_kind_matches_simulated(self, dataset, storage):
        for kind in PageKind:
            assert dataset.disk.pages_of_kind(kind) == storage.disk.pages_of_kind(kind)

    def test_closed_disk_refuses_reads(self, pack_path):
        disk = FileDisk(str(pack_path))
        disk.close()
        with pytest.raises(StorageError, match="closed"):
            disk.read(0)
        disk.close()  # idempotent

    def test_unknown_section_rejected(self, dataset):
        with pytest.raises(PackFormatError, match="no section"):
            dataset.disk.section_bounds("nope")


class TestDifferentialOracle:
    def test_queries_bit_identical_over_both_disks(self, dataset, storage, workload):
        # The acceptance bar: identical answers and identical I/O counter
        # payloads over the simulated and the file-backed residency, query
        # by query, for skyline and top-k.
        packed = dataset.storage(
            buffer_fraction=BUFFER_FRACTION,
            graph=workload.graph,
            facilities=workload.facilities,
        )
        assert packed.buffer.capacity == storage.buffer.capacity
        sim_engine = MCNQueryEngine(workload.graph, workload.facilities, accessor=storage)
        file_engine = MCNQueryEngine(
            workload.graph, workload.facilities, accessor=packed
        )
        for query in workload.queries:
            for algorithm in ("cea", "lsa"):
                want = sim_engine.skyline(query, algorithm=algorithm)
                got = file_engine.skyline(query, algorithm=algorithm)
                assert got.facility_ids() == want.facility_ids()
                assert [f.costs for f in got] == [f.costs for f in want]
                assert got.statistics.io == want.statistics.io
            want_top = sim_engine.top_k(query, 3, weights=(0.5, 0.5))
            got_top = file_engine.top_k(query, 3, weights=(0.5, 0.5))
            assert got_top.facility_ids() == want_top.facility_ids()
            assert got_top.statistics.io == want_top.statistics.io

    def test_page_plans_match_the_simulated_storage(self, dataset, storage, workload):
        packed = dataset.storage(buffer_fraction=BUFFER_FRACTION)
        for node_id in sorted(workload.graph.node_ids())[:20]:
            assert packed.adjacency_page_plan(node_id) == storage.adjacency_page_plan(
                node_id
            )
        for edge in list(workload.graph.edges())[:20]:
            assert packed.facility_page_plan(edge.edge_id) == storage.facility_page_plan(
                edge.edge_id
            )
        for facility in list(workload.facilities)[:10]:
            fid = facility.facility_id
            assert packed.facility_tree_page_plan(fid) == storage.facility_tree_page_plan(fid)

    def test_standalone_views_answer_without_the_graph(self, dataset, workload):
        packed = dataset.storage(buffer_fraction=BUFFER_FRACTION)
        assert packed.facilities.graph is packed.graph
        assert len(packed.facilities) == len(workload.facilities)
        some_node = sorted(workload.graph.node_ids())[0]
        records = packed.adjacency(some_node)
        probe = NetworkStorage.build(
            workload.graph, workload.facilities, page_size=PAGE_SIZE
        )
        assert records == probe.adjacency(some_node)


class TestShardedBatchOverPack:
    """Shard workers read a pack through snapshot views of its storage.

    A sharded batch over the pack must count exactly like the same batch
    over the simulated disk: the views share the pack's pages and trees but
    each owns its buffer, as on the simulated disk.
    """

    SHARD_SPEC = WorkloadSpec(
        num_nodes=400, num_facilities=120, num_cost_types=3, num_queries=12, seed=7
    )

    @pytest.fixture(scope="class")
    def shard_case(self, tmp_path_factory):
        workload = make_workload(self.SHARD_SPEC)
        storage = NetworkStorage.build(
            workload.graph, workload.facilities, page_size=1024, buffer_fraction=0.02
        )
        path = tmp_path_factory.mktemp("shard-pack") / "workload.mcnpack"
        pack_network_storage(storage, str(path))
        requests = [
            SkylineRequest(query)
            if index % 2 == 0
            else TopKRequest(query, 3, weights=(0.5, 0.3, 0.2))
            for index, query in enumerate(workload.queries)
        ]
        return workload, storage, str(path), requests

    @staticmethod
    def _answers(batch):
        return [
            [(member.facility_id, member.costs) for member in response.result]
            if isinstance(response.request, SkylineRequest)
            else [(member.facility_id, member.score) for member in response.result]
            for response in batch.responses
        ]

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_sharded_batch_matches_the_simulated_disk(self, shard_case, executor):
        workload, storage, path, requests = shard_case
        policy = ExecutionPolicy(buffer_fraction=0.02, workers=2, executor=executor)
        with Session(
            workload.graph,
            workload.facilities,
            storage=storage,
            policy=policy.replace(residency="disk", page_size=1024),
        ) as simulated:
            want = simulated.run_batch(requests)
        with Session.from_dataset(path, policy=policy) as packed:
            got = packed.run_batch(requests)
        assert self._answers(got) == self._answers(want)
        assert (got.io.page_reads, got.io.buffer_hits) == (
            want.io.page_reads,
            want.io.buffer_hits,
        )
        assert len(got.shard_io) == 2
        assert got.shard_io == want.shard_io


def _corrupt(path, tmp_path, name, mutate):
    data = bytearray(path.read_bytes())
    mutate(data)
    out = tmp_path / name
    out.write_bytes(bytes(data))
    return str(out)


class TestCorruption:
    """Satellite: every way a pack can rot maps to a typed StorageError."""

    def test_truncated_file(self, pack_path, tmp_path):
        data = pack_path.read_bytes()
        out = tmp_path / "truncated.mcnpack"
        out.write_bytes(data[: len(data) // 2])
        with pytest.raises(PackFormatError, match="truncated"):
            open_dataset(str(out))

    def test_file_shorter_than_header(self, tmp_path):
        out = tmp_path / "stub.mcnpack"
        out.write_bytes(b"MCNPACK1 not nearly enough")
        with pytest.raises(PackFormatError, match="shorter than"):
            open_dataset(str(out))

    def test_flipped_payload_byte_caught_by_checksum(self, pack_path, tmp_path):
        path = _corrupt(
            pack_path,
            tmp_path,
            "flipped.mcnpack",
            lambda data: data.__setitem__(HEADER_SIZE + 5, data[HEADER_SIZE + 5] ^ 0xFF),
        )
        with pytest.raises(PackChecksumError, match="SHA-256 mismatch"):
            open_dataset(path)
        # ...and an explicit opt-out maps the file anyway (trusted source).
        opened = open_dataset(path, verify_checksum=False)
        opened.close()

    def test_wrong_endianness_header(self, pack_path, tmp_path):
        def swap_tag(data):
            data[8:12] = bytes(reversed(data[8:12]))

        path = _corrupt(pack_path, tmp_path, "endian.mcnpack", swap_tag)
        with pytest.raises(PackFormatError, match="endianness"):
            open_dataset(path)

    def test_version_mismatch(self, pack_path, tmp_path):
        def bump_version(data):
            data[12] = 99  # little-endian u32 at offset 12

        path = _corrupt(pack_path, tmp_path, "version.mcnpack", bump_version)
        with pytest.raises(PackVersionError, match="version 99"):
            open_dataset(path)

    def test_bad_magic(self, pack_path, tmp_path):
        path = _corrupt(
            pack_path,
            tmp_path,
            "magic.mcnpack",
            lambda data: data.__setitem__(slice(0, 8), b"NOTAPACK"),
        )
        with pytest.raises(PackFormatError, match="magic"):
            open_dataset(path)

    def test_typed_errors_are_storage_errors(self):
        # Callers catching StorageError (or ReproError) see every variant.
        for error in (PackFormatError, PackVersionError, PackChecksumError):
            assert issubclass(error, StorageError)
            assert issubclass(error, ReproError)
        assert issubclass(PackChecksumError, PackFormatError)

    def test_magic_constant_pinned(self):
        assert PACK_MAGIC == b"MCNPACK1"
