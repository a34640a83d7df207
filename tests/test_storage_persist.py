"""The dataset pack format: round-trip fidelity, FileDisk, corruption.

Four pillars:

* **golden page fidelity** — every page decoded off the ``mmap``-backed
  :class:`FileDisk` equals the page the :class:`SimulatedDisk` holds, slot
  by slot, so the pack is a faithful serialisation of the Figure-2 scheme;
* **page views** — every lookup the read path asks of a pack page (one
  node's adjacency records, one edge's facility records, one B+-tree step)
  equals the same lookup on the page's full decode;
* **differential oracle** — the same queries over :class:`NetworkStorage`
  and :class:`PackedNetworkStorage` produce identical answers AND identical
  I/O counters (page reads, buffer hits, logical requests);
* **corruption** — truncation, bit flips, endianness and version mismatches,
  crafted index pages and arbitrary page bytes all surface as the typed
  pack errors, never as struct garbage, a traceback or a hang.
"""

from __future__ import annotations

import os
import struct
import tempfile
import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import ExecutionPolicy, Session
from repro.core.engine import MCNQueryEngine
from repro.datagen import WorkloadSpec, make_workload
from repro.datagen.road_network import PackedDatasetSpec, build_packed_dataset
from repro.errors import (
    PackChecksumError,
    PackFormatError,
    PackVersionError,
    ReproError,
    StorageError,
)
from repro.service import SkylineRequest, TopKRequest
from repro.storage import NetworkStorage, open_dataset, pack_network_storage
from repro.storage import catalog
from repro.storage.btree import _LeafRecord
from repro.storage.catalog import TreeShape
from repro.storage.pages import Page, PageKind
from repro.storage.persist import (
    HEADER_SIZE,
    PACK_MAGIC,
    FileDisk,
    PackWriter,
    compute_pack_checksum,
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


class TestPageViewLookups:
    """A pack page answers each read-path lookup exactly as its full decode does."""

    def test_lookups_equal_the_full_decode(self, dataset):
        disk = dataset.disk
        seen = set()
        for page_id in range(disk.num_pages):
            view = disk.peek(page_id)
            records = view.records
            if view.kind is PageKind.ADJACENCY:
                nodes = sorted({stored.node for stored in records})
                for node in nodes:
                    want = [stored.record for stored in records if stored.node == node]
                    assert view.adjacency_records(node) == want, f"page {page_id}"
                assert view.adjacency_records(nodes[0] - 1) == []
                assert view.adjacency_records(nodes[-1] + 1) == []
                seen.add("adjacency")
            elif view.kind is PageKind.FACILITY:
                edges = sorted({record.edge_id for record in records})
                for edge in edges:
                    want = [record for record in records if record.edge_id == edge]
                    assert view.facility_records(edge) == want, f"page {page_id}"
                assert view.facility_records(edges[-1] + 1) == []
                seen.add("facility")
            else:
                (record,) = records
                if isinstance(record, _LeafRecord):
                    for key, value in zip(record.keys, record.values):
                        assert view.index_value(key) == value, f"page {page_id}"
                    for missing in (record.keys[0] - 1, record.keys[-1] + 1):
                        with pytest.raises(StorageError, match="not found"):
                            view.index_value(missing)
                    seen.add("leaf")
                else:
                    for position, separator in enumerate(record.separators):
                        assert view.index_child(separator) == record.children[position + 1]
                        assert view.index_child(separator - 1) == record.children[position]
                    seen.add("internal")
        assert seen == {"adjacency", "facility", "leaf", "internal"}

    def test_writer_refuses_records_out_of_key_order(self, storage, tmp_path):
        # The reader bisects a page's node ids in place, so the writer must
        # never store them out of order.
        page = next(
            storage.disk.peek(page_id)
            for page_id in range(storage.disk.num_pages)
            if storage.disk.peek(page_id).kind is PageKind.ADJACENCY
        )
        shuffled = Page(0, page.kind, list(reversed(page.records)), page.used_bytes)
        path = tmp_path / "unordered.mcnpack"
        with PackWriter(path, page_size=PAGE_SIZE, num_cost_types=2) as writer:
            with pytest.raises(StorageError, match="out of key order"):
                writer.add_page(shuffled)

    def test_a_failed_write_leaves_the_spill_files_closed(self, storage, tmp_path):
        bad = Page(7, PageKind.FACILITY, [], 0)  # out of id order
        with pytest.raises(StorageError, match="id order"):
            with PackWriter(
                tmp_path / "failed.mcnpack", page_size=PAGE_SIZE, num_cost_types=2
            ) as writer:
                section = writer.section("extra")
                section.write(b"spilled")
                writer.add_page(bad)
        assert writer._slots.closed and section._file.closed
        # finalize closes them too when it cannot write the pack.
        target = tmp_path / "a-directory"
        target.mkdir()
        writer = PackWriter(target, page_size=PAGE_SIZE, num_cost_types=2)
        section = writer.section("extra")
        writer.add_page(storage.disk.peek(0))
        with pytest.raises(OSError):
            writer.finalize({})
        assert writer._slots.closed and section._file.closed

    def test_finalize_closes_the_spill_files_and_close_is_idempotent(
        self, storage, tmp_path
    ):
        writer = PackWriter(tmp_path / "done.mcnpack", page_size=PAGE_SIZE, num_cost_types=2)
        section = writer.section("extra")
        section.write(b"spilled")
        writer.add_page(storage.disk.peek(0))
        writer.finalize({})
        assert writer._slots.closed and section._file.closed
        writer.close()
        writer.close()

    @pytest.mark.parametrize("builder", ["build_packed_dataset", "pack_network_storage"])
    def test_a_failed_pack_build_closes_every_spill_file(
        self, monkeypatch, storage, tmp_path, builder
    ):
        opened = []
        temporary_file = tempfile.TemporaryFile

        def recording(*args, **kwargs):
            handle = temporary_file(*args, **kwargs)
            opened.append(handle)
            return handle

        def fail(*_args, **_kwargs):
            raise StorageError("facility index write failed")

        # Both builders write the facility index last, once the slots, the
        # node and edge sections (and the node spool) hold data.
        monkeypatch.setattr(tempfile, "TemporaryFile", recording)
        monkeypatch.setattr(catalog, "_write_facility_index", fail)
        path = str(tmp_path / "failed.mcnpack")
        with pytest.raises(StorageError, match="facility index write failed"):
            if builder == "build_packed_dataset":
                spec = PackedDatasetSpec(rows=4, cols=4, num_cost_types=2, num_facilities=5)
                build_packed_dataset(spec, path)
            else:
                pack_network_storage(storage, path)
        assert len(opened) >= 3
        assert all(handle.closed for handle in opened)

    def test_view_after_close_raises_storage_error(self, pack_path):
        disk = FileDisk(str(pack_path))
        views = [disk.read(page_id) for page_id in range(disk.num_pages)]
        disk.close()  # views hold no buffer export, so this cannot fail
        for view in views:
            with pytest.raises(StorageError, match="pack is closed"):
                view.records
            lookup = {
                PageKind.ADJACENCY: view.adjacency_records,
                PageKind.FACILITY: view.facility_records,
            }.get(view.kind, view.index_value)
            with pytest.raises(StorageError, match="pack is closed"):
                lookup(0)

    def test_buffer_hit_after_close_raises_storage_error(self, pack_path, workload):
        node = sorted(workload.graph.node_ids())[0]
        with open_dataset(str(pack_path)) as opened:
            storage = opened.storage(buffer_capacity=8)
            first = storage.adjacency(node)
        assert first
        # Every page the lookup needs is now a buffered view of a closed pack.
        with pytest.raises(StorageError, match="pack is closed"):
            storage.adjacency(node)
        assert storage.statistics.buffer_hits > 0


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
        return workload, str(path), requests

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
        workload, path, requests = shard_case
        policy = ExecutionPolicy(buffer_fraction=0.02, workers=2, executor=executor)
        with Session(
            workload.graph,
            workload.facilities,
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

    @pytest.mark.parametrize("version", [1, 99])
    def test_version_mismatch(self, pack_path, tmp_path, version):
        def set_version(data):
            data[12:16] = version.to_bytes(4, "little")  # u32 at offset 12

        path = _corrupt(pack_path, tmp_path, "version.mcnpack", set_version)
        with pytest.raises(PackVersionError, match=f"format version {version},"):
            open_dataset(path)

    def test_slot_region_overrunning_the_catalog(self, pack_path, tmp_path):
        def double_pages(data):
            (num_pages,) = struct.unpack_from("<Q", data, 32)  # u64 at offset 32
            struct.pack_into("<Q", data, 32, 2 * num_pages)

        path = _corrupt(pack_path, tmp_path, "pages.mcnpack", double_pages)
        with pytest.raises(PackFormatError, match="overrun the catalog"):
            open_dataset(path, verify_checksum=False)

    def test_tree_taller_than_the_pack_refused(self, dataset):
        shape = dataset.catalog.adjacency_tree
        tall = TreeShape(shape.root_page_id, dataset.disk.num_pages + 1, shape.num_entries)
        with pytest.raises(PackFormatError, match="corrupt catalog"):
            tall.adopt(dataset.disk, PageKind.ADJACENCY_INDEX)

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


def _restamp(path: str) -> None:
    """Give a doctored pack a valid SHA-256, so only its structure is wrong."""
    with open(path, "r+b") as handle:
        checksum = compute_pack_checksum(handle, os.path.getsize(path))
        handle.seek(HEADER_SIZE - len(checksum))
        handle.write(checksum)


class TestCraftedIndexPages:
    """A B+-tree descent over a doctored root ends in a typed error, never a hang."""

    @staticmethod
    def _craft(data, root_slot, craft, adjacency_page, root):
        if craft == "root-holds-no-records":
            data[root_slot + 2 : root_slot + 4] = (0).to_bytes(2, "little")
            return
        # The root's one internal record: type byte, separators, children.
        body = root_slot + 8
        assert data[body] == 1
        (separators,) = struct.unpack_from("<I", data, body + 1)
        count_at = body + 5 + 8 * separators
        (children,) = struct.unpack_from("<I", data, count_at)
        target = adjacency_page if craft == "children-on-an-adjacency-page" else root
        for index in range(children):
            struct.pack_into("<q", data, count_at + 4 + 8 * index, target)

    @pytest.mark.parametrize(
        "craft",
        ["root-holds-no-records", "children-on-an-adjacency-page", "children-loop-to-the-root"],
    )
    def test_descent_ends_in_a_typed_error(self, dataset, pack_path, workload, tmp_path, craft):
        disk = dataset.disk
        root = dataset.catalog.adjacency_tree.root_page_id
        assert dataset.catalog.adjacency_tree.height >= 2
        adjacency_page = next(
            page_id
            for page_id in range(disk.num_pages)
            if disk.peek(page_id).kind is PageKind.ADJACENCY
        )
        root_slot = HEADER_SIZE + root * read_pack_header(str(pack_path))["slot_size"]
        path = _corrupt(
            pack_path,
            tmp_path,
            f"{craft}.mcnpack",
            lambda data: self._craft(data, root_slot, craft, adjacency_page, root),
        )
        _restamp(path)
        node = sorted(workload.graph.node_ids())[0]
        outcome: dict[str, BaseException] = {}

        def descend():
            try:
                with open_dataset(path) as crafted:  # the checksum verifies
                    crafted.storage().adjacency(node)
            except BaseException as error:  # recorded and asserted below
                outcome["error"] = error

        worker = threading.Thread(target=descend, daemon=True)
        worker.start()
        worker.join(timeout=5.0)
        assert not worker.is_alive(), "the descent did not end within 5 s"
        assert isinstance(outcome.get("error"), PackFormatError), outcome


class TestPackReaderFuzz:
    """Bytes overwritten anywhere in the page region end in a value or a typed error."""

    @pytest.fixture(scope="class")
    def fuzz_case(self, pack_path, workload, tmp_path_factory):
        header = read_pack_header(str(pack_path))
        nodes = sorted(workload.graph.node_ids())[::12]
        edges = sorted(edge.edge_id for edge in workload.graph.edges())[::20]
        facilities = sorted(facility.facility_id for facility in workload.facilities)[::5]
        target = tmp_path_factory.mktemp("fuzz") / "fuzzed.mcnpack"
        return pack_path.read_bytes(), header, (nodes, edges, facilities), target

    @settings(
        max_examples=60,
        deadline=1000,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_reads_return_or_raise_typed_errors(self, fuzz_case, data):
        pristine, header, (nodes, edges, facilities), target = fuzz_case
        slot_size = header["slot_size"]
        # Offsets near a slot's start hit its header, directory and tables.
        edits = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, header["num_pages"] - 1),
                    st.one_of(st.integers(0, 63), st.integers(0, slot_size - 1)),
                    st.integers(0, 255),
                ),
                min_size=1,
                max_size=6,
            )
        )
        fuzzed = bytearray(pristine)
        for page_id, offset, value in edits:
            fuzzed[HEADER_SIZE + page_id * slot_size + offset] = value
        target.write_bytes(bytes(fuzzed))
        with open_dataset(str(target), verify_checksum=False) as opened:
            storage = opened.storage(buffer_capacity=2)
            for read, ids in (
                (storage.adjacency, nodes),
                (storage.edge_facilities, edges),
                (storage.facility_edge, facilities),
            ):
                for item in ids:
                    try:
                        read(item)
                    except ReproError:
                        pass
