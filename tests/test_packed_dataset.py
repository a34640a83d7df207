"""Streaming dataset generation and the dataset-backed session/CLI path.

The streaming builder (:func:`build_packed_dataset`) must write the exact
bytes the materialise-then-pack path produces — layout parity by
construction is the property that lets million-node packs be built without
ever holding the graph in RAM while staying bit-compatible with everything
the in-memory pipeline pins.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy, Session
from repro.cli import main
from repro.core.engine import MCNQueryEngine
from repro.datagen.road_network import (
    PackedDatasetSpec,
    build_packed_dataset,
    materialize_packed_dataset,
)
from repro.errors import DataGenerationError, PackChecksumError, PolicyError, StorageError
from repro.network import FacilitySet, MultiCostGraph, NetworkLocation
from repro.storage import (
    NetworkStorage,
    PackedNetworkStorage,
    open_dataset,
    pack_network_storage,
)

SPEC = PackedDatasetSpec(
    rows=10,
    cols=9,
    num_cost_types=2,
    num_facilities=40,
    street_density=0.4,
    shortcut_fraction=0.01,
    seed=7,
    page_size=512,
)


@pytest.fixture(scope="module")
def streamed_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("datasets") / "streamed.mcnpack"
    build_packed_dataset(SPEC, str(path))
    return path


@pytest.fixture(scope="module")
def materialized(tmp_path_factory):
    graph, facilities = materialize_packed_dataset(SPEC)
    return graph, facilities


SHAPE_COUNTS = ("num_nodes", "num_edges", "num_cost_types", "num_facilities")


def _reshaped(graph, facilities, count):
    """A copy of the workload whose shape differs from ``graph``'s in ``count`` alone."""
    extra_costs = (1.0,) if count == "num_cost_types" else ()
    copy = MultiCostGraph(graph.num_cost_types + len(extra_costs), directed=graph.directed)
    for node in graph.nodes():
        copy.add_node(node.node_id, node.x, node.y)
    for edge in graph.edges():
        copy.add_edge(
            edge.u,
            edge.v,
            tuple(edge.costs) + extra_costs,
            length=edge.length,
            edge_id=edge.edge_id,
        )
    if count == "num_nodes":
        copy.add_node(max(copy.node_ids()) + 1)
    elif count == "num_edges":
        first, second = sorted(copy.node_ids())[:2]
        copy.add_edge(first, second, (1.0,) * copy.num_cost_types)
    kept = list(facilities)[1:] if count == "num_facilities" else facilities
    return copy, FacilitySet(copy, kept)


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rows": 0},
            {"cols": 1},
            {"num_cost_types": 0},
            {"num_facilities": -1},
            {"street_density": 1.5},
            {"shortcut_fraction": -0.1},
            {"cost_range": (5.0, 1.0)},
            {"page_size": 0},
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(DataGenerationError):
            PackedDatasetSpec(**kwargs)

    def test_payload_round_trip(self):
        assert PackedDatasetSpec.from_payload(SPEC.to_payload()) == SPEC


class TestStreamingParity:
    def test_streamed_pack_is_byte_identical_to_materialized(
        self, streamed_path, materialized, tmp_path
    ):
        graph, facilities = materialized
        storage = NetworkStorage.build(graph, facilities, page_size=SPEC.page_size)
        reference = tmp_path / "materialized.mcnpack"
        pack_network_storage(
            storage,
            str(reference),
            extras={"generator": "packed-grid", "spec": SPEC.to_payload()},
        )
        assert streamed_path.read_bytes() == reference.read_bytes()

    def test_same_spec_same_checksum(self, streamed_path, tmp_path):
        again = tmp_path / "again.mcnpack"
        catalog = build_packed_dataset(SPEC, str(again))
        with open_dataset(str(streamed_path)) as first:
            assert first.catalog.checksum == catalog.checksum

    def test_different_seed_different_checksum(self, streamed_path, tmp_path):
        other = tmp_path / "other.mcnpack"
        catalog = build_packed_dataset(
            PackedDatasetSpec(
                rows=SPEC.rows,
                cols=SPEC.cols,
                num_cost_types=SPEC.num_cost_types,
                num_facilities=SPEC.num_facilities,
                street_density=SPEC.street_density,
                shortcut_fraction=SPEC.shortcut_fraction,
                seed=SPEC.seed + 1,
                page_size=SPEC.page_size,
            ),
            str(other),
        )
        with open_dataset(str(streamed_path)) as first:
            assert first.catalog.checksum != catalog.checksum

    def test_catalog_counts_match_the_spec(self, streamed_path):
        with open_dataset(str(streamed_path)) as dataset:
            catalog = dataset.catalog
            assert catalog.num_nodes == SPEC.num_nodes
            assert catalog.num_facilities == SPEC.num_facilities
            assert catalog.num_cost_types == SPEC.num_cost_types
            assert catalog.extras["generator"] == "packed-grid"
            assert catalog.extras["spec"] == SPEC.to_payload()

    def test_queries_match_the_simulated_storage(self, streamed_path, materialized):
        graph, facilities = materialized
        storage = NetworkStorage.build(
            graph, facilities, page_size=SPEC.page_size, buffer_fraction=0.02
        )
        sim = MCNQueryEngine(graph, facilities, accessor=storage)
        with open_dataset(str(streamed_path)) as dataset:
            packed = dataset.storage(
                buffer_fraction=0.02, graph=graph, facilities=facilities
            )
            filed = MCNQueryEngine(graph, facilities, accessor=packed)
            for node_id in (0, SPEC.num_nodes // 2, SPEC.num_nodes - 1):
                query = NetworkLocation.at_node(node_id)
                want = sim.skyline(query)
                got = filed.skyline(query)
                assert got.facility_ids() == want.facility_ids()
                assert got.statistics.io == want.statistics.io


class TestDatasetSession:
    def test_standalone_session_matches_graph_backed(self, streamed_path, materialized):
        graph, facilities = materialized
        query = NetworkLocation.at_node(SPEC.num_nodes // 2)
        with Session(graph, facilities) as reference:
            want = reference.skyline(query).result.facility_ids()
        with Session(dataset_path=str(streamed_path)) as session:
            response = session.skyline(query)
            assert response.result.facility_ids() == want
            assert response.io.page_reads > 0

    def test_from_dataset_classmethod(self, streamed_path):
        with Session.from_dataset(str(streamed_path)) as session:
            response = session.skyline(NetworkLocation.at_node(0))
            assert len(response.result.facility_ids()) >= 1

    def test_dataset_session_is_read_only(self, streamed_path):
        with Session(dataset_path=str(streamed_path)) as session:
            with pytest.raises(PolicyError, match="read-only"):
                session.monitor([])

    def test_dataset_session_rejects_graph_arguments(self, streamed_path, materialized):
        graph, facilities = materialized
        with pytest.raises(PolicyError):
            Session(graph, facilities, dataset_path=str(streamed_path))

    def test_mismatched_pack_rejected(self, materialized, tmp_path):
        other = tmp_path / "other-shape.mcnpack"
        build_packed_dataset(
            PackedDatasetSpec(rows=4, cols=4, num_cost_types=2, num_facilities=5),
            str(other),
        )
        graph, facilities = materialized
        with open_dataset(str(other)) as dataset:
            with pytest.raises(StorageError, match="num_nodes") as raised:
                dataset.storage(graph=graph, facilities=facilities)
        message = str(raised.value)
        assert "num_edges" in message and "num_facilities" in message
        assert "num_cost_types" not in message

    @pytest.mark.parametrize(
        "policy",
        [
            ExecutionPolicy(),
            ExecutionPolicy(residency="disk"),
            ExecutionPolicy(residency="disk", page_size=1024),
            ExecutionPolicy(residency="disk", buffer_fraction=0.5),
        ],
        ids=["memory", "disk", "disk-page-size", "disk-buffer-fraction"],
    )
    def test_every_policy_runs_on_the_pack(self, streamed_path, policy):
        with Session(dataset_path=str(streamed_path), policy=policy) as session:
            pack = session.storage_for()
            assert isinstance(pack, PackedNetworkStorage)
            engine = session.engine_for()
            assert engine is session.engine_for()
            assert engine.storage is pack and engine.compiled_graph is None
            response = session.skyline(NetworkLocation.at_node(1))
            assert response.io.page_reads > 0

    @pytest.mark.parametrize("buffer_fraction", [0.02, 0.5, 1.0])
    def test_pack_buffer_sized_by_the_default_policy(self, streamed_path, buffer_fraction):
        with open_dataset(str(streamed_path)) as dataset:
            want = dataset.storage(buffer_fraction=buffer_fraction).buffer.capacity
        policy = ExecutionPolicy(buffer_fraction=buffer_fraction)
        with Session(dataset_path=str(streamed_path), policy=policy) as session:
            assert session.storage_for().buffer.capacity == want
            # A call with another buffer_fraction is refused; the open
            # pack's buffer keeps its size.
            other = policy.replace(buffer_fraction=0.9)
            with pytest.raises(PolicyError, match="buffer_fraction"):
                session.skyline(NetworkLocation.at_node(1), policy=other)
            assert session.storage_for().buffer.capacity == want


class TestAttachedPack:
    def test_matching_workload_is_attached(self, streamed_path, materialized):
        graph, facilities = materialized
        with open_dataset(str(streamed_path)) as dataset:
            packed = dataset.storage(graph=graph, facilities=facilities)
            assert packed.graph is graph and packed.facilities is facilities

    @pytest.mark.parametrize("count", SHAPE_COUNTS)
    def test_each_mismatched_count_is_named(self, streamed_path, materialized, count):
        graph, facilities = _reshaped(*materialized, count)
        with open_dataset(str(streamed_path)) as dataset:
            with pytest.raises(StorageError) as raised:
                dataset.storage(graph=graph, facilities=facilities)
        message = str(raised.value)
        assert f"{count}: pack has" in message
        for other in SHAPE_COUNTS:
            if other != count:
                assert other not in message


class TestDatasetCli:
    def test_build_then_inspect(self, tmp_path, capsys):
        path = tmp_path / "cli.mcnpack"
        code = main(
            [
                "build-dataset",
                str(path),
                "--rows", "6",
                "--cols", "6",
                "--facilities", "12",
                "--page-size", "512",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0, output
        assert f"wrote {path}" in output
        assert "checksum:" in output

        code = main(["inspect-dataset", str(path)])
        output = capsys.readouterr().out
        assert code == 0, output
        assert "sha256: verified" in output

        code = main(["inspect-dataset", str(path), "--no-verify"])
        output = capsys.readouterr().out
        assert code == 0, output
        assert "sha256: skipped" in output

    def test_inspect_corrupted_pack_exits_2(self, tmp_path, capsys):
        path = tmp_path / "corrupt.mcnpack"
        code = main(
            ["build-dataset", str(path), "--rows", "5", "--cols", "5", "--facilities", "6"]
        )
        capsys.readouterr()
        assert code == 0
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        assert main(["inspect-dataset", str(path)]) == 2
        error_text = capsys.readouterr().err
        assert "SHA-256" in error_text

    def test_build_into_missing_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.mcnpack"
        assert main(["build-dataset", str(target)]) == 2
        assert capsys.readouterr().err

    def test_inspect_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["inspect-dataset", str(tmp_path / "absent.mcnpack")]) == 2
        assert capsys.readouterr().err

    def test_corruption_error_is_typed(self, tmp_path):
        path = tmp_path / "typed.mcnpack"
        build_packed_dataset(
            PackedDatasetSpec(rows=4, cols=4, num_facilities=4), str(path)
        )
        data = bytearray(path.read_bytes())
        data[200] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(PackChecksumError):
            open_dataset(str(path))
