"""Tests for the straightforward baseline and the MCNQueryEngine facade."""

from __future__ import annotations

import pytest

from repro.core.aggregates import WeightedSum
from repro.core.baseline import baseline_cost_vectors, baseline_skyline, baseline_top_k
from repro.core.engine import MCNQueryEngine
from repro.errors import QueryError
from repro.network import InMemoryAccessor, NetworkLocation
from repro.storage import NetworkStorage
from tests.helpers import exact_skyline, exact_top_k, facility_vectors


class TestBaseline:
    def test_cost_vectors_match_dijkstra(self, tiny_graph, tiny_facilities, tiny_query):
        accessor = InMemoryAccessor(tiny_graph, tiny_facilities)
        vectors = baseline_cost_vectors(accessor, tiny_graph, tiny_query)
        truth = facility_vectors(tiny_graph, tiny_facilities, tiny_query)
        assert set(vectors) == set(truth)
        for fid in truth:
            assert vectors[fid] == pytest.approx(truth[fid])

    def test_baseline_skyline_matches_exact(self, small_workload):
        graph, facilities = small_workload.graph, small_workload.facilities
        query = small_workload.queries[0]
        accessor = InMemoryAccessor(graph, facilities)
        result = baseline_skyline(accessor, graph, query)
        assert result.facility_ids() == exact_skyline(facility_vectors(graph, facilities, query))

    def test_baseline_topk_matches_exact(self, small_workload):
        graph, facilities = small_workload.graph, small_workload.facilities
        query = small_workload.queries[1]
        aggregate = WeightedSum.uniform(graph.num_cost_types)
        accessor = InMemoryAccessor(graph, facilities)
        result = baseline_top_k(accessor, graph, query, aggregate, 5)
        truth = exact_top_k(facility_vectors(graph, facilities, query), aggregate, 5)
        assert result.facility_ids() == [fid for fid, _ in truth]

    def test_baseline_reads_whole_network_per_cost_type(self, small_workload):
        graph, facilities = small_workload.graph, small_workload.facilities
        accessor = InMemoryAccessor(graph, facilities)
        baseline_skyline(accessor, graph, small_workload.queries[0])
        assert accessor.statistics.adjacency_requests >= graph.num_nodes * graph.num_cost_types * 0.9

    def test_baseline_topk_invalid_k(self, tiny_graph, tiny_facilities, tiny_query):
        accessor = InMemoryAccessor(tiny_graph, tiny_facilities)
        with pytest.raises(QueryError):
            baseline_top_k(accessor, tiny_graph, tiny_query, WeightedSum((0.5, 0.5)), 0)

    def test_baseline_results_are_pinned(self, tiny_graph, tiny_facilities, tiny_query):
        accessor = InMemoryAccessor(tiny_graph, tiny_facilities)
        result = baseline_skyline(accessor, tiny_graph, tiny_query)
        assert all(facility.pinned for facility in result)


class TestEngineConstruction:
    def test_in_memory_engine(self, tiny_graph, tiny_facilities):
        engine = MCNQueryEngine(tiny_graph, tiny_facilities)
        assert engine.storage is None
        assert isinstance(engine.accessor, InMemoryAccessor)

    def test_disk_engine_builds_storage(self, tiny_graph, tiny_facilities):
        storage = NetworkStorage.build(tiny_graph, tiny_facilities, page_size=512)
        engine = MCNQueryEngine(tiny_graph, tiny_facilities, accessor=storage)
        assert engine.storage is not None
        assert engine.accessor is engine.storage

    def test_explicit_storage_reused(self, tiny_graph, tiny_facilities):
        storage = NetworkStorage.build(tiny_graph, tiny_facilities)
        engine = MCNQueryEngine(tiny_graph, tiny_facilities, accessor=storage)
        assert engine.storage is storage

    def test_graph_and_facilities_exposed(self, tiny_graph, tiny_facilities):
        engine = MCNQueryEngine(tiny_graph, tiny_facilities)
        assert engine.graph is tiny_graph
        assert engine.facilities is tiny_facilities


class TestEngineQueries:
    def test_algorithms_agree(self, tiny_engine, tiny_query):
        ids = {
            algorithm: tiny_engine.skyline(tiny_query, algorithm=algorithm).facility_ids()
            for algorithm in ("lsa", "cea", "baseline")
        }
        assert ids["lsa"] == ids["cea"] == ids["baseline"] == {0, 1}

    def test_unknown_algorithm_rejected(self, tiny_engine, tiny_query):
        with pytest.raises(QueryError):
            tiny_engine.skyline(tiny_query, algorithm="quantum")

    def test_algorithm_names_case_insensitive(self, tiny_engine, tiny_query):
        assert tiny_engine.skyline(tiny_query, algorithm="CEA").facility_ids() == {0, 1}

    def test_top_k_with_weights(self, tiny_engine, tiny_query):
        result = tiny_engine.top_k(tiny_query, 1, weights=[0.9, 0.1])
        assert result.facility_ids() == [1]

    def test_top_k_with_aggregate_function(self, tiny_engine, tiny_query):
        result = tiny_engine.top_k(tiny_query, 2, aggregate=WeightedSum((0.9, 0.1)))
        assert len(result) == 2

    def test_top_k_default_aggregate_is_uniform(self, tiny_engine, tiny_query):
        explicit = tiny_engine.top_k(tiny_query, 3, weights=[0.5, 0.5])
        implicit = tiny_engine.top_k(tiny_query, 3)
        assert implicit.facility_ids() == explicit.facility_ids()

    def test_weights_and_aggregate_both_rejected(self, tiny_engine, tiny_query):
        with pytest.raises(QueryError):
            tiny_engine.top_k(tiny_query, 1, weights=[1.0, 1.0], aggregate=WeightedSum((1.0, 1.0)))

    def test_non_monotone_aggregate_rejected(self, tiny_engine, tiny_query):
        with pytest.raises(QueryError):
            tiny_engine.top_k(tiny_query, 1, aggregate=lambda costs: -sum(costs))

    def test_iter_skyline_progressive(self, tiny_engine, tiny_query):
        ids = {facility.facility_id for facility in tiny_engine.iter_skyline(tiny_query)}
        assert ids == {0, 1}

    def test_iter_skyline_rejects_baseline(self, tiny_engine, tiny_query):
        with pytest.raises(QueryError):
            tiny_engine.iter_skyline(tiny_query, algorithm="baseline")

    def test_iter_top_incremental(self, tiny_engine, tiny_query):
        stream = tiny_engine.iter_top(tiny_query, weights=[0.5, 0.5])
        results = stream.take(2)
        assert [item.facility_id for item in results] == tiny_engine.top_k(
            tiny_query, 2, weights=[0.5, 0.5]
        ).facility_ids()

    def test_iter_top_rejects_baseline(self, tiny_engine, tiny_query):
        with pytest.raises(QueryError):
            tiny_engine.iter_top(tiny_query, algorithm="baseline")

    def test_random_weights_match_dimensionality(self, tiny_engine):
        weights = tiny_engine.random_weights()
        assert len(weights.weights) == 2


class TestEngineOnDisk:
    def test_disk_and_memory_engines_agree(self, small_workload):
        graph, facilities = small_workload.graph, small_workload.facilities
        memory_engine = MCNQueryEngine(graph, facilities)
        disk_engine = MCNQueryEngine(
            graph, facilities, accessor=NetworkStorage.build(graph, facilities, page_size=512)
        )
        for query in small_workload.queries[:2]:
            assert (
                memory_engine.skyline(query).facility_ids()
                == disk_engine.skyline(query).facility_ids()
            )
            assert (
                memory_engine.top_k(query, 3, weights=[0.4, 0.3, 0.3]).facility_ids()
                == disk_engine.top_k(query, 3, weights=[0.4, 0.3, 0.3]).facility_ids()
            )

    def test_disk_engine_reports_page_reads(self, small_workload):
        graph, facilities = small_workload.graph, small_workload.facilities
        engine = MCNQueryEngine(
            graph, facilities, accessor=NetworkStorage.build(graph, facilities, page_size=512)
        )
        result = engine.skyline(small_workload.queries[0])
        assert result.statistics.io.page_reads > 0

    def test_cea_uses_fewer_page_reads_than_lsa(self, small_workload):
        graph, facilities = small_workload.graph, small_workload.facilities
        engine = MCNQueryEngine(
            graph, facilities, accessor=NetworkStorage.build(graph, facilities, page_size=512)
        )
        query = small_workload.queries[0]
        engine.storage.reset_statistics(clear_buffer=True)
        lsa = engine.skyline(query, algorithm="lsa")
        engine.storage.reset_statistics(clear_buffer=True)
        cea = engine.skyline(query, algorithm="cea")
        assert cea.statistics.io.page_reads < lsa.statistics.io.page_reads
