"""Tests for the batch query service and its cross-query expansion cache."""

from __future__ import annotations

import random

import pytest

from repro.api import ExecutionPolicy
from repro.core.engine import MCNQueryEngine
from repro.datagen.workload import WorkloadSpec, make_workload
from repro.errors import QueryError
from repro.service import (
    CrossQueryExpansionCache,
    QueryService,
    SkylineRequest,
    TopKRequest,
)
from repro.storage import NetworkStorage

from tests.helpers import random_mcn, random_query

#: Small clustered workload shared by the service tests.
SPEC = WorkloadSpec(
    num_nodes=220,
    num_facilities=90,
    num_cost_types=3,
    clustered=True,
    num_queries=12,
    seed=23,
)


@pytest.fixture(scope="module")
def workload():
    return make_workload(SPEC)


@pytest.fixture()
def disk_engine(workload):
    storage = NetworkStorage.build(workload.graph, workload.facilities, page_size=1024)
    return MCNQueryEngine(workload.graph, workload.facilities, accessor=storage)


def mixed_requests(workload, k=3):
    requests = []
    for index, query in enumerate(workload.queries):
        if index % 2 == 0:
            requests.append(SkylineRequest(query))
        else:
            requests.append(TopKRequest(query, k, weights=(0.5, 0.3, 0.2)))
    return requests


def engine_answer(engine, request):
    """The one-shot engine answer to a request, as a comparable signature."""
    if isinstance(request, SkylineRequest):
        result = engine.skyline(
            request.location,
            algorithm=request.algorithm,
            probing=request.probing,
            first_nn_shortcut=request.first_nn_shortcut,
        )
        return frozenset(result.facility_ids())
    result = engine.top_k(
        request.location,
        request.k,
        weights=request.weights,
        aggregate=request.aggregate,
        algorithm=request.algorithm,
    )
    return tuple((item.facility_id, round(item.score, 9)) for item in result)


def outcome_signature(outcome):
    if isinstance(outcome.request, SkylineRequest):
        return frozenset(outcome.result.facility_ids())
    return tuple((item.facility_id, round(item.score, 9)) for item in outcome.result)


class TestRequests:
    def test_topk_requires_positive_k(self, workload):
        with pytest.raises(QueryError):
            TopKRequest(workload.queries[0], k=0)

    def test_topk_rejects_weights_and_aggregate(self, workload):
        from repro.core.aggregates import WeightedSum

        with pytest.raises(QueryError):
            TopKRequest(
                workload.queries[0], k=2, weights=(1.0, 1.0, 1.0),
                aggregate=WeightedSum.uniform(3),
            )

    def test_topk_weights_coerced_to_tuple(self, workload):
        request = TopKRequest(workload.queries[0], k=2, weights=[1.0, 2.0, 3.0])
        assert request.weights == (1.0, 2.0, 3.0)
        assert hash(request)  # frozen + tuple weights -> memoisable

    def test_unknown_algorithm_rejected_at_construction(self, workload):
        with pytest.raises(QueryError):
            SkylineRequest(workload.queries[0], algorithm="typo")
        with pytest.raises(QueryError):
            TopKRequest(workload.queries[0], k=2, algorithm="typo")


class TestCrossQueryCache:
    def test_records_are_fetched_once_across_queries(self, disk_engine, workload):
        cache = CrossQueryExpansionCache(disk_engine.accessor)
        node = next(iter(workload.graph.node_ids()))
        first = cache.adjacency(node)
        second = cache.adjacency(node)
        assert first is second
        stats = cache.cache_statistics
        assert stats.adjacency_misses == 1 and stats.adjacency_hits == 1
        assert stats.hit_rate() == 0.5

    def test_lru_bound_evicts_oldest(self, disk_engine, workload):
        cache = CrossQueryExpansionCache(disk_engine.accessor, max_entries=2)
        nodes = list(workload.graph.node_ids())[:3]
        for node in nodes:
            cache.adjacency(node)
        assert cache.cached_nodes == 2
        assert cache.cache_statistics.evictions == 1
        # The first node was evicted; fetching it again is a miss.
        cache.adjacency(nodes[0])
        assert cache.cache_statistics.adjacency_misses == 4

    def test_invalid_bound_rejected(self, disk_engine):
        with pytest.raises(QueryError):
            CrossQueryExpansionCache(disk_engine.accessor, max_entries=0)

    def test_seed_memoisation(self, disk_engine, workload):
        cache = CrossQueryExpansionCache(disk_engine.accessor)
        query = workload.queries[0]
        seeds = cache.seeds_for(workload.graph, query)
        assert cache.seeds_for(workload.graph, query) is seeds
        stats = cache.cache_statistics
        assert stats.seed_misses == 1 and stats.seed_hits == 1

    def test_clear_drops_state(self, disk_engine, workload):
        cache = CrossQueryExpansionCache(disk_engine.accessor)
        cache.adjacency(next(iter(workload.graph.node_ids())))
        cache.seeds_for(workload.graph, workload.queries[0])
        cache.clear()
        assert cache.cached_nodes == 0 and cache.describe()["cached_seeds"] == 0


class TestQueryService:
    def test_batch_results_identical_to_engine(self, disk_engine, workload):
        requests = mixed_requests(workload)
        expected = []
        for request in requests:
            disk_engine.storage.reset_statistics(clear_buffer=True)
            expected.append(engine_answer(disk_engine, request))
        disk_engine.storage.reset_statistics(clear_buffer=True)
        service = QueryService(disk_engine)
        report = service.run_batch(requests)
        assert [outcome_signature(outcome) for outcome in report] == expected

    def test_batch_uses_strictly_fewer_page_reads(self, disk_engine, workload):
        requests = mixed_requests(workload)
        one_shot = 0
        for request in requests:
            disk_engine.storage.reset_statistics(clear_buffer=True)
            engine_answer(disk_engine, request)
            one_shot += disk_engine.storage.statistics.page_reads
        disk_engine.storage.reset_statistics(clear_buffer=True)
        report = QueryService(disk_engine).run_batch(requests)
        assert 0 < report.page_reads < one_shot

    def test_lsa_flavoured_requests_agree_with_engine(self, disk_engine, workload):
        query = workload.queries[0]
        expected = frozenset(disk_engine.skyline(query, algorithm="lsa").facility_ids())
        outcome = QueryService(disk_engine).execute(SkylineRequest(query, algorithm="lsa"))
        assert outcome_signature(outcome) == expected

    def test_baseline_requests_supported(self, disk_engine, workload):
        query = workload.queries[1]
        service = QueryService(disk_engine)
        skyline = service.execute(SkylineRequest(query, algorithm="baseline"))
        assert outcome_signature(skyline) == frozenset(
            disk_engine.skyline(query, algorithm="baseline").facility_ids()
        )
        top = service.execute(TopKRequest(query, 2, weights=(1.0, 1.0, 1.0), algorithm="baseline"))
        assert len(top.result) == 2

    def test_submit_drain_preserves_order_and_tickets(self, disk_engine, workload):
        service = QueryService(disk_engine)
        tickets = [service.submit(SkylineRequest(query)) for query in workload.queries[:4]]
        assert tickets == [0, 1, 2, 3]
        assert service.pending_count == 4
        outcomes = service.drain()
        assert [outcome.ticket for outcome in outcomes] == tickets
        assert service.pending_count == 0
        assert service.drain() == []

    def test_repeat_request_served_from_memo(self, disk_engine, workload):
        service = QueryService(disk_engine)
        request = SkylineRequest(workload.queries[0])
        first = service.execute(request)
        second = service.execute(request)
        assert not first.served_from_memo and second.served_from_memo
        assert second.io.page_reads == 0 and second.io.total_requests == 0
        assert second.result is first.result

    def test_memoisation_can_be_disabled(self, disk_engine, workload):
        service = QueryService(disk_engine, policy=ExecutionPolicy(memoize_results=False))
        request = SkylineRequest(workload.queries[0])
        service.execute(request)
        second = service.execute(request)
        assert not second.served_from_memo

    def test_cache_keeps_only_records_and_seeds(self, disk_engine, workload):
        # Finished queries leave the records they fetched and their seeds
        # behind and no search state of their own, so replaying a batch adds
        # no entries.
        service = QueryService(disk_engine, policy=ExecutionPolicy(memoize_results=False))
        requests = mixed_requests(workload)
        service.run_batch(requests)
        first = service.cache.describe()
        service.run_batch(requests)
        second = service.cache.describe()
        assert set(second) == {
            "cached_nodes",
            "cached_edges",
            "cached_seeds",
            "hit_rate",
            "evictions",
        }
        for key in ("cached_nodes", "cached_edges", "cached_seeds"):
            assert second[key] == first[key]
        assert first["cached_seeds"] == len({request.location for request in requests})

    def test_foreign_cache_rejected(self, disk_engine, workload):
        other = MCNQueryEngine(workload.graph, workload.facilities)
        cache = CrossQueryExpansionCache(other.accessor)
        with pytest.raises(QueryError):
            QueryService(disk_engine, cache=cache)

    def test_non_request_rejected(self, disk_engine, workload):
        with pytest.raises(QueryError):
            QueryService(disk_engine).submit(workload.queries[0])

    def test_bad_aggregate_rejected_at_submission(self, disk_engine, workload):
        service = QueryService(disk_engine)
        # Wrong arity for a 3-cost network: caught at submit, not mid-drain.
        with pytest.raises(QueryError):
            service.submit(TopKRequest(workload.queries[0], k=2, weights=(0.5,)))
        with pytest.raises(QueryError):
            service.submit(
                TopKRequest(workload.queries[0], k=2, aggregate=lambda costs: -sum(costs))
            )
        assert service.pending_count == 0

    def test_unknown_location_rejected_at_submission(self, disk_engine):
        from repro.errors import LocationError
        from repro.network.location import NetworkLocation

        service = QueryService(disk_engine)
        with pytest.raises(LocationError):
            service.submit(SkylineRequest(NetworkLocation.at_node(10**9)))
        assert service.pending_count == 0

    def test_cache_and_bound_mutually_exclusive(self, disk_engine):
        cache = CrossQueryExpansionCache(disk_engine.accessor)
        with pytest.raises(QueryError):
            QueryService(disk_engine, cache=cache, policy=ExecutionPolicy(max_cached_entries=8))

    def test_batch_report_cache_counters_are_per_batch(self, disk_engine, workload):
        service = QueryService(disk_engine, policy=ExecutionPolicy(memoize_results=False))
        requests = mixed_requests(workload)[:4]
        first = service.run_batch(requests)
        second = service.run_batch(requests)
        # A warm second batch sees only its own counters: every record request
        # hits, so its delta shows no misses and a full hit rate.
        assert first.cache.record_misses > 0
        assert second.cache.record_misses == 0
        assert second.cache.hit_rate() == 1.0

    def test_bounded_cache_still_correct(self, disk_engine, workload):
        requests = mixed_requests(workload)
        expected = [engine_answer(disk_engine, request) for request in requests]
        policy = ExecutionPolicy(max_cached_entries=16, memoize_results=False)
        service = QueryService(disk_engine, policy=policy)
        report = service.run_batch(requests)
        assert [outcome_signature(outcome) for outcome in report] == expected


class TestServiceProperty:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_random_mixed_workloads_match_engine(self, seed):
        graph, facilities = random_mcn(
            num_nodes=40,
            num_edges=70,
            num_cost_types=3,
            num_facilities=18,
            seed=seed,
        )
        engine = MCNQueryEngine(graph, facilities)
        rng = random.Random(seed * 101)
        requests = []
        for index in range(10):
            query = random_query(graph, seed * 1000 + index)
            if rng.random() < 0.5:
                algorithm = rng.choice(("cea", "lsa"))
                requests.append(SkylineRequest(query, algorithm=algorithm))
            else:
                weights = tuple(rng.uniform(0.1, 1.0) for _ in range(3))
                requests.append(TopKRequest(query, rng.randint(1, 5), weights=weights))
        expected = [engine_answer(engine, request) for request in requests]
        service = QueryService(engine)
        report = service.run_batch(requests)
        assert [outcome_signature(outcome) for outcome in report] == expected
