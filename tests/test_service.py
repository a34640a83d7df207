"""Tests for the batch query service and its cross-query expansion cache."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.api import ExecutionPolicy
from repro.core.engine import MCNQueryEngine
from repro.core.kernel import ExpansionKernel
from repro.datagen.workload import WorkloadSpec, make_workload
from repro.errors import QueryError
from repro.service import (
    CacheStatistics,
    CrossQueryExpansionCache,
    QueryService,
    SkylineRequest,
    TopKRequest,
)
from repro.serve.payloads import result_to_payload
from repro.service.cache import SharedCacheChargeLayer
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


class TestFoldedCacheCharges:
    """An unbounded cache over an in-memory base is charged once per kernel
    call; a bounded one per settle.  Neither may change a counter."""

    def stream(self, workload):
        requests = mixed_requests(workload)
        # A baseline read runs the record path over adjacency entries the
        # kernel filled; an LSA top-k and a repeat read warm entries again.
        requests.insert(3, SkylineRequest(workload.queries[0], algorithm="baseline"))
        requests.insert(6, TopKRequest(workload.queries[2], 2, algorithm="lsa"))
        requests.append(requests[1])
        return requests

    @staticmethod
    def answer(outcome):
        statistics = dataclasses.replace(outcome.result.statistics, elapsed_seconds=0.0)
        return result_to_payload(outcome.result), statistics, outcome.io

    def test_unbounded_and_bounded_caches_charge_alike(self, workload, monkeypatch):
        engine = MCNQueryEngine(workload.graph, workload.facilities)
        policy = ExecutionPolicy(memoize_results=False)
        folded = QueryService(engine, policy=policy)
        # Bounded above every store's size, so it never evicts: only the
        # charge path differs.
        bound = workload.graph.num_nodes + workload.graph.num_edges
        synchronous = QueryService(engine, policy=policy.replace(max_cached_entries=bound))
        inside: list[ExpansionKernel] = []
        noted: list[CrossQueryExpansionCache] = []
        next_facility = ExpansionKernel.next_facility
        note_adjacency = SharedCacheChargeLayer.note_adjacency

        def spy_next_facility(kernel):
            inside.append(kernel)
            try:
                return next_facility(kernel)
            finally:
                inside.pop()

        def spy_note_adjacency(layer, node_idx):
            if inside:
                noted.append(layer._cache)
            return note_adjacency(layer, node_idx)

        monkeypatch.setattr(ExpansionKernel, "next_facility", spy_next_facility)
        monkeypatch.setattr(SharedCacheChargeLayer, "note_adjacency", spy_note_adjacency)
        for request in self.stream(workload):
            lived = folded.execute(request)
            reference = synchronous.execute(request)
            assert self.answer(lived) == self.answer(reference)
            assert folded.cache_statistics == synchronous.cache_statistics
        assert folded.cache_statistics.adjacency_hits > 0
        assert folded.cache_statistics.evictions == 0
        assert not [cache for cache in noted if cache is folded.cache]
        assert [cache for cache in noted if cache is synchronous.cache]

    def test_a_full_store_charges_like_a_synchronous_cache(self, workload, monkeypatch):
        """A baseline read fills the adjacency store; every kernel call after
        it is charged without a probe, and no counter may tell."""
        assert workload.graph.is_connected()
        engine = MCNQueryEngine(workload.graph, workload.facilities)
        policy = ExecutionPolicy(memoize_results=False)
        folded = QueryService(engine, policy=policy)
        bound = workload.graph.num_nodes + workload.graph.num_edges
        synchronous = QueryService(engine, policy=policy.replace(max_cached_entries=bound))
        requests = mixed_requests(workload)
        # Its record path expands the whole connected network through the
        # cache, so the store holds every node from the next request on.
        requests.insert(3, SkylineRequest(workload.queries[5], algorithm="baseline"))
        full_at_charge: list[bool] = []
        note_settled = SharedCacheChargeLayer.note_settled

        def spy_note_settled(layer, node_indices):
            full_at_charge.append(len(layer._cache._adjacency) == layer.compiled.num_nodes)
            return note_settled(layer, node_indices)

        monkeypatch.setattr(SharedCacheChargeLayer, "note_settled", spy_note_settled)
        for index, request in enumerate(requests):
            assert (folded.cache.cached_nodes == workload.graph.num_nodes) == (index > 3)
            lived = folded.execute(request)
            reference = synchronous.execute(request)
            assert self.answer(lived) == self.answer(reference)
            assert folded.cache_statistics == synchronous.cache_statistics
        assert True in full_at_charge and False in full_at_charge
        assert synchronous.cache.cached_nodes == workload.graph.num_nodes
        assert folded.cache_statistics.evictions == 0


class TestNoteSettled:
    """The exit hook of an unbounded cache over an in-memory base."""

    def test_a_full_store_counts_hits_and_one_missing_entry_is_probed(self, workload):
        engine = MCNQueryEngine(workload.graph, workload.facilities)
        compiled = engine.compiled_graph
        cache = CrossQueryExpansionCache(engine.accessor)
        layer = cache.kernel_charge_layer(compiled)
        assert layer.exit_charge() == layer.note_settled
        layer.note_settled(list(range(compiled.num_nodes)))
        assert cache.cached_nodes == compiled.num_nodes
        settled = list(range(0, compiled.num_nodes, 7))

        def charge():
            stats = cache.cache_statistics.snapshot()
            requests = cache.statistics.adjacency_requests
            layer.note_settled(settled)
            return (
                cache.cache_statistics.since(stats),
                cache.statistics.adjacency_requests - requests,
            )

        assert charge() == (CacheStatistics(adjacency_hits=len(settled)), 0)
        missing = compiled.node_ids[settled[2]]
        del cache._adjacency[missing]
        assert charge() == (
            CacheStatistics(adjacency_hits=len(settled) - 1, adjacency_misses=1),
            1,
        )
        assert missing in cache._adjacency
        assert cache.cached_nodes == compiled.num_nodes


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
