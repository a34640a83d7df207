"""Differential oracle: every execution path must agree on every answer.

The repo now has five ways to answer the same preference query — one-shot
LSA, one-shot CEA, the straightforward baseline, the sequential batch
service and the sharded parallel service — plus an independent brute-force
oracle (plain Dijkstra per cost type, in ``tests/helpers``).  Caching layers
and parallel sharding are exactly the kinds of change that corrupt results
silently, so this suite cross-checks all paths against each other (and the
oracle) on seeded random networks over varied dimensions, aggregates and
buffer sizes.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy
from repro.core.aggregates import MaxCost, WeightedLpNorm, WeightedSum
from repro.core.engine import MCNQueryEngine
from repro.datagen import (
    CostDistribution,
    UpdateStreamSpec,
    WorkloadSpec,
    make_update_stream,
    make_workload,
)
from repro.monitor import MonitoringService
from repro.network.facilities import FacilitySet
from repro.parallel import ShardedQueryService
from repro.service import QueryService, SkylineRequest, TopKRequest
from repro.storage.scheme import NetworkStorage
from tests.helpers import exact_skyline, exact_top_k, facility_vectors

# Varied dimensions, aggregate families, buffer sizes and facility layouts:
# each configuration exercises a different corner of the shared machinery.
CONFIGS = [
    pytest.param(
        dict(dims=2, buffer=0.0, aggregate="weights", clustered=True, seed=3),
        id="d2-nobuffer-weights",
    ),
    pytest.param(
        dict(dims=3, buffer=0.01, aggregate="lp-norm", clustered=False, seed=17),
        id="d3-buffer1pct-lpnorm",
    ),
    pytest.param(
        dict(dims=4, buffer=0.02, aggregate="max-cost", clustered=True, seed=29),
        id="d4-buffer2pct-maxcost",
    ),
]

K = 4


def make_aggregate(kind: str, dims: int):
    if kind == "weights":
        return WeightedSum(tuple((i + 1.0) / dims for i in range(dims)))
    if kind == "lp-norm":
        return WeightedLpNorm(tuple(1.0 for _ in range(dims)), p=2.0)
    return MaxCost(tuple(0.5 + 0.1 * i for i in range(dims)))


def build_case(config):
    workload = make_workload(
        WorkloadSpec(
            num_nodes=150,
            num_facilities=60,
            num_cost_types=config["dims"],
            distribution=CostDistribution.ANTI_CORRELATED,
            clustered=config["clustered"],
            num_queries=8,
            seed=config["seed"],
        )
    )
    storage = NetworkStorage.build(
        workload.graph,
        workload.facilities,
        page_size=1024,
        buffer_fraction=config["buffer"],
    )
    engine = MCNQueryEngine(workload.graph, workload.facilities, accessor=storage)
    aggregate = make_aggregate(config["aggregate"], config["dims"])
    requests = []
    for index, query in enumerate(workload.queries):
        if index % 2 == 0:
            requests.append(SkylineRequest(query))
        else:
            requests.append(TopKRequest(query, k=K, aggregate=aggregate))
    return workload, engine, aggregate, requests


def skyline_ids(result):
    return result.facility_ids()


def topk_signature(result):
    return [(item.facility_id, round(item.score, 6)) for item in result]


@pytest.fixture(scope="module", params=CONFIGS)
def case(request):
    return build_case(request.param)


class TestDifferentialOracle:
    def test_all_paths_agree_on_every_query(self, case):
        workload, engine, aggregate, requests = case

        # Path 1-3: one-shot engine calls, one algorithm at a time.
        one_shot = {"lsa": [], "cea": [], "baseline": []}
        for request in requests:
            for algorithm in one_shot:
                if isinstance(request, SkylineRequest):
                    result = engine.skyline(request.location, algorithm=algorithm)
                else:
                    result = engine.top_k(
                        request.location, request.k, aggregate=request.aggregate, algorithm=algorithm
                    )
                one_shot[algorithm].append(result)

        # Path 4: the sequential batch service (shared cross-query cache).
        batched = QueryService(engine).run_batch(requests)

        # Path 5: the sharded parallel service, both executors and routings.
        sharded_runs = [
            ShardedQueryService(
                engine, policy=ExecutionPolicy(workers=3, routing=routing, executor=executor)
            ).run_batch(requests)
            for routing in ("round_robin", "locality")
            for executor in ("serial", "thread")
        ]

        for position, request in enumerate(requests):
            service_results = [batched.outcomes[position].result] + [
                run.outcomes[position].result for run in sharded_runs
            ]
            vectors = facility_vectors(workload.graph, workload.facilities, request.location)
            if isinstance(request, SkylineRequest):
                oracle = exact_skyline(vectors)
                for path in ("lsa", "cea", "baseline"):
                    assert skyline_ids(one_shot[path][position]) == oracle, path
                for result in service_results:
                    assert skyline_ids(result) == oracle
                # Every cost component any path did compute must match the
                # oracle's independent Dijkstra distances.
                for result in [one_shot[p][position] for p in one_shot] + service_results:
                    for facility in result:
                        for computed, truth in zip(facility.costs, vectors[facility.facility_id]):
                            if computed is not None:
                                assert computed == pytest.approx(truth, abs=1e-6)
            else:
                oracle = exact_top_k(vectors, aggregate, request.k)
                oracle_scores = [round(score, 6) for _fid, score in oracle]
                reference = topk_signature(one_shot["cea"][position])
                assert [score for _fid, score in reference] == oracle_scores
                for path in ("lsa", "baseline"):
                    assert topk_signature(one_shot[path][position]) == reference, path
                for result in service_results:
                    assert topk_signature(result) == reference

    def test_results_independent_of_buffer_size(self, case):
        """The same trace against 0%-buffer storage answers identically."""
        workload, _engine, _aggregate, requests = case
        cold_storage = NetworkStorage.build(
            workload.graph, workload.facilities, page_size=1024, buffer_fraction=0.0
        )
        cold_engine = MCNQueryEngine(workload.graph, workload.facilities, accessor=cold_storage)
        report = QueryService(cold_engine).run_batch(requests)
        sharded = ShardedQueryService(
            cold_engine, policy=ExecutionPolicy(workers=2, executor="serial")
        ).run_batch(requests)
        for outcome_a, outcome_b in zip(report.outcomes, sharded.outcomes):
            if isinstance(outcome_a.request, SkylineRequest):
                assert skyline_ids(outcome_a.result) == skyline_ids(outcome_b.result)
            else:
                assert topk_signature(outcome_a.result) == topk_signature(outcome_b.result)

    def test_maintenance_matches_recompute_oracle_on_update_stream(self, case):
        """The maintenance differential oracle: drive a random update stream
        through the MonitoringService and assert that after *every* tick,
        every subscription's maintained result equals a fresh brute-force
        Dijkstra recompute over the mutated facility set — across the same
        dims / aggregates / layouts as the one-shot oracle above."""
        workload, _engine, aggregate, requests = case
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        service = MonitoringService(workload.graph, facilities)
        sids = [service.subscribe(request) for request in requests[:4]]
        stream = make_update_stream(
            workload.graph,
            workload.facilities,
            UpdateStreamSpec(num_ticks=10, updates_per_tick=5, seed=61),
            subscription_ids=sids,
        )
        for tick in stream:
            service.apply_tick(tick)
            for sid in sids:
                maintainer = service.maintainer_of(sid)
                vectors = facility_vectors(workload.graph, facilities, maintainer.query)
                if isinstance(service.request_of(sid), SkylineRequest):
                    assert maintainer.skyline_ids() == exact_skyline(vectors)
                    truth_vectors = {
                        fid: pytest.approx(vectors[fid], abs=1e-6)
                        for fid in maintainer.skyline_ids()
                    }
                    assert maintainer.skyline == truth_vectors
                else:
                    oracle = exact_top_k(vectors, aggregate, K)
                    assert [round(s, 6) for _f, s in maintainer.ranking()] == [
                        round(s, 6) for _f, s in oracle
                    ]

    def test_maintenance_oracle_200_update_stream_with_majority_incremental(self):
        """The PR's acceptance criterion: a 200-update random stream, every
        post-tick result identical to brute force, and the counters showing
        the cheap incremental path handled the majority of inserts and
        irrelevant deletes."""
        workload = make_workload(
            WorkloadSpec(
                num_nodes=200,
                num_facilities=80,
                num_cost_types=3,
                clustered=True,
                num_queries=6,
                seed=47,
            )
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        service = MonitoringService(workload.graph, facilities)
        aggregate = WeightedSum((0.5, 0.3, 0.2))
        requests = []
        for index, query in enumerate(workload.queries):
            if index % 2 == 0:
                requests.append(SkylineRequest(query))
            else:
                requests.append(TopKRequest(query, k=4, aggregate=aggregate))
        sids = [service.subscribe(request) for request in requests]
        baseline = service.statistics  # subscribe-time recomputations excluded below
        stream = make_update_stream(
            workload.graph,
            workload.facilities,
            UpdateStreamSpec(num_ticks=40, updates_per_tick=5, seed=48),
            subscription_ids=sids,
        )
        assert stream.num_updates == 200
        for tick in stream:
            service.apply_tick(tick)
            for sid, request in zip(sids, requests):
                maintainer = service.maintainer_of(sid)
                vectors = facility_vectors(workload.graph, facilities, maintainer.query)
                if isinstance(request, SkylineRequest):
                    assert maintainer.skyline_ids() == exact_skyline(vectors)
                else:
                    oracle = exact_top_k(vectors, aggregate, 4)
                    assert [round(s, 6) for _f, s in maintainer.ranking()] == [
                        round(s, 6) for _f, s in oracle
                    ]
        stats = service.statistics.since(baseline)
        counts = stream.counts_by_kind()
        # Every insert and every irrelevant delete must have taken the cheap
        # path; together they dominate the stream, so incremental updates
        # outnumber fallback recomputations by construction *and* by count.
        assert stats.incremental_updates > stats.recomputations
        cheap_per_subscription = stats.incremental_updates / len(sids)
        assert cheap_per_subscription >= counts["insert"] * 0.9

    def test_sharded_matches_sequential_on_mixed_100_query_workload(self):
        """The PR's acceptance criterion: >= 2 workers, 100 mixed queries,
        byte-identical results (same facilities, same order) to the
        sequential service."""
        workload = make_workload(
            WorkloadSpec(
                num_nodes=250,
                num_facilities=100,
                num_cost_types=3,
                clustered=True,
                num_queries=100,
                seed=13,
            )
        )
        storage = NetworkStorage.build(
            workload.graph, workload.facilities, page_size=1024, buffer_fraction=0.01
        )
        engine = MCNQueryEngine(workload.graph, workload.facilities, accessor=storage)
        requests = []
        for index, query in enumerate(workload.queries):
            if index % 2 == 0:
                requests.append(SkylineRequest(query))
            else:
                requests.append(TopKRequest(query, k=4, weights=(0.5, 0.3, 0.2)))
        sequential = QueryService(engine).run_batch(requests)
        sharded = ShardedQueryService(
            engine, policy=ExecutionPolicy(workers=3, routing="locality", executor="thread")
        ).run_batch(requests)
        assert len(sequential.outcomes) == len(sharded.outcomes) == 100
        for a, b in zip(sequential.outcomes, sharded.outcomes):
            assert a.ticket == b.ticket
            assert a.request == b.request
            if isinstance(a.request, SkylineRequest):
                assert [f.facility_id for f in a.result] == [f.facility_id for f in b.result]
                assert [f.costs for f in a.result] == [f.costs for f in b.result]
            else:
                assert [f.facility_id for f in a.result] == [f.facility_id for f in b.result]
                assert [f.score for f in a.result] == [f.score for f in b.result]
