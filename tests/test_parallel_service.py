"""Tests for the sharded parallel service: routing, snapshots, merging, executors."""

from __future__ import annotations

import os
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ExecutionPolicy
from repro.bench.driver import (
    MonitorReplaySpec,
    ReplaySpec,
    build_requests,
    replay_workload,
)
from repro.cli import build_parser
from repro.core.engine import MCNQueryEngine
from repro.datagen import WorkloadSpec, make_workload
from repro.errors import QueryError
from repro.network.accessor import InMemoryAccessor
from repro.parallel import service as parallel_service
from repro.parallel import (
    ShardedBatchReport,
    ShardedQueryService,
    plan_shards,
)
from repro.service import QueryService, SkylineRequest, TopKRequest
from repro.storage.scheme import NetworkStorage


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        WorkloadSpec(num_nodes=200, num_facilities=80, num_cost_types=3, num_queries=24, seed=11)
    )


@pytest.fixture(scope="module")
def storage(workload):
    return NetworkStorage.build(
        workload.graph, workload.facilities, page_size=1024, buffer_fraction=0.01
    )


@pytest.fixture(scope="module")
def engine(workload, storage):
    return MCNQueryEngine(workload.graph, workload.facilities, accessor=storage)


@pytest.fixture(scope="module")
def requests(workload):
    trace = []
    for index, query in enumerate(workload.queries):
        if index % 2 == 0:
            trace.append(SkylineRequest(query))
        else:
            trace.append(TopKRequest(query, k=3, weights=(0.5, 0.3, 0.2)))
    return trace


def _sharded(engine, **fields):
    """A sharded service over ``engine`` configured by the given policy fields."""
    return ShardedQueryService(engine, policy=ExecutionPolicy(**fields))


def result_signature(outcome):
    """Order-sensitive digest of one outcome's answer."""
    result = outcome.result
    return [
        (item.facility_id, getattr(item, "costs", None), getattr(item, "score", None))
        for item in result
    ]


def assert_identical_ordering(report_a, report_b):
    assert len(report_a.outcomes) == len(report_b.outcomes)
    for a, b in zip(report_a.outcomes, report_b.outcomes):
        assert a.ticket == b.ticket
        assert a.request == b.request
        assert result_signature(a) == result_signature(b)


class TestPlanShards:
    def test_round_robin_assignment(self, requests):
        plan = plan_shards(requests, 3)
        assert plan.routing == "round_robin"
        assert [shard.positions for shard in plan.shards] == [
            tuple(range(0, 24, 3)),
            tuple(range(1, 24, 3)),
            tuple(range(2, 24, 3)),
        ]

    def test_all_positions_covered_exactly_once(self, workload, requests):
        for routing in ("round_robin", "locality"):
            plan = plan_shards(requests, 5, routing=routing, graph=workload.graph)
            positions = sorted(p for shard in plan.shards for p in shard.positions)
            assert positions == list(range(len(requests)))

    def test_shards_balanced_within_one(self, workload, requests):
        for routing in ("round_robin", "locality"):
            plan = plan_shards(requests, 5, routing=routing, graph=workload.graph)
            sizes = [len(shard) for shard in plan.shards]
            assert max(sizes) - min(sizes) <= 1

    def test_locality_keeps_shards_contiguous_on_the_curve(self, workload, requests):
        plan = plan_shards(requests, 4, routing="locality", graph=workload.graph)
        # Deterministic per input.
        again = plan_shards(requests, 4, routing="locality", graph=workload.graph)
        assert plan == again

    def test_more_workers_than_requests_drops_empty_shards(self, requests):
        plan = plan_shards(requests[:3], 8)
        assert len(plan.shards) == 3
        assert all(len(shard) == 1 for shard in plan.shards)

    @pytest.mark.parametrize("routing", ["round_robin", "locality"])
    def test_worker_count_beyond_the_batch_allocates_nothing(self, workload, requests, routing):
        # A wire batch policy picks ``workers``; planning three requests must
        # not cost one bucket per requested worker.
        tracemalloc.start()
        try:
            plan = plan_shards(requests[:3], 10**6, routing=routing, graph=workload.graph)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        same = plan_shards(requests[:3], 3, routing=routing, graph=workload.graph)
        assert plan.shards == same.shards

    def test_empty_batch(self, requests):
        assert plan_shards([], 4).shards == ()

    def test_errors(self, workload, requests):
        with pytest.raises(QueryError):
            plan_shards(requests, 0)
        with pytest.raises(QueryError):
            plan_shards(requests, 2, routing="weird")
        with pytest.raises(QueryError):
            plan_shards(requests, 2, routing="locality")  # graph missing


class TestSnapshotViews:
    def test_view_shares_pages_but_owns_buffer(self, storage):
        view_a = storage.snapshot_view()
        view_b = storage.snapshot_view()
        assert view_a.disk is storage.disk
        assert view_a.buffer is not view_b.buffer
        assert view_a.num_cost_types == storage.num_cost_types

    def test_view_reads_do_not_touch_base_counters(self, workload, storage):
        storage.reset_statistics(clear_buffer=True)
        view = storage.snapshot_view()
        node = next(iter(workload.graph.nodes()))
        records = view.adjacency(node.node_id)
        assert records == storage.adjacency(node.node_id)
        # The base's one adjacency() call is the only base-side work.
        assert storage.statistics.adjacency_requests == 1
        assert view.statistics.adjacency_requests == 1
        assert view.statistics.page_reads > 0

    def test_view_buffers_are_independent(self, workload, storage):
        view_a = storage.snapshot_view()
        view_b = storage.snapshot_view()
        node = next(iter(workload.graph.nodes())).node_id
        view_a.adjacency(node)
        cold_reads = view_b.statistics.page_reads
        view_b.adjacency(node)
        # view_b paid its own cold reads; view_a's warm buffer did not help it.
        assert view_b.statistics.page_reads > cold_reads

    def test_view_reset_statistics(self, workload, storage):
        view = storage.snapshot_view()
        view.adjacency(next(iter(workload.graph.nodes())).node_id)
        disk_reads = storage.disk.statistics.page_reads
        view.reset_statistics(clear_buffer=True)
        assert view.statistics.page_reads == 0
        assert view.buffer.resident_pages == 0
        # The disk's physical-read counter is shared with the siblings.
        assert storage.disk.statistics.page_reads == disk_reads > 0

    def test_in_memory_snapshot_view(self, workload):
        accessor = InMemoryAccessor(workload.graph, workload.facilities)
        view = accessor.snapshot_view()
        node = next(iter(workload.graph.nodes())).node_id
        view.adjacency(node)
        assert view.statistics.adjacency_requests == 1
        assert accessor.statistics.adjacency_requests == 0

    def test_engine_accepts_view_as_accessor(self, workload, storage):
        view = storage.snapshot_view()
        engine = MCNQueryEngine(workload.graph, workload.facilities, accessor=view)
        assert engine.accessor is view
        assert engine.storage is view
        result = engine.skyline(workload.queries[0])
        assert len(result) >= 1


class TestShardedQueryService:
    @pytest.fixture(scope="class")
    def sequential_report(self, engine, requests):
        engine.storage.reset_statistics(clear_buffer=True)
        return QueryService(engine).run_batch(requests)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("routing", ["round_robin", "locality"])
    def test_identical_results_and_order(
        self, engine, requests, sequential_report, executor, routing
    ):
        sharded = _sharded(engine, workers=3, routing=routing, executor=executor)
        report = sharded.run_batch(requests)
        assert_identical_ordering(sequential_report, report)

    def test_merged_counters_equal_shard_sums(self, engine, requests):
        report = _sharded(engine, workers=4, executor="thread").run_batch(requests)
        assert report.io.page_reads == sum(s.report.io.page_reads for s in report.shards)
        assert report.io.buffer_hits == sum(s.report.io.buffer_hits for s in report.shards)
        assert report.io.adjacency_requests == sum(
            s.report.io.adjacency_requests for s in report.shards
        )
        assert report.cache.record_hits == sum(s.report.cache.record_hits for s in report.shards)
        assert report.cache.record_misses == sum(
            s.report.cache.record_misses for s in report.shards
        )
        assert len(report.outcomes) == sum(s.size for s in report.shards)

    def test_process_pool_runs_in_distinct_processes(self, engine, requests):
        import os

        report = _sharded(engine, workers=2, executor="process").run_batch(requests)
        pids = {shard.pid for shard in report.shards}
        assert os.getpid() not in pids
        assert len(report.shards) == 2

    @pytest.mark.parametrize(
        "cpus, bound", [(2, 2), (None, 1)], ids=["two-cpus", "cpu-count-unknown"]
    )
    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_pools_are_sized_by_the_machine(
        self, monkeypatch, engine, requests, executor, cpus, bound
    ):
        # A batch may ask for one shard per request; its pool still runs at
        # most one worker per CPU (one when the CPU count is unknown), and
        # each shard its own worker service.
        batch = requests[:6]
        serial = _sharded(engine, workers=6, executor="serial").run_batch(batch)
        threads = set()
        execute = parallel_service._execute_shard

        def spy(service, shard):
            threads.add(threading.get_ident())
            time.sleep(0.02)  # lets an unbounded pool start a worker per shard
            return execute(service, shard)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(parallel_service, "_execute_shard", spy)
        report = _sharded(engine, workers=6, executor=executor).run_batch(batch)
        assert len(report.shards) == 6
        assert_identical_ordering(serial, report)
        assert [s.report.io for s in report.shards] == [s.report.io for s in serial.shards]
        if executor == "process":
            assert len({shard.pid for shard in report.shards}) <= bound
        else:
            assert len(threads) <= bound

    def test_single_worker_is_one_shard(self, engine, requests):
        report = _sharded(engine, workers=1, executor="serial").run_batch(requests)
        assert len(report.shards) == 1
        assert [o.ticket for o in report.outcomes] == list(range(len(requests)))

    def test_empty_batch(self, engine):
        report = _sharded(engine, workers=3, executor="serial").run_batch([])
        assert report.outcomes == [] and report.shards == []
        assert report.page_reads == 0

    def test_describe_includes_parallel_fields(self, engine, requests):
        report = _sharded(engine, workers=2, executor="serial").run_batch(requests)
        summary = report.describe()
        assert summary["workers"] == 2
        assert summary["routing"] == "round_robin"
        assert summary["executor"] == "serial"
        assert sum(summary["shards"]) == len(requests)

    def test_invalid_request_rejected_before_any_work(self, engine, requests):
        sharded = _sharded(engine, workers=2, executor="serial")
        with pytest.raises(QueryError):
            sharded.run_batch(requests + ["not a request"])

    def test_unpicklable_aggregate_rejected_for_process_executor(self, engine, workload):
        trace = [
            TopKRequest(workload.queries[0], k=2, aggregate=lambda costs: sum(costs)),
            TopKRequest(workload.queries[1], k=2, aggregate=lambda costs: max(costs)),
        ]
        sharded = _sharded(engine, workers=2, executor="process")
        with pytest.raises(QueryError, match="pickle"):
            sharded.run_batch(trace)
        # The thread executor handles the same batch fine.
        report = _sharded(engine, workers=2, executor="thread").run_batch(trace)
        assert len(report.outcomes) == 2

    def test_constructor_validation(self, engine):
        with pytest.raises(QueryError):
            _sharded(engine, workers=0)
        with pytest.raises(QueryError):
            _sharded(engine, routing="nearest")
        with pytest.raises(QueryError):
            _sharded(engine, executor="fiber")
        with pytest.raises(QueryError):
            ShardedQueryService(engine, policy=None)  # type: ignore[arg-type]

    def test_memo_stays_per_worker(self, engine, workload):
        # The same request lands on the same round-robin shard twice: the
        # second occurrence must be a memo hit inside that worker.
        request = SkylineRequest(workload.queries[0])
        trace = [request, SkylineRequest(workload.queries[1]), request, SkylineRequest(workload.queries[1])]
        report = _sharded(engine, workers=2, executor="serial").run_batch(trace)
        assert report.memo_hits == 2
        assert_identical = [o.served_from_memo for o in report.outcomes]
        assert assert_identical == [False, False, True, True]


class TestParallelKnob:
    def test_run_batch_parallel_delegates(self, engine, requests):
        service = QueryService(engine)
        sequential = service.run_batch(requests)
        parallel = service.run_batch(
            requests, policy=ExecutionPolicy(workers=2, executor="thread")
        )
        assert isinstance(parallel, ShardedBatchReport)
        assert_identical_ordering(sequential, parallel)

    def test_single_worker_config_stays_sequential(self, engine, requests):
        service = QueryService(engine)
        report = service.run_batch(requests[:4], policy=ExecutionPolicy(workers=1))
        assert not isinstance(report, ShardedBatchReport)


class TestReplayDriverParallel:
    def test_replay_with_workers_adds_sharded_run(self):
        spec = ReplaySpec(
            workload=WorkloadSpec(
                num_nodes=150, num_facilities=60, num_cost_types=2, num_queries=12, seed=5
            ),
            mix="mixed",
            k=3,
            page_size=1024,
            workers=2,
            routing="locality",
            executor="serial",
        )
        report = replay_workload(spec)
        assert report.sharded is not None
        assert report.sharded.queries == 12
        assert report.identical_results
        assert report.counters_consistent
        assert len(report.measurements) == 3

    def test_replay_spec_validation(self):
        with pytest.raises(QueryError):
            ReplaySpec(workers=0)
        with pytest.raises(QueryError):
            ReplaySpec(routing="nope")
        with pytest.raises(QueryError):
            ReplaySpec(executor="nope")

    def test_monitor_replay_spec_validation(self):
        spec = MonitorReplaySpec(workers=2, routing="locality", executor="serial")
        assert (spec.workers, spec.routing, spec.executor) == (2, "locality", "serial")
        with pytest.raises(QueryError):
            MonitorReplaySpec(workers=0)
        with pytest.raises(QueryError):
            MonitorReplaySpec(routing="nope")
        with pytest.raises(QueryError):
            MonitorReplaySpec(executor="nope")


class TestCLIArguments:
    def test_serve_batch_parallel_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve-batch", "--workers", "4", "--routing", "locality", "--executor", "thread"]
        )
        assert args.workers == 4
        assert args.routing == "locality"
        assert args.executor == "thread"

    def test_serve_batch_defaults_sequential(self):
        args = build_parser().parse_args(["serve-batch"])
        assert args.workers == 1
        assert args.routing == "round-robin"
        assert args.executor == "process"


class TestRoutingProperties:
    """Property tests: routing is pure partitioning, merging is pure summation."""

    @settings(max_examples=12, deadline=None)
    @given(
        workers=st.integers(min_value=2, max_value=5),
        subset_seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_locality_routing_never_changes_results(self, engine, requests, workers, subset_seed):
        import random

        rng = random.Random(subset_seed)
        trace = rng.sample(requests, rng.randint(1, len(requests)))
        round_robin = _sharded(
            engine, workers=workers, routing="round_robin", executor="serial"
        ).run_batch(trace)
        locality = _sharded(
            engine, workers=workers, routing="locality", executor="serial"
        ).run_batch(trace)
        assert_identical_ordering(round_robin, locality)

    @settings(max_examples=12, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=6),
        routing=st.sampled_from(["round_robin", "locality"]),
    )
    def test_merged_counters_are_shard_sums(self, engine, requests, workers, routing):
        report = _sharded(
            engine, workers=workers, routing=routing, executor="serial"
        ).run_batch(requests)
        for counter in ("page_reads", "buffer_hits", "adjacency_requests", "facility_requests"):
            assert getattr(report.io, counter) == sum(
                getattr(shard.report.io, counter) for shard in report.shards
            )
        assert report.cache.seed_misses == sum(
            shard.report.cache.seed_misses for shard in report.shards
        )
