"""Session facade: equivalence with the direct stacks, caching, policies."""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MCNQueryEngine
from repro.api import (
    COMPILED_ENV_VAR,
    DEFAULT_POLICY,
    BatchResponse,
    ExecutionPolicy,
    Response,
    Session,
)
from repro.datagen import UpdateStreamSpec, WorkloadSpec, make_update_stream, make_workload
from repro.errors import PolicyError, QueryError
from repro.monitor import MonitoringService, delta_report_to_payload
from repro.network.accessor import InMemoryAccessor
from repro.network.facilities import FacilitySet
from repro.parallel import ShardedQueryService
from repro.service import QueryService, SkylineRequest, TopKRequest
from repro.storage import NetworkStorage

_WORKLOAD = make_workload(
    WorkloadSpec(
        num_nodes=220,
        num_facilities=80,
        num_cost_types=3,
        num_queries=6,
        seed=23,
    )
)


def _requests(k: int = 3):
    weights = (0.5, 0.3, 0.2)
    return [
        SkylineRequest(query)
        if index % 2 == 0
        else TopKRequest(query, k, weights=weights)
        for index, query in enumerate(_WORKLOAD.queries)
    ]


def _signature(item):
    if isinstance(item.request, SkylineRequest):
        return [(member.facility_id, member.costs) for member in item.result]
    return [(member.facility_id, member.score) for member in item.result]


def _direct_report(policy: ExecutionPolicy, requests):
    """The pre-facade path: hand-built engine + direct service construction."""
    storage = None
    if policy.residency == "disk":
        storage = NetworkStorage.build(
            _WORKLOAD.graph,
            _WORKLOAD.facilities,
            page_size=policy.page_size,
            buffer_fraction=policy.buffer_fraction,
        )
    engine = MCNQueryEngine(
        _WORKLOAD.graph,
        _WORKLOAD.facilities,
        accessor=storage,
        compiled=policy.resolved_compiled(),
    )
    if policy.workers > 1:
        return ShardedQueryService(engine, policy=policy).run_batch(requests)
    return QueryService(engine, policy=policy.replace(workers=1)).run_batch(requests)


class _NoSnapshotAccessor:
    """An in-process accessor without snapshot support (delegates otherwise)."""

    def __init__(self, inner: InMemoryAccessor):
        self._inner = inner

    def __getattr__(self, name: str):
        if name == "snapshot_view":
            raise AttributeError(name)
        return getattr(self._inner, name)


class TestSessionConstruction:
    def test_mismatched_facility_set_rejected(self):
        other = make_workload(WorkloadSpec(num_nodes=120, num_facilities=40, seed=1))
        with pytest.raises(QueryError):
            Session(_WORKLOAD.graph, other.facilities)

    def test_storage_and_accessor_conflict(self):
        accessor = InMemoryAccessor(_WORKLOAD.graph, _WORKLOAD.facilities)
        session = Session(
            _WORKLOAD.graph, _WORKLOAD.facilities, policy=ExecutionPolicy(residency="disk")
        )
        storage = session.storage_for()
        with pytest.raises(PolicyError):
            Session(
                _WORKLOAD.graph, _WORKLOAD.facilities, storage=storage, accessor=accessor
            )

    def test_non_policy_rejected(self):
        with pytest.raises(PolicyError):
            Session(_WORKLOAD.graph, _WORKLOAD.facilities, policy={"workers": 2})  # type: ignore[arg-type]

    def test_parallel_over_unsnapshotable_accessor_rejected_at_construction(self):
        accessor = _NoSnapshotAccessor(
            InMemoryAccessor(_WORKLOAD.graph, _WORKLOAD.facilities)
        )
        with pytest.raises(PolicyError, match="snapshot"):
            Session(
                _WORKLOAD.graph,
                _WORKLOAD.facilities,
                accessor=accessor,
                policy=ExecutionPolicy(workers=2),
            )

    def test_parallel_override_over_unsnapshotable_accessor_rejected_before_running(self):
        accessor = _NoSnapshotAccessor(
            InMemoryAccessor(_WORKLOAD.graph, _WORKLOAD.facilities)
        )
        # compiled="off": arbitrary accessors have no columnar compilation.
        plain = ExecutionPolicy(compiled="off")
        session = Session(
            _WORKLOAD.graph, _WORKLOAD.facilities, accessor=accessor, policy=plain
        )
        # Sequential execution over the plain accessor is fine...
        assert len(session.run_batch(_requests()[:2])) == 2
        # ...but a parallel override is rejected at policy resolution, not
        # somewhere in the middle of the batch.
        with pytest.raises(PolicyError, match="workers=2"):
            session.run_batch(_requests(), policy=plain.replace(workers=2))

    def test_disk_residency_over_in_memory_accessor_rejected(self):
        accessor = InMemoryAccessor(_WORKLOAD.graph, _WORKLOAD.facilities)
        with pytest.raises(PolicyError, match="residency"):
            Session(
                _WORKLOAD.graph,
                _WORKLOAD.facilities,
                accessor=accessor,
                policy=ExecutionPolicy(residency="disk"),
            )


class TestSessionCaching:
    def test_engine_reused_per_policy(self):
        session = Session(_WORKLOAD.graph, _WORKLOAD.facilities)
        assert session.engine_for() is session.engine_for()

    def test_distinct_engines_per_residency(self):
        session = Session(_WORKLOAD.graph, _WORKLOAD.facilities)
        memory = session.engine_for()
        disk = session.engine_for(ExecutionPolicy(residency="disk"))
        assert memory is not disk
        assert disk.storage is not None and memory.storage is None

    def test_storage_shared_across_compiled_modes(self):
        session = Session(
            _WORKLOAD.graph, _WORKLOAD.facilities, policy=ExecutionPolicy(residency="disk")
        )
        plain = session.engine_for(ExecutionPolicy(residency="disk", compiled="off"))
        fast = session.engine_for(ExecutionPolicy(residency="disk", compiled="on"))
        assert plain is not fast
        assert plain.storage is fast.storage
        assert fast.compiled_graph is not None and plain.compiled_graph is None

    def test_storage_keyed_by_page_knobs(self):
        session = Session(
            _WORKLOAD.graph, _WORKLOAD.facilities, policy=ExecutionPolicy(residency="disk")
        )
        default = session.storage_for()
        small = session.storage_for(ExecutionPolicy(residency="disk", page_size=1024))
        assert default is not small
        assert session.storage_for() is default

    def test_memory_policy_has_no_storage(self):
        session = Session(_WORKLOAD.graph, _WORKLOAD.facilities)
        assert session.storage_for() is None

    def test_explicit_storage_backs_disk_policies(self):
        builder = Session(
            _WORKLOAD.graph, _WORKLOAD.facilities, policy=ExecutionPolicy(residency="disk")
        )
        storage = builder.storage_for()
        session = Session(
            _WORKLOAD.graph,
            _WORKLOAD.facilities,
            storage=storage,
            policy=ExecutionPolicy(residency="disk"),
        )
        assert session.storage_for() is storage
        assert session.engine_for().storage is storage

    def test_auto_compiled_resolves_at_call_time(self, monkeypatch):
        session = Session(_WORKLOAD.graph, _WORKLOAD.facilities)
        monkeypatch.delenv(COMPILED_ENV_VAR, raising=False)
        plain = session.engine_for()
        assert plain.compiled_graph is None
        monkeypatch.setenv(COMPILED_ENV_VAR, "1")
        fast = session.engine_for()
        assert fast is not plain and fast.compiled_graph is not None


class TestSessionQuery:
    def test_query_matches_engine(self):
        session = Session(_WORKLOAD.graph, _WORKLOAD.facilities)
        engine = MCNQueryEngine(_WORKLOAD.graph, _WORKLOAD.facilities)
        for request in _requests():
            response = session.query(request)
            assert isinstance(response, Response)
            if isinstance(request, SkylineRequest):
                expected = engine.skyline(request.location)
            else:
                expected = engine.top_k(request.location, request.k, weights=request.weights)
            assert _signature(response) == _signature(
                type("O", (), {"request": request, "result": expected})()
            )

    def test_response_envelope(self):
        session = Session(_WORKLOAD.graph, _WORKLOAD.facilities)
        response = session.skyline(_WORKLOAD.queries[0])
        assert response.kind == "skyline"
        assert len(response) == len(response.result)
        assert list(iter(response)) == list(iter(response.result))
        assert response.policy == session.policy
        topk = session.top_k(_WORKLOAD.queries[0], 2, weights=(0.5, 0.3, 0.2))
        assert topk.kind == "topk" and len(topk) == 2

    def test_policy_algorithm_drives_convenience_builders(self):
        session = Session(
            _WORKLOAD.graph, _WORKLOAD.facilities, policy=ExecutionPolicy(algorithm="baseline")
        )
        response = session.skyline(_WORKLOAD.queries[0])
        assert response.request.algorithm == "baseline"
        cea = Session(_WORKLOAD.graph, _WORKLOAD.facilities).skyline(_WORKLOAD.queries[0])
        assert sorted(f for f, _ in _signature(response)) == sorted(
            f for f, _ in _signature(cea)
        )

    def test_memoization_follows_the_policy(self):
        session = Session(_WORKLOAD.graph, _WORKLOAD.facilities)
        request = SkylineRequest(_WORKLOAD.queries[0])
        assert session.query(request).served_from_memo is False
        assert session.query(request).served_from_memo is True
        no_memo = ExecutionPolicy(memoize_results=False)
        assert session.query(request, policy=no_memo).served_from_memo is False
        assert session.query(request, policy=no_memo).served_from_memo is False

    def test_invalid_request_raises_before_execution(self):
        session = Session(_WORKLOAD.graph, _WORKLOAD.facilities)
        with pytest.raises(QueryError):
            session.top_k(_WORKLOAD.queries[0], 2, weights=(0.5, 0.5))  # arity


class TestSessionBatchEquivalence:
    def test_sequential_disk_batch_is_bit_identical_to_query_service(self):
        policy = ExecutionPolicy(residency="disk", compiled="off", page_size=2048)
        requests = _requests()
        response = Session(
            _WORKLOAD.graph, _WORKLOAD.facilities, policy=policy
        ).run_batch(requests)
        report = _direct_report(policy, requests)
        assert [_signature(r) for r in response] == [_signature(o) for o in report.outcomes]
        assert response.io == report.io
        assert response.cache == report.cache
        assert [r.io for r in response] == [o.io for o in report.outcomes]

    def test_sharded_batch_matches_sequential_results(self):
        requests = _requests()
        session = Session(_WORKLOAD.graph, _WORKLOAD.facilities)
        sequential = session.run_batch(requests)
        sharded = session.run_batch(
            requests, policy=ExecutionPolicy(workers=3, executor="serial")
        )
        assert [_signature(r) for r in sequential] == [_signature(r) for r in sharded]
        assert sharded.sharded and not sequential.sharded
        assert sum(sharded.shard_sizes) == len(requests)

    def test_shard_io_sums_to_the_merged_counters(self):
        requests = _requests()
        session = Session(
            _WORKLOAD.graph, _WORKLOAD.facilities, policy=ExecutionPolicy(residency="disk")
        )
        batch = session.run_batch(
            requests, policy=ExecutionPolicy(residency="disk", workers=2, executor="serial")
        )
        assert len(batch.shard_io) == len(batch.shard_sizes) == 2
        assert batch.io.page_reads == sum(io.page_reads for io in batch.shard_io)
        assert batch.io.total_requests == sum(io.total_requests for io in batch.shard_io)

    def test_batch_response_describe(self):
        session = Session(_WORKLOAD.graph, _WORKLOAD.facilities)
        batch = session.run_batch(_requests()[:2])
        summary = batch.describe()
        assert summary["queries"] == 2
        assert "cache_hit_rate" in summary and "shards" not in summary
        sharded = session.run_batch(
            _requests(), policy=ExecutionPolicy(workers=2, executor="serial")
        )
        assert sharded.describe()["shards"] == list(sharded.shard_sizes)

    @settings(max_examples=10, deadline=None)
    @given(
        residency=st.sampled_from(["memory", "disk"]),
        compiled=st.sampled_from(["on", "off"]),
        workers=st.sampled_from([1, 2, 3]),
        executor=st.sampled_from(["serial", "thread", "process"]),
        routing=st.sampled_from(["round_robin", "locality"]),
        memoize=st.booleans(),
    )
    def test_session_batches_match_direct_paths(
        self, residency, compiled, workers, executor, routing, memoize
    ):
        """Results AND counter totals are identical to the pre-facade paths
        across random policies (disk/memory x compiled on/off x
        serial/thread/fork)."""
        policy = ExecutionPolicy(
            residency=residency,
            compiled=compiled,
            workers=workers,
            executor=executor,
            routing=routing,
            memoize_results=memoize,
            page_size=2048,
        )
        requests = _requests()
        response = Session(
            _WORKLOAD.graph, _WORKLOAD.facilities, policy=policy
        ).run_batch(requests)
        report = _direct_report(policy, requests)
        assert isinstance(response, BatchResponse)
        assert [_signature(r) for r in response] == [
            _signature(o) for o in report.outcomes
        ]
        assert response.io == report.io
        assert response.cache == report.cache


class TestSessionMonitor:
    def _stream(self, subscription_ids):
        return make_update_stream(
            _WORKLOAD.graph,
            _WORKLOAD.facilities,
            UpdateStreamSpec(num_ticks=4, updates_per_tick=4, seed=9),
            subscription_ids=list(subscription_ids),
        )

    def test_handle_matches_direct_monitoring_service(self):
        requests = _requests()[:4]
        session_facilities = FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities))
        direct_facilities = FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities))
        session = Session(_WORKLOAD.graph, session_facilities)
        handle = session.monitor(requests)
        direct = MonitoringService(
            _WORKLOAD.graph, direct_facilities, policy=ExecutionPolicy()
        )
        direct_sids = [direct.subscribe(request) for request in requests]
        for tick in self._stream(handle.subscription_ids):
            response = handle.tick(tick)
            report = direct.apply_tick(tick)
            assert [delta_report_to_payload(d) for d in response.deltas] == [
                delta_report_to_payload(d) for d in report.deltas
            ]
            for sid, direct_sid in zip(handle.subscription_ids, direct_sids):
                assert handle.result_signature(sid) == direct.result_signature(direct_sid)

    def test_monitor_calls_share_one_service(self):
        session = Session(_WORKLOAD.graph, FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities)))
        first = session.monitor(_requests()[:1])
        second = session.monitor(_requests()[1:2])
        assert first.service is second.service
        assert set(first.subscription_ids).isdisjoint(second.subscription_ids)

    def test_conflicting_monitor_policy_rejected(self):
        session = Session(_WORKLOAD.graph, FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities)))
        session.monitor(_requests()[:1])
        with pytest.raises(PolicyError, match="monitor"):
            session.monitor(
                _requests()[1:2], policy=ExecutionPolicy(shard_fallback_threshold=2)
            )

    def test_unsubscribe_updates_the_handle(self):
        session = Session(_WORKLOAD.graph, FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities)))
        handle = session.monitor(_requests()[:2])
        first, second = handle.subscription_ids
        handle.unsubscribe(first)
        assert handle.subscription_ids == (second,)


class TestServicePolicies:
    """The three services take their whole configuration as one policy."""

    def _engine(self):
        return MCNQueryEngine(_WORKLOAD.graph, _WORKLOAD.facilities)

    def test_query_service_policy_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = QueryService(
                self._engine(), policy=ExecutionPolicy(memoize_results=False)
            )
        assert service.memoize_results is False

    def test_run_batch_rejects_sequential_caching_override(self):
        # A workers=1 override runs through THIS service's cache, so a
        # conflicting caching knob must refuse rather than be ignored.
        service = QueryService(self._engine())
        with pytest.raises(PolicyError, match="caching"):
            service.run_batch(
                _requests()[:2], policy=ExecutionPolicy(memoize_results=False)
            )
        # The service's own configuration is an acceptable no-op override.
        report = service.run_batch(_requests()[:2], policy=service.policy)
        assert len(report.outcomes) == 2

    def test_run_batch_policy_override_shards(self):
        service = QueryService(self._engine())
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            report = service.run_batch(
                _requests(), policy=ExecutionPolicy(workers=2, executor="serial")
            )
        assert [shard.size for shard in report.shards] == [3, 3]

    def test_sharded_policy_path_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sharded = ShardedQueryService(
                self._engine(), policy=ExecutionPolicy(workers=3, executor="serial")
            )
        assert sharded.policy.workers == 3

    def test_monitoring_policy_path_is_silent(self):
        facilities = FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            service = MonitoringService(
                _WORKLOAD.graph, facilities, policy=ExecutionPolicy(compiled="off")
            )
        assert service.policy.compiled == "off"

    def test_bare_constructors_take_default_policy(self):
        facilities = FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities))
        assert QueryService(self._engine()).policy == DEFAULT_POLICY
        assert MonitoringService(_WORKLOAD.graph, facilities).policy == DEFAULT_POLICY

    def test_sharded_requires_policy(self):
        # A bare ShardedQueryService used to mean two process workers; the
        # worker count and executor are now always stated by a policy.
        with pytest.raises(TypeError, match="policy"):
            ShardedQueryService(self._engine())  # type: ignore[call-arg]

    # The pre-policy keyword knobs are gone: each one fails loudly rather
    # than being folded into a policy or silently ignored.
    @pytest.mark.parametrize(
        "kwarg, value",
        [("memoize_results", False), ("harvest_settled", False), ("max_cached_entries", 8)],
    )
    def test_query_service_legacy_kwargs_rejected(self, kwarg, value):
        with pytest.raises(TypeError, match=kwarg):
            QueryService(self._engine(), **{kwarg: value})

    @pytest.mark.parametrize(
        "kwarg, value",
        [
            ("workers", 3),
            ("routing", "locality"),
            ("executor", "serial"),
            ("memoize_results", False),
            ("harvest_settled", False),
            ("max_cached_entries", 8),
        ],
    )
    def test_sharded_legacy_kwargs_rejected(self, kwarg, value):
        policy = ExecutionPolicy(workers=2, executor="serial")
        with pytest.raises(TypeError, match=kwarg):
            ShardedQueryService(self._engine(), policy=policy, **{kwarg: value})

    @pytest.mark.parametrize(
        "kwarg, value",
        [
            ("parallel", ExecutionPolicy(workers=2, executor="serial")),
            ("shard_fallback_threshold", 2),
            ("compiled", False),
        ],
        ids=["parallel", "shard_fallback_threshold", "compiled"],
    )
    def test_monitoring_legacy_kwargs_rejected(self, kwarg, value):
        facilities = FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities))
        with pytest.raises(TypeError, match=kwarg):
            MonitoringService(_WORKLOAD.graph, facilities, **{kwarg: value})

    def test_run_batch_parallel_kwarg_rejected(self):
        service = QueryService(self._engine())
        with pytest.raises(TypeError, match="parallel"):
            service.run_batch(
                _requests()[:2], parallel=ExecutionPolicy(workers=2, executor="serial")
            )
        # The rejected call ran nothing through the service.
        assert service.cache.cache_statistics.record_misses == 0


class TestSessionLifecycle:
    """Deterministic teardown: the contract the serving tier shuts down on."""

    def _session(self):
        return Session(
            _WORKLOAD.graph, FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities))
        )

    def test_close_is_idempotent(self):
        session = self._session()
        assert not session.closed
        session.close()
        assert session.closed
        session.close()  # a second close is a no-op, not an error
        assert session.closed

    @pytest.mark.parametrize(
        "verb",
        ["query", "run_batch", "monitor", "skyline", "top_k", "engine_for"],
    )
    def test_every_verb_refuses_after_close(self, verb):
        session = self._session()
        session.close()
        request = _requests()[0]
        calls = {
            "query": lambda: session.query(request),
            "run_batch": lambda: session.run_batch([request]),
            "monitor": lambda: session.monitor([request]),
            "skyline": lambda: session.skyline(_WORKLOAD.queries[0]),
            "top_k": lambda: session.top_k(
                _WORKLOAD.queries[0], 3, weights=(0.5, 0.3, 0.2)
            ),
            "engine_for": lambda: session.engine_for(),
        }
        with pytest.raises(QueryError, match="closed"):
            calls[verb]()

    def test_context_manager_closes_and_rejects_reentry(self):
        with self._session() as session:
            session.query(_requests()[0])
        assert session.closed
        with pytest.raises(QueryError, match="closed"):
            with session:
                pass  # pragma: no cover - __enter__ refuses

    def test_close_tears_down_the_monitoring_service(self):
        session = self._session()
        handle = session.monitor(_requests()[:2])
        service = handle.service
        session.close()
        assert service.closed
        with pytest.raises(QueryError, match="closed"):
            service.subscribe(_requests()[2])

    def test_monitoring_close_preserves_lifetime_statistics(self):
        session = self._session()
        handle = session.monitor(_requests()[:2])
        for tick in make_update_stream(
            _WORKLOAD.graph,
            _WORKLOAD.facilities,
            UpdateStreamSpec(num_ticks=2, updates_per_tick=3, seed=5),
            subscription_ids=list(handle.subscription_ids),
        ):
            handle.tick(tick)
        before = handle.service.statistics
        session.close()
        after = handle.service.statistics
        assert vars(after) == vars(before)

    def test_close_drops_cached_stacks(self):
        session = self._session()
        session.query(_requests()[0])
        assert session.invalidate_result_caches() == 1
        session.close()
        assert session._services == {} and session._engines == {}
        with pytest.raises(QueryError, match="closed"):
            session.invalidate_result_caches()

    def test_invalidate_result_caches_forces_memo_misses(self):
        session = self._session()
        request = _requests()[0]
        first = session.query(request)
        second = session.query(request)
        assert not first.served_from_memo and second.served_from_memo
        assert session.invalidate_result_caches() == 1
        third = session.query(request)
        assert not third.served_from_memo
        assert _signature(third) == _signature(first)

    def test_latency_recorder_tracks_the_verbs(self):
        session = self._session()
        session.query(_requests()[0])
        session.run_batch(_requests()[:2])
        handle = session.monitor(_requests()[:1])
        for tick in make_update_stream(
            _WORKLOAD.graph,
            _WORKLOAD.facilities,
            UpdateStreamSpec(num_ticks=1, updates_per_tick=2, seed=5),
            subscription_ids=list(handle.subscription_ids),
        ):
            handle.tick(tick)
        assert session.latency.labels() == ("batch", "query", "tick")
        # run_batch observes once per batch plus once per member query.
        assert session.latency.stats_for("query").count == 1
        assert session.latency.stats_for("batch").count == 1
        assert session.latency.stats_for("tick").count == 1
        summary = session.latency.summary()
        assert set(summary) == {"batch", "query", "tick"}

    def test_latency_statistics_survive_close(self):
        session = self._session()
        session.query(_requests()[0])
        session.close()
        assert session.latency.stats_for("query").count == 1
