"""The temporal subsystem: requests, policy knobs, executor LRU, session routing.

The temporal *differential oracle* lives in ``tests/test_temporal_oracle.py``;
this file covers the machinery around it — sweep-request validation at
construction/decode time, the ``temporal`` policy knobs, the snapshot LRU's
hit/rebuild/eviction behaviour, and how :class:`~repro.api.Session` routes
departure-time work (including mixed batches) to the executor.
"""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.api import ExecutionPolicy, Session
from repro.api.policy import policy_from_payload, policy_to_payload
from repro.datagen import (
    EdgeCostStreamSpec,
    WorkloadSpec,
    make_profile_network,
    make_workload,
)
from repro.errors import PolicyError, QueryError
from repro.monitor import EdgeCostUpdate, UpdateTick
from repro.network.compiled import CompiledGraph
from repro.network.location import NetworkLocation
from repro.serve.payloads import io_to_payload, result_to_payload
from repro.service.requests import (
    SkylineRequest,
    TopKRequest,
    request_from_payload,
    request_to_payload,
)
from repro.temporal import (
    SkylineSweepRequest,
    TopKSweepRequest,
    sweep_request_from_payload,
    sweep_request_to_payload,
)
from repro.timedep import (
    TimeVaryingMCN,
    peak_profile,
    skyline_over_period,
    top_k_over_period,
)
from tests.helpers import reference_facilities, reference_snapshot

WORKLOAD = make_workload(
    WorkloadSpec(num_nodes=90, num_facilities=25, num_cost_types=2, num_queries=3, seed=71)
)
STREAM_SPEC = EdgeCostStreamSpec(
    num_ticks=4, start_time=6.0, time_step=0.5, affected_fraction=0.3, seed=72
)
POLICY = ExecutionPolicy(temporal="profiles", profile_source="rush")


def fresh_session(policy: ExecutionPolicy | None = None) -> Session:
    workload = make_workload(
        WorkloadSpec(
            num_nodes=90, num_facilities=25, num_cost_types=2, num_queries=3, seed=71
        )
    )
    network = make_profile_network(workload.graph, STREAM_SPEC)
    return Session(
        workload.graph, workload.facilities, policy=policy, profiles={"rush": network}
    )


class TestDepartureTimeRequests:
    def test_requests_accept_and_normalise_departure_time(self):
        request = SkylineRequest(WORKLOAD.queries[0], departure_time=8)
        assert request.departure_time == 8.0
        assert isinstance(request.departure_time, float)

    @pytest.mark.parametrize("bad", ["soon", float("nan"), float("inf"), -1.0])
    def test_invalid_departure_times_rejected_at_construction(self, bad):
        with pytest.raises(QueryError):
            SkylineRequest(WORKLOAD.queries[0], departure_time=bad)
        with pytest.raises(QueryError):
            TopKRequest(WORKLOAD.queries[0], 3, weights=(0.5, 0.5), departure_time=bad)

    def test_payload_round_trip_carries_departure_time(self):
        request = TopKRequest(
            WORKLOAD.queries[1], 4, weights=(0.3, 0.7), departure_time=7.25
        )
        payload = request_to_payload(request)
        assert payload["departure_time"] == 7.25
        assert request_from_payload(payload) == request

    def test_static_payloads_omit_the_field(self):
        payload = request_to_payload(SkylineRequest(WORKLOAD.queries[0]))
        assert "departure_time" not in payload
        assert request_from_payload(payload).departure_time is None


class TestSweepRequests:
    def test_times_validated_at_construction(self):
        location = WORKLOAD.queries[0]
        with pytest.raises(QueryError):
            SkylineSweepRequest(location, ())
        with pytest.raises(QueryError):
            SkylineSweepRequest(location, (2.0, 1.0))
        with pytest.raises(QueryError):
            SkylineSweepRequest(location, (1.0, float("nan")))
        with pytest.raises(QueryError):
            TopKSweepRequest(location, 0, (1.0, 2.0))

    def test_payload_round_trip(self):
        location = WORKLOAD.queries[0]
        for request in (
            SkylineSweepRequest(location, (6.0, 7.0, 8.0)),
            TopKSweepRequest(location, 3, (6.0, 7.5), weights=(0.4, 0.6)),
        ):
            assert sweep_request_from_payload(sweep_request_to_payload(request)) == request

    def test_invalid_payloads_rejected_at_decode(self):
        location = WORKLOAD.queries[0]
        payload = sweep_request_to_payload(SkylineSweepRequest(location, (6.0, 7.0)))
        payload["times"] = [7.0, 6.0]
        with pytest.raises(QueryError):
            sweep_request_from_payload(payload)
        with pytest.raises(QueryError):
            sweep_request_from_payload({"type": "sweep?"})


class TestTemporalPolicy:
    def test_profiles_mode_requires_a_source(self):
        with pytest.raises(PolicyError):
            ExecutionPolicy(temporal="profiles")
        with pytest.raises(PolicyError):
            ExecutionPolicy(temporal="off", profile_source="rush")
        with pytest.raises(PolicyError):
            ExecutionPolicy(temporal="sometimes", profile_source="rush")

    def test_knobs_validated(self):
        with pytest.raises(PolicyError):
            ExecutionPolicy(temporal_quantum=0.0)
        with pytest.raises(PolicyError):
            ExecutionPolicy(temporal_cache_size=0)

    def test_payload_round_trip(self):
        policy = ExecutionPolicy(
            temporal="profiles",
            profile_source="rush",
            temporal_quantum=0.5,
            temporal_cache_size=4,
        )
        assert policy_from_payload(policy_to_payload(policy)) == policy

    def test_unknown_profile_source_rejected_by_session(self):
        with fresh_session() as session:
            with pytest.raises(PolicyError, match="rush"):
                session.query(
                    SkylineRequest(WORKLOAD.queries[0], departure_time=8.0),
                    policy=replace(POLICY, profile_source="weekend"),
                )

    def test_departure_time_without_temporal_mode_rejected(self):
        with fresh_session() as session:
            with pytest.raises(PolicyError, match="temporal"):
                session.query(SkylineRequest(WORKLOAD.queries[0], departure_time=8.0))

    def test_profiles_must_cover_the_session_graph(self):
        other = make_workload(
            WorkloadSpec(
                num_nodes=40, num_facilities=10, num_cost_types=2, num_queries=1, seed=5
            )
        )
        foreign = TimeVaryingMCN(other.graph)
        with pytest.raises(PolicyError):
            Session(
                WORKLOAD.graph, WORKLOAD.facilities, profiles={"rush": foreign}
            )


class TestExecutorCache:
    def session(self, *, quantum=0.25, cache_size=8) -> Session:
        return fresh_session(
            replace(POLICY, temporal_quantum=quantum, temporal_cache_size=cache_size)
        )

    def test_quantisation_buckets_nearby_times(self):
        with self.session(quantum=0.5) as session:
            executor = session._temporal_for(session.policy)
            request = SkylineRequest(WORKLOAD.queries[0])
            for departure_time in (7.9, 8.0, 8.1, 8.24):
                executor.query(replace(request, departure_time=departure_time))
            stats = executor.statistics
            assert stats.builds == 1
            assert stats.hits == 3
            assert executor.cached_times == (8.0,)

    def test_lru_evicts_oldest_snapshot(self):
        with self.session(quantum=0.25, cache_size=2) as session:
            executor = session._temporal_for(session.policy)
            request = SkylineRequest(WORKLOAD.queries[0])
            for departure_time in (6.0, 7.0, 8.0):
                executor.query(replace(request, departure_time=departure_time))
            stats = executor.statistics
            assert stats.builds == 3
            assert stats.evictions == 1
            assert executor.cached_times == (7.0, 8.0)

    def test_cost_revision_drift_rebuilds_the_snapshot(self):
        with self.session() as session:
            executor = session._temporal_for(session.policy)
            request = SkylineRequest(WORKLOAD.queries[0], departure_time=8.0)
            executor.query(request)
            graph = session.graph
            edge = next(iter(graph.edges()))
            graph.update_edge_costs(
                edge.edge_id, [cost * 2.0 for cost in edge.costs]
            )
            executor.query(request)
            stats = executor.statistics
            assert stats.builds == 2
            assert stats.rebuilds == 1

    def test_a_cost_tick_recosts_the_stale_stack_from_its_own_graph(self, monkeypatch):
        """A stale stack takes its costs from its own graph while the base's
        changelog covers the gap, and from the profiles once it overflowed."""
        calls = []
        snapshot = TimeVaryingMCN.snapshot

        def spy(network, time):
            calls.append(time)
            return snapshot(network, time)

        monkeypatch.setattr(TimeVaryingMCN, "snapshot", spy)
        with self.session() as session:
            executor = session._temporal_for(session.policy)
            request = SkylineRequest(WORKLOAD.queries[0], departure_time=8.0)
            executor.query(request)
            graph = session.graph
            edge = next(iter(graph.edges()))
            graph.update_edge_costs(edge.edge_id, [cost * 2.0 for cost in edge.costs])
            executor.query(request)
            assert calls == [8.0]
            # More updates than the changelog holds: one build from the profiles.
            for _update in range(1025):
                graph.update_edge_costs(edge.edge_id, edge.costs)
            executor.query(request)
            assert calls == [8.0, 8.0]
            stats = executor.statistics
            assert (stats.builds, stats.rebuilds, stats.hits) == (3, 2, 0)

    @pytest.mark.parametrize("moved", ["costs", "facilities"])
    def test_a_replaced_stack_is_collectable(self, moved):
        with self.session() as session:
            executor = session._temporal_for(session.policy)
            stale = executor.session_at(8.0)
            stale.query(SkylineRequest(WORKLOAD.queries[0]))
            refs = (weakref.ref(stale), weakref.ref(stale.graph))
            del stale
            if moved == "costs":
                edge = next(iter(session.graph.edges()))
                session.graph.update_edge_costs(
                    edge.edge_id, [cost * 2.0 for cost in edge.costs]
                )
            else:
                session.facilities.remove(min(session.facilities.facility_ids()))
            replacement = executor.session_at(8.0)
            gc.collect()
            assert [ref() for ref in refs] == [None, None]
            assert executor.session_at(8.0) is replacement

    @pytest.mark.parametrize("residency", ["memory", "disk"])
    def test_a_rebuilt_stack_patches_only_the_ticked_edges(self, residency, monkeypatch):
        """A tick of three edges through the session's monitor: the rebuilt
        stack copies the stale stack's cost lists and patches those three
        edges alone, and answers like a fresh static session."""
        policy = replace(POLICY, residency=residency, page_size=1024)
        patched = []
        refresh = CompiledGraph._refresh_edge_costs

        def spy(compiled, dense_edges):
            dense_edges = list(dense_edges)
            patched.append((compiled, sorted(dense_edges)))
            return refresh(compiled, dense_edges)

        requests = (
            SkylineRequest(WORKLOAD.queries[0]),
            TopKRequest(WORKLOAD.queries[1], 3, weights=(0.4, 0.6)),
        )
        with fresh_session(policy) as session:
            executor = session._temporal_for(session.policy)
            for request in requests:
                session.query(replace(request, departure_time=8.0))
            handle = session.monitor(())
            graph = session.graph
            ticked = sorted(executor.network.profiled_edges)[:3]
            monkeypatch.setattr(CompiledGraph, "_refresh_edge_costs", spy)
            handle.tick(
                UpdateTick(
                    tuple(
                        EdgeCostUpdate(edge, [c * 3.0 for c in graph.edge(edge).costs])
                        for edge in ticked
                    )
                )
            )
            rebuilt = executor.session_at(8.0)
            monkeypatch.undo()
            compiled = rebuilt.engine_for().compiled_graph
            assert [edges for owner, edges in patched if owner is compiled] == [
                sorted(compiled.edge_index[edge] for edge in ticked)
            ]
            snapshot = reference_snapshot(executor.network, 8.0)
            static = policy.replace(temporal="off", profile_source=None)
            with Session(
                snapshot, reference_facilities(snapshot, session.facilities), policy=static
            ) as oracle:
                for request in requests:
                    lived = session.query(replace(request, departure_time=8.0))
                    expected = oracle.query(request)
                    assert result_to_payload(lived.result) == result_to_payload(
                        expected.result
                    )
                    assert io_to_payload(lived.io) == io_to_payload(expected.io)
            assert executor.statistics.rebuilds == 1

    @pytest.mark.parametrize("path", ["hit", "recost"])
    def test_set_profile_reaches_a_cached_key(self, path):
        """A profile set registered empty, one read, then a 3x peak on every
        edge: the next read answers like a fresh session, whether the cached
        stack was otherwise current or stale from a cost tick."""
        workload = make_workload(
            WorkloadSpec(num_nodes=80, num_facilities=20, num_cost_types=2, seed=11)
        )
        graph = workload.graph
        network = TimeVaryingMCN(graph)
        request = SkylineRequest(workload.queries[0], departure_time=8.0)

        def read(profiles):
            with Session(
                graph, workload.facilities, policy=POLICY, profiles=profiles
            ) as session:
                response = session.query(request)
            return result_to_payload(response.result), io_to_payload(response.io)

        with Session(
            graph, workload.facilities, policy=POLICY, profiles={"rush": network}
        ) as session:
            before = session.query(request)
            peak = peak_profile(peak_time=8.0, peak_multiplier=3.0)
            for edge in graph.edges():
                for index in range(graph.num_cost_types):
                    network.set_profile(edge.edge_id, index, peak)
            if path == "recost":
                edge = next(iter(graph.edges()))
                graph.update_edge_costs(edge.edge_id, edge.costs)
            after = session.query(request)
            answer = result_to_payload(after.result), io_to_payload(after.io)
        assert not after.served_from_memo
        assert answer == read({"rush": network})
        assert answer[0] != result_to_payload(before.result)

    def test_snapshot_stacks_run_under_the_session_policy(self):
        """A snapshot session keeps its owner's fields: without a memo
        there, a repeated departure-time read is never a memo hit."""
        request = SkylineRequest(WORKLOAD.queries[0], departure_time=8.0)
        with fresh_session(replace(POLICY, memoize_results=False)) as session:
            reads = [session.query(request) for _ in range(2)]
            batch = session.run_batch([request, request])
        assert not any(response.served_from_memo for response in reads)
        assert batch.memo_hits == 0
        with fresh_session(POLICY) as session:
            session.query(request)
            assert session.query(request).served_from_memo


class TestSessionRouting:
    def test_mixed_batch_preserves_submission_order(self):
        with fresh_session() as session:
            requests = [
                SkylineRequest(WORKLOAD.queries[0]),
                SkylineRequest(WORKLOAD.queries[0], departure_time=8.0),
                TopKRequest(WORKLOAD.queries[1], 3, weights=(0.5, 0.5)),
                TopKRequest(
                    WORKLOAD.queries[1], 3, weights=(0.5, 0.5), departure_time=8.0
                ),
            ]
            batch = session.run_batch(requests, policy=POLICY)
            assert [response.request for response in batch.responses] == requests

    def test_sweep_matches_the_timedep_reference(self):
        """Session sweeps must agree with the seed's period queries exactly."""
        times = (6.0, 6.5, 7.0, 7.5, 8.0, 8.5)
        workload = make_workload(
            WorkloadSpec(
                num_nodes=90, num_facilities=25, num_cost_types=2, num_queries=3, seed=71
            )
        )
        network = make_profile_network(workload.graph, STREAM_SPEC)
        from repro.network.facilities import FacilitySet

        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        reference_skyline = skyline_over_period(
            network, facilities, workload.queries[0], times
        )
        from repro.core.aggregates import WeightedSum

        reference_topk = top_k_over_period(
            network, facilities, workload.queries[1], WeightedSum((0.5, 0.5)), 3, times
        )
        with Session(
            workload.graph, facilities, profiles={"rush": network}
        ) as session:
            sky = session.sweep(
                SkylineSweepRequest(workload.queries[0], times), policy=POLICY
            )
            top = session.sweep(
                TopKSweepRequest(workload.queries[1], 3, times, weights=(0.5, 0.5)),
                policy=POLICY,
            )
        assert list(sky.results) == reference_skyline
        assert list(top.results) == reference_topk
        assert sky.intervals and sky.intervals[0].start == times[0]

    def test_sweep_without_temporal_policy_rejected(self):
        with fresh_session() as session:
            with pytest.raises(PolicyError):
                session.sweep(SkylineSweepRequest(WORKLOAD.queries[0], (6.0, 7.0)))

    def test_profile_names_listed(self):
        with fresh_session() as session:
            assert session.profile_names == ("rush",)


class TestRebindFacilities:
    def test_rebound_facilities_preserve_ids_and_positions(self):
        from repro.network.facilities import FacilitySet
        from repro.timedep.network import rebind_facilities

        workload = make_workload(
            WorkloadSpec(
                num_nodes=60, num_facilities=15, num_cost_types=2, num_queries=1, seed=77
            )
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        network = TimeVaryingMCN(workload.graph)
        edge = next(iter(workload.graph.edges()))
        network.set_profile(
            edge.edge_id, 0, peak_profile(peak_time=8.0, peak_multiplier=2.0)
        )
        snapshot = network.snapshot(8.0)
        rebound = rebind_facilities(snapshot, facilities)
        assert sorted(f.facility_id for f in rebound) == sorted(
            f.facility_id for f in facilities
        )
        for facility in facilities:
            twin = rebound.facility(facility.facility_id)
            assert twin.edge_id == facility.edge_id
            assert twin.offset == facility.offset
