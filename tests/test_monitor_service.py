"""Tests for the continuous monitoring service (subscriptions, ticks, deltas)."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import ExecutionPolicy
from repro.core.aggregates import WeightedSum
from repro.core.maintenance import MaintenanceStatistics
from repro.datagen import UpdateStreamSpec, WorkloadSpec, make_update_stream, make_workload
from repro.errors import FacilityError, QueryError
from repro.monitor import (
    FacilityDelete,
    FacilityInsert,
    MonitoringService,
    QueryRelocation,
    UpdateStream,
    UpdateTick,
    delta_report_to_payload,
    tick_report_to_payload,
)
from repro.network import Facility, FacilitySet, MultiCostGraph, NetworkLocation
from repro.service import SkylineRequest, TopKRequest
from tests.helpers import (
    exact_skyline,
    exact_top_k,
    facility_vectors,
    random_mcn,
    random_query,
)


@pytest.fixture
def tiny_service(tiny_graph, tiny_facilities):
    return MonitoringService(tiny_graph, tiny_facilities)


class TestSubscriptionLifecycle:
    def test_subscribe_returns_increasing_ids(self, tiny_service, tiny_query):
        first = tiny_service.subscribe(SkylineRequest(tiny_query))
        second = tiny_service.subscribe(TopKRequest(tiny_query, k=2, weights=(0.5, 0.5)))
        assert (first, second) == (0, 1)
        assert tiny_service.subscription_ids == (0, 1)

    def test_initial_results_match_oracle(self, tiny_graph, tiny_facilities, tiny_query):
        service = MonitoringService(tiny_graph, tiny_facilities)
        sky = service.subscribe(SkylineRequest(tiny_query))
        top = service.subscribe(TopKRequest(tiny_query, k=2, weights=(0.5, 0.5)))
        vectors = facility_vectors(tiny_graph, tiny_facilities, tiny_query)
        assert set(service.result_signature(sky)) == exact_skyline(vectors)
        oracle = exact_top_k(vectors, WeightedSum((0.5, 0.5)), 2)
        assert service.result_signature(top) == {
            fid: round(score, 9) for fid, score in oracle
        }

    def test_invalid_location_rejected(self, tiny_service):
        with pytest.raises(Exception):
            tiny_service.subscribe(SkylineRequest(NetworkLocation.at_node(999)))

    def test_invalid_aggregate_arity_rejected(self, tiny_service, tiny_query):
        with pytest.raises(QueryError):
            tiny_service.subscribe(TopKRequest(tiny_query, k=2, weights=(0.2, 0.3, 0.5)))

    def test_unsubscribe_stops_updates(self, tiny_service, tiny_query, tiny_graph):
        sid = tiny_service.subscribe(SkylineRequest(tiny_query))
        tiny_service.unsubscribe(sid)
        assert tiny_service.subscription_ids == ()
        with pytest.raises(QueryError):
            tiny_service.result_signature(sid)
        # The next tick must not try to notify the dropped maintainer.
        edge = tiny_graph.edge_between(3, 4)
        report = tiny_service.apply_tick(UpdateTick((FacilityInsert(50, edge.edge_id, 0.0),)))
        assert report.deltas == []

    def test_unsubscribe_unknown_rejected(self, tiny_service):
        with pytest.raises(QueryError):
            tiny_service.unsubscribe(7)

    def test_mismatched_facility_set_rejected(self, tiny_graph, line_graph):
        with pytest.raises(QueryError):
            MonitoringService(tiny_graph, FacilitySet(line_graph))


class TestTickApplication:
    def test_insert_enters_result(self, tiny_service, tiny_graph, tiny_query):
        sid = tiny_service.subscribe(SkylineRequest(tiny_query))
        close_edge = tiny_graph.edge_between(3, 4)
        report = tiny_service.apply_tick(
            UpdateTick((FacilityInsert(99, close_edge.edge_id, 0.0),))
        )
        (delta,) = report.deltas
        assert delta.subscription_id == sid
        assert delta.kind == "skyline"
        assert delta.entered == (99,)
        assert delta.changed
        assert report.counters.insertions == 1
        assert report.counters.incremental_updates == 1
        assert report.counters.recomputations == 0
        assert report.fallback_subscriptions == ()

    def test_delete_of_non_member_is_cheap_and_silent(self, tiny_graph, tiny_facilities, tiny_query):
        service = MonitoringService(tiny_graph, tiny_facilities)
        sid = service.subscribe(SkylineRequest(tiny_query))
        non_member = next(
            fid for fid in (0, 1, 2) if fid not in set(service.result_signature(sid))
        )
        report = service.apply_tick(UpdateTick((FacilityDelete(non_member),)))
        (delta,) = report.deltas
        assert not delta.changed
        assert report.counters.incremental_updates == 1
        assert report.counters.recomputations == 0

    def test_delete_of_member_falls_back_and_reports_left(
        self, tiny_graph, tiny_facilities, tiny_query
    ):
        service = MonitoringService(tiny_graph, tiny_facilities)
        sid = service.subscribe(SkylineRequest(tiny_query))
        member = next(iter(service.result_signature(sid)))
        report = service.apply_tick(UpdateTick((FacilityDelete(member),)))
        (delta,) = report.deltas
        assert member in delta.left
        assert report.fallback_subscriptions == (sid,)
        assert report.counters.recomputations == 1
        vectors = facility_vectors(tiny_graph, service.facilities, tiny_query)
        assert set(service.result_signature(sid)) == exact_skyline(vectors)

    def test_relocation_recomputes_one_subscription(self, tiny_graph, tiny_facilities, tiny_query):
        service = MonitoringService(tiny_graph, tiny_facilities)
        sky = service.subscribe(SkylineRequest(tiny_query))
        top = service.subscribe(TopKRequest(tiny_query, k=2, weights=(0.5, 0.5)))
        report = service.apply_tick(
            UpdateTick((QueryRelocation(top, NetworkLocation.at_node(8)),))
        )
        assert report.fallback_subscriptions == (top,)
        assert report.counters.query_moves == 1
        sky_delta, top_delta = report.deltas
        assert not sky_delta.changed
        vectors = facility_vectors(tiny_graph, service.facilities, NetworkLocation.at_node(8))
        oracle = exact_top_k(vectors, WeightedSum((0.5, 0.5)), 2)
        assert service.result_signature(top) == {fid: round(s, 9) for fid, s in oracle}
        assert service.maintainer_of(sky).query == tiny_query

    def test_one_fallback_per_subscription_per_tick(self, tiny_graph, tiny_facilities, tiny_query):
        """However many hard updates a tick carries, each subscription is
        recomputed at most once at the end of the tick."""
        service = MonitoringService(tiny_graph, tiny_facilities)
        sid = service.subscribe(SkylineRequest(tiny_query))
        members = sorted(service.result_signature(sid))
        assert len(members) >= 2
        report = service.apply_tick(
            UpdateTick(tuple(FacilityDelete(fid) for fid in members))
        )
        assert report.counters.recomputations == 1
        assert report.fallback_subscriptions == (sid,)
        vectors = facility_vectors(tiny_graph, service.facilities, tiny_query)
        assert set(service.result_signature(sid)) == exact_skyline(vectors)

    def test_ticks_with_no_subscriptions_still_mutate_the_set(self, tiny_service, tiny_graph):
        edge = tiny_graph.edge_between(0, 1)
        tiny_service.apply_tick(UpdateTick((FacilityInsert(77, edge.edge_id, 1.0),)))
        assert 77 in tiny_service.facilities
        tiny_service.apply_tick(UpdateTick((FacilityDelete(77),)))
        assert 77 not in tiny_service.facilities
        assert tiny_service.ticks_applied == 2

    def test_tick_io_counters_are_recorded(self, tiny_graph, tiny_facilities, tiny_query):
        service = MonitoringService(tiny_graph, tiny_facilities)
        sid = service.subscribe(SkylineRequest(tiny_query))
        # A fallback tick (member deletion) must show accessor work...
        member = next(iter(service.result_signature(sid)))
        report = service.apply_tick(UpdateTick((FacilityDelete(member),)))
        assert report.io.total_requests > 0
        assert service.access_statistics.total_requests >= report.io.total_requests
        # ...while re-pricing a position already priced exactly costs zero
        # requests: the paused expansions already met its stopping rule,
        # and settled nodes stay settled while the head key only grows.
        edge = tiny_graph.edge_between(3, 4)
        service.apply_tick(UpdateTick((FacilityInsert(99, edge.edge_id, 0.0),)))
        assert 99 in service.result_signature(sid)  # it entered: priced exactly
        insert_report = service.apply_tick(UpdateTick((FacilityInsert(98, edge.edge_id, 0.0),)))
        assert 98 in service.result_signature(sid)
        assert insert_report.io.total_requests == 0

    def test_payloads_are_json_serializable(self, tiny_graph, tiny_facilities, tiny_query):
        service = MonitoringService(tiny_graph, tiny_facilities)
        service.subscribe(SkylineRequest(tiny_query))
        edge = tiny_graph.edge_between(3, 4)
        report = service.apply_tick(UpdateTick((FacilityInsert(99, edge.edge_id, 0.0),)))
        payload = json.loads(json.dumps(tick_report_to_payload(report)))
        assert payload["deltas"] == [delta_report_to_payload(d) for d in report.deltas]
        assert payload["counters"]["insertions"] == 1


class TestDirectedReachability:
    """On a directed graph a shared component label proves no path, so an
    insert the query cannot reach is still refused before anything mutates."""

    @staticmethod
    def build():
        graph = MultiCostGraph(num_cost_types=2, directed=True)
        for node_id in range(4):
            graph.add_node(node_id)
        first = graph.add_edge(0, 1, (1.0, 2.0))
        onward = graph.add_edge(1, 2, (2.0, 1.0))
        stranded = graph.add_edge(3, 2, (1.0, 1.0))  # tail 3: no path from 0
        facilities = FacilitySet(graph)
        facilities.add(Facility(0, first.edge_id, 0.5))
        return graph, facilities, onward.edge_id, stranded.edge_id

    def test_unreachable_tail_refused_up_front(self):
        graph, facilities, onward, stranded = self.build()
        assert graph.component_of(3) == graph.component_of(0)
        service = MonitoringService(graph, facilities)
        query = NetworkLocation.at_node(0)
        sids = (
            service.subscribe(SkylineRequest(query)),
            service.subscribe(TopKRequest(query, k=2, weights=(0.5, 0.5))),
        )
        ids_before = set(service.facilities.facility_ids())
        results_before = [service.result_signature(sid) for sid in sids]
        stats_before = service.statistics
        tick = UpdateTick((FacilityInsert(7, stranded, 0.5),))
        with pytest.raises(QueryError):
            service.validate_tick(tick)
        with pytest.raises(QueryError):
            service.apply_tick(tick)
        assert set(service.facilities.facility_ids()) == ids_before
        assert [service.result_signature(sid) for sid in sids] == results_before
        assert service.statistics.since(stats_before) == MaintenanceStatistics()
        assert service.ticks_applied == 0

        report = service.apply_tick(UpdateTick((FacilityInsert(8, onward, 0.5),)))
        assert 8 in service.facilities
        assert report.counters.insertions == 2
        vectors = facility_vectors(graph, service.facilities, query)
        assert set(service.result_signature(sids[0])) == exact_skyline(vectors)
        oracle = exact_top_k(vectors, WeightedSum((0.5, 0.5)), 2)
        assert service.result_signature(sids[1]) == {
            fid: round(score, 9) for fid, score in oracle
        }


class TestTickValidation:
    def test_bad_mid_tick_update_applies_nothing(self, tiny_graph, tiny_facilities, tiny_query):
        """A tick with an invalid third update leaves the set and every
        subscription exactly as they were — the PR's mid-batch fix."""
        service = MonitoringService(tiny_graph, tiny_facilities)
        sid = service.subscribe(SkylineRequest(tiny_query))
        before_ids = set(service.facilities.facility_ids())
        before_result = service.result_signature(sid)
        before_stats = service.statistics
        edge = tiny_graph.edge_between(3, 4)
        bad_tick = UpdateTick(
            (
                FacilityInsert(99, edge.edge_id, 0.0),
                FacilityDelete(0),
                FacilityDelete(12345),  # unknown facility
            )
        )
        with pytest.raises(FacilityError):
            service.apply_tick(bad_tick)
        assert set(service.facilities.facility_ids()) == before_ids
        assert service.result_signature(sid) == before_result
        assert service.statistics.since(before_stats) == MaintenanceStatistics()
        assert service.ticks_applied == 0

    def test_duplicate_insert_id_rejected(self, tiny_service, tiny_graph):
        edge = tiny_graph.edge_between(0, 1)
        with pytest.raises(FacilityError):
            tiny_service.apply_tick(
                UpdateTick(
                    (
                        FacilityInsert(99, edge.edge_id, 0.0),
                        FacilityInsert(99, edge.edge_id, 1.0),
                    )
                )
            )
        assert 99 not in tiny_service.facilities

    def test_insert_offset_outside_edge_rejected(self, tiny_service, tiny_graph):
        edge = tiny_graph.edge_between(0, 1)
        with pytest.raises(FacilityError):
            tiny_service.apply_tick(
                UpdateTick((FacilityInsert(99, edge.edge_id, edge.length + 5.0),))
            )

    def test_relocation_of_unknown_subscription_rejected(self, tiny_service):
        with pytest.raises(QueryError):
            tiny_service.apply_tick(
                UpdateTick((QueryRelocation(3, NetworkLocation.at_node(1)),))
            )

    def test_intra_tick_insert_then_delete_validates(self, tiny_service, tiny_graph):
        edge = tiny_graph.edge_between(0, 1)
        report = tiny_service.apply_tick(
            UpdateTick(
                (FacilityInsert(99, edge.edge_id, 0.5), FacilityDelete(99))
            )
        )
        assert report.updates == 2
        assert 99 not in tiny_service.facilities

    def test_intra_tick_delete_then_reinsert_same_id_validates(
        self, tiny_graph, tiny_facilities, tiny_query
    ):
        """A facility relocation modelled as delete + re-insert of the same id
        must validate against the tick's simulated live set, not the
        pre-tick set."""
        service = MonitoringService(tiny_graph, tiny_facilities)
        sid = service.subscribe(SkylineRequest(tiny_query))
        target = tiny_graph.edge_between(3, 4)
        report = service.apply_tick(
            UpdateTick((FacilityDelete(0), FacilityInsert(0, target.edge_id, 0.0)))
        )
        assert report.updates == 2
        assert service.facilities.facility(0).edge_id == target.edge_id
        vectors = facility_vectors(tiny_graph, service.facilities, tiny_query)
        assert set(service.result_signature(sid)) == exact_skyline(vectors)

    def test_unreachable_insert_rejected_up_front_and_service_stays_usable(self):
        """An insert unreachable from a subscription's query is rejected at
        validation time, so earlier updates of the tick are not applied and
        no subscription is left stale (the mid-tick wedge regression)."""
        graph = MultiCostGraph(num_cost_types=2)
        for node_id in range(4):
            graph.add_node(node_id, float(node_id), 0.0)
        edge_a = graph.add_edge(0, 1, (2.0, 3.0))
        edge_b = graph.add_edge(2, 3, (1.0, 1.0))  # disconnected component
        facilities = FacilitySet(graph)
        facilities.add(Facility(0, edge_a.edge_id, 0.2))
        facilities.add(Facility(1, edge_a.edge_id, 0.8))
        service = MonitoringService(graph, facilities)
        sid = service.subscribe(SkylineRequest(NetworkLocation.at_node(0)))
        member = next(iter(service.result_signature(sid)))
        before = set(facilities.facility_ids())
        with pytest.raises(QueryError):
            service.apply_tick(
                UpdateTick(
                    (FacilityDelete(member), FacilityInsert(99, edge_b.edge_id, 0.5))
                )
            )
        assert set(facilities.facility_ids()) == before
        assert service.ticks_applied == 0
        # The service is not wedged: the next valid tick applies normally.
        report = service.apply_tick(UpdateTick((FacilityDelete(member),)))
        assert member in report.deltas[0].left
        vectors = facility_vectors(graph, facilities, NetworkLocation.at_node(0))
        assert set(service.result_signature(sid)) == exact_skyline(vectors)

    def test_non_tick_rejected(self, tiny_service):
        with pytest.raises(QueryError):
            tiny_service.apply_tick([FacilityDelete(0)])  # type: ignore[arg-type]

    def test_unsubscribe_keeps_lifetime_statistics(self, tiny_graph, tiny_facilities, tiny_query):
        service = MonitoringService(tiny_graph, tiny_facilities)
        sid = service.subscribe(SkylineRequest(tiny_query))
        edge = tiny_graph.edge_between(3, 4)
        service.apply_tick(UpdateTick((FacilityInsert(99, edge.edge_id, 0.0),)))
        before = service.statistics
        service.unsubscribe(sid)
        after = service.statistics
        assert after == before  # counters never shrink when subscriptions churn


class TestShardedFallback:
    def build(self, policy):
        workload = make_workload(
            WorkloadSpec(num_nodes=150, num_facilities=60, num_cost_types=3, num_queries=6, seed=31)
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        service = MonitoringService(workload.graph, facilities, policy=policy)
        sids = []
        for index, query in enumerate(workload.queries):
            if index % 2 == 0:
                sids.append(service.subscribe(SkylineRequest(query)))
            else:
                sids.append(service.subscribe(TopKRequest(query, k=3, weights=(0.5, 0.3, 0.2))))
        stream = make_update_stream(
            workload.graph,
            workload.facilities,
            UpdateStreamSpec(num_ticks=8, updates_per_tick=5, seed=32),
            subscription_ids=sids,
        )
        return service, sids, stream

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_sharded_fallback_matches_sequential(self, executor):
        sequential, sids, stream = self.build(ExecutionPolicy())
        sharded, _sids, _stream = self.build(
            ExecutionPolicy(workers=3, executor=executor, shard_fallback_threshold=2)
        )
        sharded_ticks = 0
        for tick in stream:
            report_seq = sequential.apply_tick(tick)
            report_par = sharded.apply_tick(tick)
            if report_par.sharded:
                sharded_ticks += 1
            for sid in sids:
                assert sequential.result_signature(sid) == sharded.result_signature(sid)
            assert [delta_report_to_payload(d) for d in report_seq.deltas] == [
                delta_report_to_payload(d) for d in report_par.deltas
            ]
        assert sharded_ticks > 0, "no tick went stale enough to shard the fallback"

    def test_below_threshold_stays_sequential(self):
        service, sids, _stream = self.build(
            ExecutionPolicy(workers=2, executor="serial", shard_fallback_threshold=50)
        )
        member = next(iter(service.result_signature(sids[0])))
        report = service.apply_tick(UpdateTick((FacilityDelete(member),)))
        assert not report.sharded


def oracle_signature(service, sid, request):
    vectors = facility_vectors(
        service.graph, service.facilities, service.maintainer_of(sid).query
    )
    if isinstance(request, SkylineRequest):
        return exact_skyline(vectors)
    maintainer = service.maintainer_of(sid)
    return [
        round(score, 6)
        for _fid, score in exact_top_k(vectors, maintainer.aggregate, maintainer.k)
    ]


def observed_signature(service, sid, request):
    maintainer = service.maintainer_of(sid)
    if isinstance(request, SkylineRequest):
        return maintainer.skyline_ids()
    return [round(score, 6) for _fid, score in maintainer.ranking()]


_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

noop_instance = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "num_nodes": st.integers(min_value=8, max_value=30),
        "extra_edges": st.integers(min_value=0, max_value=25),
        "num_facilities": st.integers(min_value=3, max_value=12),
        "unrelated": st.integers(min_value=0, max_value=4),
        "split_ticks": st.booleans(),
    }
)


class TestInsertDeleteNoOpProperty:
    """A facility insert followed by its own delete is a no-op on every
    subscription, even with unrelated updates interleaved (the PR's
    property-test satellite)."""

    @_SETTINGS
    @given(noop_instance)
    def test_insert_then_delete_is_noop(self, params):
        seed = params["seed"]
        graph, base = random_mcn(
            num_nodes=params["num_nodes"],
            num_edges=params["num_nodes"] - 1 + params["extra_edges"],
            num_cost_types=2,
            num_facilities=params["num_facilities"],
            seed=seed,
        )
        rng = random.Random(seed + 7)
        edges = list(graph.edges())

        def fresh_service():
            facilities = FacilitySet(graph, iter(base))
            service = MonitoringService(graph, facilities)
            requests = [
                SkylineRequest(random_query(graph, seed + 1)),
                TopKRequest(random_query(graph, seed + 2), k=3, weights=(0.6, 0.4)),
            ]
            sids = [service.subscribe(request) for request in requests]
            return service, sids, requests

        # Unrelated interleaved updates, identical in both runs.
        unrelated = []
        live = set(base.facility_ids())
        for index in range(params["unrelated"]):
            edge = rng.choice(edges)
            if rng.random() < 0.5 or len(live) <= 2:
                new_id = 1000 + index
                unrelated.append(FacilityInsert(new_id, edge.edge_id, rng.uniform(0, edge.length)))
                live.add(new_id)
            else:
                victim = rng.choice(sorted(live))
                unrelated.append(FacilityDelete(victim))
                live.remove(victim)

        probe_edge = rng.choice(edges)
        insert_x = FacilityInsert(999, probe_edge.edge_id, rng.uniform(0, probe_edge.length))
        half = len(unrelated) // 2
        with_x = list(unrelated[:half]) + [insert_x] + list(unrelated[half:]) + [FacilityDelete(999)]
        without_x = list(unrelated)

        def apply(service, updates):
            if params["split_ticks"] and len(updates) > 1:
                middle = len(updates) // 2
                # X's insert and delete may land in different ticks; the
                # no-op property must hold across tick boundaries too.
                service.apply_tick(UpdateTick(tuple(updates[:middle])))
                service.apply_tick(UpdateTick(tuple(updates[middle:])))
            elif updates:
                service.apply_tick(UpdateTick(tuple(updates)))

        service_a, sids_a, requests = fresh_service()
        service_b, sids_b, _ = fresh_service()
        apply(service_a, with_x)
        apply(service_b, without_x)

        for sid_a, sid_b, request in zip(sids_a, sids_b, requests):
            assert observed_signature(service_a, sid_a, request) == observed_signature(
                service_b, sid_b, request
            )
            # Both must also equal the brute-force oracle over the final set.
            oracle = oracle_signature(service_a, sid_a, request)
            if isinstance(request, SkylineRequest):
                assert observed_signature(service_a, sid_a, request) == oracle
            else:
                assert observed_signature(service_a, sid_a, request) == oracle

        # Counters stay consistent: the A run saw exactly one extra insert
        # and one extra delete per subscription, and both runs agree on the
        # final facility population.
        stats_a, stats_b = service_a.statistics, service_b.statistics
        subs = len(sids_a)
        assert stats_a.insertions == stats_b.insertions + subs
        assert stats_a.deletions == stats_b.deletions + subs
        assert set(service_a.facilities.facility_ids()) == set(
            service_b.facilities.facility_ids()
        )
