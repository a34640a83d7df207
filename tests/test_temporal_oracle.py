"""The temporal differential oracle: snapshots must be invisible on the wire.

Two families of bit-identity checks pin the temporal subsystem's
correctness:

* **Departure-time oracle** — every answer a profile-registered
  :class:`~repro.api.Session` gives under ``temporal="profiles"`` must be
  *bit-identical* (result payload AND I/O counters) to a fresh static
  session built over the reference snapshot at ``departure_time`` (a
  whole-graph copy with every facility re-added, from ``tests/helpers.py``,
  so the oracle shares no code with ``TimeVaryingMCN.snapshot`` or
  ``rebind_facilities``).  The executor's LRU, quantisation and staleness
  machinery must therefore never be observable in an answer.

* **Edge-tick oracle** — after any prefix of an
  :class:`~repro.monitor.EdgeCostUpdate` stream is applied through the
  monitoring service, every subscription's maintained answer and every ad
  hoc query must be bit-identical to a fresh session over the mutated
  graph.  The in-place compiled-graph patching and the maintainers'
  edge-cost refresh path must likewise be invisible.

The data layer picks the expansion, so both sides of each oracle run the
compiled kernel: every session here is graph-backed and compiles its
graph.  The record-walking expansion runs only on a standalone dataset
pack and as the reference of the conformance battery
(``tests/expansion_conformance.py``), which pins the kernel to it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.api import ExecutionPolicy, Session
from repro.datagen import (
    EdgeCostStreamSpec,
    WorkloadSpec,
    make_edge_cost_stream,
    make_profile_network,
    make_workload,
)
from repro.monitor import FacilityDelete, FacilityInsert, MonitoringService, UpdateTick
from repro.network.facilities import FacilitySet
from repro.serve.payloads import io_to_payload, result_to_payload
from repro.service.requests import SkylineRequest, TopKRequest
from tests.helpers import reference_facilities, reference_snapshot

SPEC = WorkloadSpec(
    num_nodes=110, num_facilities=30, num_cost_types=2, clustered=True,
    num_queries=4, seed=81,
)
STREAM_SPEC = EdgeCostStreamSpec(
    num_ticks=6, start_time=6.0, time_step=0.5, affected_fraction=0.25, seed=82
)
POLICY = ExecutionPolicy(temporal="profiles", profile_source="rush")
DEPARTURE_TIMES = (6.0, 7.0, 7.75, 8.0, 9.5)


def build_requests(workload):
    requests = []
    for index, query in enumerate(workload.queries):
        if index % 2 == 0:
            requests.append(SkylineRequest(query))
        else:
            requests.append(TopKRequest(query, 3, weights=(0.4, 0.6)))
    return requests


def answer_signature(response):
    """The wire-observable answer: result payload plus I/O counters."""
    return (result_to_payload(response.result), io_to_payload(response.io))


class TestDepartureTimeOracle:
    def test_temporal_answers_match_fresh_snapshot_sessions(self):
        workload = make_workload(SPEC)
        network = make_profile_network(workload.graph, STREAM_SPEC)
        requests = build_requests(workload)
        with Session(
            workload.graph, workload.facilities, profiles={"rush": network}
        ) as session:
            facilities = session.facilities
            for departure_time in DEPARTURE_TIMES:
                snapshot = reference_snapshot(network, departure_time)
                rebound = reference_facilities(snapshot, facilities)
                with Session(snapshot, rebound) as oracle:
                    for request in requests:
                        timed = replace(request, departure_time=departure_time)
                        lived = session.query(timed, policy=POLICY)
                        fresh = oracle.query(request)
                        assert answer_signature(lived) == answer_signature(fresh)
                        # The response re-carries the original timed request.
                        assert lived.request is timed

    def test_batch_answers_match_fresh_snapshot_batches(self):
        """A same-departure-time batch shares exactly one snapshot stack, so
        its intra-batch cache behaviour — and therefore its I/O — must match
        a fresh static session running the stripped batch."""
        workload = make_workload(SPEC)
        network = make_profile_network(workload.graph, STREAM_SPEC)
        requests = [
            replace(request, departure_time=8.0)
            for request in build_requests(workload)
        ]
        with Session(
            workload.graph, workload.facilities, profiles={"rush": network}
        ) as session:
            lived = session.run_batch(requests, policy=POLICY)
            snapshot = reference_snapshot(network, 8.0)
            rebound = reference_facilities(snapshot, session.facilities)
            with Session(snapshot, rebound) as oracle:
                fresh = oracle.run_batch(
                    [replace(request, departure_time=None) for request in requests]
                )
        assert [answer_signature(r) for r in lived.responses] == [
            answer_signature(r) for r in fresh.responses
        ]
        assert io_to_payload(lived.io) == io_to_payload(fresh.io)

    def test_quantisation_serves_the_bucket_snapshot(self):
        """An off-grid departure time answers from its *quantised* instant —
        pinned against the snapshot at the bucket time, not the raw time."""
        workload = make_workload(SPEC)
        network = make_profile_network(workload.graph, STREAM_SPEC)
        request = build_requests(workload)[0]
        policy = replace(POLICY, temporal_quantum=0.5)
        with Session(
            workload.graph, workload.facilities, policy=policy, profiles={"rush": network}
        ) as session:
            lived = session.query(replace(request, departure_time=7.9))
            snapshot = reference_snapshot(network, 8.0)
            rebound = reference_facilities(snapshot, session.facilities)
            with Session(snapshot, rebound) as oracle:
                fresh = oracle.query(request)
        assert answer_signature(lived) == answer_signature(fresh)


class TestTickedDepartureOracle:
    """Departure-time reads after ticks answer from the mutated base.

    Ticks are applied the way ``PATCH /v1/edges`` applies them: through the
    session's monitor, followed by ``invalidate_result_caches()``.  Every
    later read must equal a fresh static session over the reference
    snapshot of the mutated base and the live facility set.  The checks
    alternate direction over the departure times, so with two LRU slots a
    check starts on stale cached stacks (rebuilds) and ends by evicting
    them; with eight slots every stack stays cached, and after each tick
    it is rebuilt from its own stale graph with only the ticked edges
    re-costed (none after the facility tick).
    """

    @pytest.mark.parametrize("cache_size", [2, 8])
    def test_reads_after_ticks_match_fresh_snapshot_sessions(self, cache_size):
        workload = make_workload(SPEC)
        network = make_profile_network(workload.graph, STREAM_SPEC)
        edge_ticks = [
            tick
            for tick in make_edge_cost_stream(workload.graph, STREAM_SPEC).ticks
            if len(tick)
        ]
        assert len(edge_ticks) >= 3, "the stream spec must produce three busy ticks"
        requests = build_requests(workload)
        policy = replace(POLICY, temporal_cache_size=cache_size)
        with Session(
            workload.graph, workload.facilities, policy=policy, profiles={"rush": network}
        ) as session:
            handle = session.monitor(())

            def check(times):
                for departure_time in times:
                    snapshot = reference_snapshot(network, departure_time)
                    rebound = reference_facilities(snapshot, session.facilities)
                    with Session(snapshot, rebound) as oracle:
                        for request in requests:
                            lived = session.query(
                                replace(request, departure_time=departure_time)
                            )
                            assert answer_signature(lived) == answer_signature(
                                oracle.query(request)
                            )

            victim = next(iter(session.facilities))
            host = session.graph.edge(victim.edge_id)
            facility_tick = UpdateTick(
                (
                    FacilityDelete(victim.facility_id),
                    FacilityInsert(10_000, host.edge_id, host.length / 3),
                )
            )
            check(DEPARTURE_TIMES)
            for index, tick in enumerate(edge_ticks[:3] + [facility_tick]):
                handle.tick(tick)
                session.invalidate_result_caches()
                check(DEPARTURE_TIMES[::-1] if index % 2 == 0 else DEPARTURE_TIMES)
            assert 10_000 in session.facilities
            assert victim.facility_id not in session.facilities
            statistics = session._temporal_for(session.policy).statistics
        # Every tick left stale stacks behind, and only the small LRU evicts.
        assert statistics.rebuilds > 0
        assert (statistics.evictions > 0) == (cache_size < len(DEPARTURE_TIMES))


class TestEdgeTickOracle:
    @pytest.mark.parametrize("algorithm", ["cea", "lsa"])
    def test_post_tick_queries_match_fresh_sessions(self, algorithm):
        workload = make_workload(SPEC)
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        service = MonitoringService(workload.graph, facilities)
        requests = [
            replace(request, algorithm=algorithm)
            for request in build_requests(workload)
        ]
        subscription_ids = [service.subscribe(request) for request in requests]
        stream = make_edge_cost_stream(workload.graph, STREAM_SPEC)
        # The long-lived session's compiled graph is patched *in place* by
        # ensure_fresh as ticks land; the oracle sessions are rebuilt from
        # the mutated graph each tick.  Their answers may never drift apart.
        with Session(workload.graph, facilities) as lived:
            for tick in stream.ticks:
                service.apply_tick(tick)
                lived.invalidate_result_caches()
                # Maintained subscription answers equal a fresh service's
                # answers over the mutated graph (membership and values)...
                fresh_service = MonitoringService(workload.graph, facilities)
                for sid, request in zip(subscription_ids, requests):
                    fresh_sid = fresh_service.subscribe(request)
                    assert service.result_signature(
                        sid
                    ) == fresh_service.result_signature(fresh_sid)
                fresh_service.close()
                # ...and the patched long-lived session answers bit-identically
                # (result AND I/O) to a session built from scratch.
                with Session(workload.graph, facilities) as oracle:
                    for request in requests:
                        assert answer_signature(
                            lived.query(request)
                        ) == answer_signature(oracle.query(request))

    def test_edge_ticks_mark_every_subscription_refreshed(self):
        workload = make_workload(SPEC)
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        service = MonitoringService(workload.graph, facilities)
        for request in build_requests(workload):
            service.subscribe(request)
        stream = make_edge_cost_stream(workload.graph, STREAM_SPEC)
        non_empty = [tick for tick in stream.ticks if len(tick)]
        assert non_empty, "the stream spec must produce at least one busy tick"
        report = service.apply_tick(non_empty[0])
        # One refresh notification per (edge update, subscription) pair, and
        # exactly one deferred recomputation per subscription at tick end.
        assert report.counters.edge_cost_refreshes == len(non_empty[0]) * len(
            service.subscription_ids
        )
        assert report.counters.recomputations == len(service.subscription_ids)
