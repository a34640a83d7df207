"""Property-based temporal oracle: departure-time reads interleaved with ticks.

Hypothesis draws a sequence of departure-time reads, edge-cost ticks and
facility ticks, and replays it on a profile-registered
:class:`~repro.api.Session` under each configuration (residency × snapshot
LRU size).  Ticks go through the session's monitor, as ``PATCH /v1/edges``
and ``PATCH /v1/facilities`` apply them.  Every read's answer and I/O must
equal a static oracle session over the reference snapshot
(``tests/helpers.reference_snapshot``) of the live base at the read's
quantised departure time, whatever mix of cold builds, re-costed stale
stacks, hits and evictions served it.

The oracle opens a fresh session exactly where the executor must build a
stack: a key's first read, the first read after any tick, and a read whose
key the LRU has evicted.  A later read at the same key runs on that oracle
session, so warm caches are compared with warm caches.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ExecutionPolicy, Session
from repro.datagen import EdgeCostStreamSpec, WorkloadSpec, make_profile_network, make_workload
from repro.monitor import EdgeCostUpdate, FacilityDelete, FacilityInsert, UpdateTick
from repro.serve.payloads import io_to_payload, result_to_payload
from repro.service.requests import SkylineRequest, TopKRequest
from tests.helpers import reference_facilities, reference_snapshot

SPEC = WorkloadSpec(
    num_nodes=60, num_facilities=15, num_cost_types=2, num_queries=2, seed=91
)
STREAM_SPEC = EdgeCostStreamSpec(
    num_ticks=4, start_time=6.0, time_step=0.5, affected_fraction=0.3, seed=92
)
#: Departure times across the rush hour, each a multiple of the quantum.
TIMES = tuple(6.0 + 0.5 * step for step in range(8))


def configurations():
    return [
        ExecutionPolicy(
            temporal="profiles",
            profile_source="rush",
            residency=residency,
            page_size=1024,
            temporal_cache_size=cache_size,
        )
        for residency, cache_size in product(("memory", "disk"), (1, 2, 16))
    ]


@pytest.fixture(
    scope="module",
    params=configurations(),
    ids=lambda policy: f"{policy.residency}-{policy.temporal_cache_size}",
)
def policy(request):
    return request.param


reads = st.tuples(st.just("read"), st.sampled_from(TIMES), st.integers(0, 1))
# An edge tick scales the costs of up to four edges, all profiled or drawn
# from every edge.
edge_ticks = st.tuples(
    st.just("edge"),
    st.booleans(),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    st.sampled_from((0.5, 2.0, 3.0)),
)
facility_ticks = st.tuples(st.just("facility"), st.integers(0, 10**6), st.booleans())
operations = st.lists(st.one_of(reads, reads, edge_ticks, facility_ticks), max_size=24)


def answer(response):
    return result_to_payload(response.result), io_to_payload(response.io)


@settings(max_examples=25, deadline=None)
@given(ops=operations)
def test_reads_between_ticks_match_the_reference_snapshot(policy, ops):
    workload = make_workload(SPEC)
    graph = workload.graph
    edges = list(graph.edges())
    network = make_profile_network(graph, STREAM_SPEC)
    profiled = sorted(network.profiled_edges)
    requests = (
        SkylineRequest(workload.queries[0]),
        TopKRequest(workload.queries[1], 3, weights=(0.4, 0.6)),
    )
    static = policy.replace(temporal="off", profile_source=None)
    # The oracle session of each key the LRU holds, in LRU order (None once
    # a tick made the key's stack stale).
    oracles: OrderedDict[float, Session | None] = OrderedDict()
    next_facility = 10_000
    with Session(
        graph, workload.facilities, policy=policy, profiles={"rush": network}
    ) as session:
        handle = session.monitor(())
        for op in ops:
            if op[0] == "read":
                _kind, departure_time, which = op
                oracle = oracles.pop(departure_time, None)
                if oracle is None:
                    snapshot = reference_snapshot(network, departure_time)
                    rebound = reference_facilities(snapshot, session.facilities)
                    oracle = Session(snapshot, rebound, policy=static)
                oracles[departure_time] = oracle
                while len(oracles) > policy.temporal_cache_size:
                    oracles.popitem(last=False)
                request = requests[which]
                lived = session.query(replace(request, departure_time=departure_time))
                assert answer(lived) == answer(oracle.query(request))
                continue
            if op[0] == "edge":
                _kind, only_profiled, picks, factor = op
                pool = profiled if only_profiled else [edge.edge_id for edge in edges]
                chosen = {pool[pick % len(pool)] for pick in picks}
                tick = UpdateTick(
                    tuple(
                        EdgeCostUpdate(edge_id, [c * factor for c in graph.edge(edge_id).costs])
                        for edge_id in sorted(chosen)
                    )
                )
            else:
                _kind, pick, insert = op
                ids = sorted(session.facilities.facility_ids())
                if insert or len(ids) == 1:
                    host = edges[pick % len(edges)]
                    tick = UpdateTick(
                        (FacilityInsert(next_facility, host.edge_id, host.length / 3),)
                    )
                    next_facility += 1
                else:
                    tick = UpdateTick((FacilityDelete(ids[pick % len(ids)]),))
            handle.tick(tick)
            # Every cached stack is stale now; each keeps its LRU slot until
            # it is read again (and rebuilt) or evicted.
            oracles = OrderedDict.fromkeys(oracles)
