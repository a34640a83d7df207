"""The serving tier's temporal surface: PATCH /v1/edges and departure times.

Covers the new edge-cost route end to end — application and SSE deltas,
the facility/edge route split, idempotent retries, route-aware journal
recovery — plus departure-time queries flowing through ``/v1/query`` and
``/v1/batch`` with a temporal policy payload.
"""

from __future__ import annotations

import asyncio

from repro.api import ExecutionPolicy, Session
from repro.api.policy import policy_to_payload
from repro.datagen import (
    EdgeCostStreamSpec,
    WorkloadSpec,
    make_edge_cost_stream,
    make_profile_network,
    make_workload,
)
from repro.monitor.stream import tick_to_payload
from repro.network.facilities import FacilitySet
from repro.serve import InProcessClient, ServeApp, ServeConfig, collect_events
from repro.serve.journal import JobJournal
from repro.serve.payloads import io_to_payload, result_to_payload
from repro.service.requests import SkylineRequest, request_to_payload

_WORKLOAD = make_workload(
    WorkloadSpec(num_nodes=80, num_facilities=20, num_cost_types=2, num_queries=4, seed=41)
)
_STREAM_SPEC = EdgeCostStreamSpec(
    num_ticks=4, start_time=6.0, time_step=0.5, affected_fraction=0.2, seed=42
)
_TEMPORAL_POLICY = policy_to_payload(
    ExecutionPolicy(temporal="profiles", profile_source="rush")
)


def _fresh_session(*, profiles: bool = False) -> Session:
    workload = make_workload(
        WorkloadSpec(
            num_nodes=80, num_facilities=20, num_cost_types=2, num_queries=4, seed=41
        )
    )
    kwargs = {}
    if profiles:
        kwargs["profiles"] = {"rush": make_profile_network(workload.graph, _STREAM_SPEC)}
    return Session(
        workload.graph, FacilitySet(workload.graph, iter(workload.facilities)), **kwargs
    )


def _edge_tick_payloads(session: Session) -> list[list[dict]]:
    stream = make_edge_cost_stream(session.graph, _STREAM_SPEC)
    return [tick_to_payload(tick) for tick in stream.ticks if len(tick)]


def _facility_update() -> dict:
    edge = next(iter(_WORKLOAD.graph.edges()))
    return {"type": "insert", "facility": 9000, "edge": edge.edge_id, "offset": 0.25}


def _run(coro):
    return asyncio.run(coro)


class TestPatchEdges:
    def test_edge_tick_applies_and_reports_counters(self):
        async def scenario():
            session = _fresh_session()
            app = ServeApp(session)
            client = InProcessClient(app)
            async with app:
                subscribe = await client.post(
                    "/v1/subscriptions",
                    {"request": request_to_payload(SkylineRequest(_WORKLOAD.queries[0]))},
                )
                ticks = _edge_tick_payloads(session)
                response = await client.patch("/v1/edges", {"updates": ticks[0]})
                return subscribe, response

        subscribe, response = _run(scenario())
        assert subscribe.status == 201
        assert response.status == 200, response.payload
        assert response.payload["updates"] > 0
        assert response.payload["counters"]["edge_cost_refreshes"] > 0
        assert response.payload["counters"]["recomputations"] == 1
        assert "invalidated_services" in response.payload

    def test_edge_ticks_publish_sse_deltas(self):
        async def scenario():
            session = _fresh_session()
            app = ServeApp(session, config=ServeConfig(request_timeout_seconds=60.0))
            client = InProcessClient(app)
            async with app:
                subscribe = await client.post(
                    "/v1/subscriptions",
                    {"request": request_to_payload(SkylineRequest(_WORKLOAD.queries[0]))},
                )
                sid = subscribe.payload["subscription"]
                stream = await client.stream(sid)
                ticks = _edge_tick_payloads(session)[:2]
                tick_payloads = []
                for updates in ticks:
                    response = await client.patch("/v1/edges", {"updates": updates})
                    assert response.status == 200
                    tick_payloads.append(response.payload)
                events = await collect_events(stream, limit=1 + len(ticks))
                return sid, tick_payloads, events

        sid, tick_payloads, events = _run(scenario())
        assert events[0].event == "init"
        for tick_payload, event in zip(tick_payloads, events[1:]):
            assert event.event == "delta"
            mine = [
                delta
                for delta in tick_payload["deltas"]
                if delta["subscription"] == sid
            ]
            assert event.data == {"tick": tick_payload["index"], **mine[0]}

    def test_route_split_is_enforced(self):
        async def scenario():
            session = _fresh_session()
            app = ServeApp(session)
            client = InProcessClient(app)
            async with app:
                ticks = _edge_tick_payloads(session)
                wrong_route = await client.patch(
                    "/v1/facilities", {"updates": ticks[0]}
                )
                wrong_kind = await client.patch(
                    "/v1/edges", {"updates": [_facility_update()]}
                )
                mixed = await client.patch(
                    "/v1/edges", {"updates": [ticks[0][0], _facility_update()]}
                )
                return wrong_route, wrong_kind, mixed

        wrong_route, wrong_kind, mixed = _run(scenario())
        for response in (wrong_route, wrong_kind, mixed):
            assert response.status == 400
            assert response.payload["error"]["code"] == "invalid-update"
        assert "PATCH /v1/edges" in wrong_route.payload["error"]["message"]
        assert "PATCH /v1/facilities" in wrong_kind.payload["error"]["message"]

    def test_idempotent_retry_replays_the_answer(self):
        async def scenario():
            session = _fresh_session()
            app = ServeApp(session)
            client = InProcessClient(app)
            async with app:
                ticks = _edge_tick_payloads(session)
                headers = {"Idempotency-Key": "edge-tick-1"}
                first = await client.patch(
                    "/v1/edges", {"updates": ticks[0]}, headers=headers
                )
                retry = await client.patch(
                    "/v1/edges", {"updates": ticks[0]}, headers=headers
                )
                conflict = await client.patch(
                    "/v1/edges", {"updates": ticks[1]}, headers=headers
                )
                return first, retry, conflict

        first, retry, conflict = _run(scenario())
        assert first.status == 200
        assert retry.payload == first.payload  # replayed, not re-applied
        assert conflict.status == 409
        assert conflict.payload["error"]["code"] == "conflict"


class TestJournalRecovery:
    def test_recovered_edge_ticks_reapply_and_reseed_the_edges_fingerprint(
        self, tmp_path
    ):
        path = str(tmp_path / "journal.jsonl")

        async def first_process():
            session = _fresh_session()
            journal = JobJournal(
                path, fingerprint=session.dataset_fingerprint(), sync=False
            )
            app = ServeApp(session, journal=journal)
            client = InProcessClient(app)
            async with app:
                ticks = _edge_tick_payloads(session)
                response = await client.patch(
                    "/v1/edges",
                    {"updates": ticks[0]},
                    headers={"Idempotency-Key": "edge-crash"},
                )
                assert response.status == 200
                query = await client.post(
                    "/v1/query",
                    {"request": request_to_payload(SkylineRequest(_WORKLOAD.queries[0]))},
                )
                # Simulated crash: no drain, no clean close record.
                return response.payload, query.payload, ticks[0]

        answer, post_tick_query, updates = _run(first_process())

        async def second_process():
            session = _fresh_session()
            journal = JobJournal(
                path, fingerprint=session.dataset_fingerprint(), sync=False
            )
            app = ServeApp(session, journal=journal)
            client = InProcessClient(app)
            async with app:
                recovery = app.last_recovery
                # A retry of the acknowledged tick replays the original
                # answer against the patch-edges fingerprint...
                retry = await client.patch(
                    "/v1/edges",
                    {"updates": updates},
                    headers={"Idempotency-Key": "edge-crash"},
                )
                # ...while the same key with the same body on the facility
                # route is a *different* logical operation.
                cross = await client.patch(
                    "/v1/facilities",
                    {"updates": updates},
                    headers={"Idempotency-Key": "edge-crash"},
                )
                query = await client.post(
                    "/v1/query",
                    {"request": request_to_payload(SkylineRequest(_WORKLOAD.queries[0]))},
                )
                return recovery, retry, cross, query.payload

        recovery, retry, cross, replay_query = _run(second_process())
        assert recovery["ticks_reapplied"] == 1
        assert retry.status == 200
        assert retry.payload == answer
        assert cross.status == 409
        assert cross.payload["error"]["code"] == "conflict"
        # The re-applied tick reproduces the first process's post-tick state.
        assert replay_query["result"] == post_tick_query["result"]


class TestDepartureTimeOverTheWire:
    def test_query_with_departure_time_and_temporal_policy(self):
        async def scenario():
            session = _fresh_session(profiles=True)
            app = ServeApp(session)
            client = InProcessClient(app)
            async with app:
                request = SkylineRequest(_WORKLOAD.queries[0], departure_time=8.0)
                timed = await client.post(
                    "/v1/query",
                    {
                        "request": request_to_payload(request),
                        "policy": _TEMPORAL_POLICY,
                    },
                )
                static = await client.post(
                    "/v1/query",
                    {
                        "request": request_to_payload(
                            SkylineRequest(_WORKLOAD.queries[0])
                        )
                    },
                )
                missing_policy = await client.post(
                    "/v1/query", {"request": request_to_payload(request)}
                )
                return timed, static, missing_policy

        timed, static, missing_policy = _run(scenario())
        assert timed.status == 200, timed.payload
        assert static.status == 200
        assert missing_policy.status == 400
        assert missing_policy.payload["error"]["code"] == "invalid-policy"

    def test_batch_mixes_timed_and_static_requests(self):
        async def scenario():
            session = _fresh_session(profiles=True)
            app = ServeApp(session)
            client = InProcessClient(app)
            async with app:
                payloads = [
                    request_to_payload(SkylineRequest(_WORKLOAD.queries[0])),
                    request_to_payload(
                        SkylineRequest(_WORKLOAD.queries[0], departure_time=8.0)
                    ),
                ]
                submit = await client.post(
                    "/v1/batch",
                    {"requests": payloads, "policy": _TEMPORAL_POLICY},
                )
                job = submit.payload["job"]
                for _attempt in range(200):
                    poll = await client.get(f"/v1/batch/{job}")
                    if poll.payload["state"] in ("done", "failed"):
                        return poll
                    await asyncio.sleep(0.01)
                return poll

        poll = _run(scenario())
        assert poll.payload["state"] == "done", poll.payload
        responses = poll.payload["result"]["responses"]
        assert len(responses) == 2
        assert [entry["kind"] for entry in responses] == ["skyline", "skyline"]
        assert all(entry["result"]["facilities"] for entry in responses)


class TestDiskSessionPatches:
    """A disk-resident session answers from the network its PATCHes left."""

    def test_patched_disk_session_answers_like_a_fresh_one(self):
        policy = ExecutionPolicy(residency="disk", page_size=1024)
        workload = make_workload(
            WorkloadSpec(
                num_nodes=80, num_facilities=20, num_cost_types=3, num_queries=1, seed=11
            )
        )
        graph = workload.graph
        session = Session(graph, workload.facilities, policy=policy)
        request = SkylineRequest(workload.queries[0])
        body = {"request": request_to_payload(request)}

        def fresh():
            """A fresh disk session's answer over the live network."""
            live = FacilitySet(graph, iter(session.facilities))
            with Session(graph, live, policy=policy) as oracle:
                response = oracle.query(request)
            return result_to_payload(response.result), io_to_payload(response.io)

        async def scenario():
            app = ServeApp(session)
            client = InProcessClient(app)
            steps = []
            async with app:
                first = await client.post("/v1/query", body)
                victim = first.payload["result"]["facilities"][0]["facility"]
                patches = (
                    ("/v1/facilities", [{"type": "delete", "facility": victim}]),
                    (
                        "/v1/edges",
                        [
                            {
                                "type": "edge-cost",
                                "edge": edge.edge_id,
                                "costs": [cost * 10 for cost in edge.costs],
                            }
                            for edge in graph.edges()
                        ],
                    ),
                )
                for route, updates in patches:
                    patched = await client.patch(route, {"updates": updates})
                    answer = await client.post("/v1/query", body)
                    steps.append((patched, answer, fresh()))
            return victim, steps

        victim, steps = _run(scenario())
        for patched, answer, expected in steps:
            assert patched.status == 200, patched.payload
            assert patched.payload["invalidated_services"] == 1
            assert answer.status == 200, answer.payload
            assert not answer.payload["served_from_memo"]
            assert (answer.payload["result"], answer.payload["io"]) == expected
        deleted = steps[0][1].payload["result"]["facilities"]
        assert victim not in [entry["facility"] for entry in deleted]
