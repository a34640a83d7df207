"""Fault injection against the serving tier: the failure paths ARE the tier.

Each scenario drives the app into one failure mode and asserts three
things: the client gets a *structured* error envelope (never a traceback),
the metrics account for it honestly, and — the part that actually matters
— the engine pool keeps serving afterwards.  The ``before_execute`` hook
(a deliberate seam on :class:`~repro.serve.ServeApp`) lets a test hold or
crash the executor mid-request without monkey-patching engine internals.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.api import Session
from repro.datagen import WorkloadSpec, make_workload
from repro.network.facilities import FacilitySet
from repro.serve import (
    HttpServer,
    InProcessClient,
    ServeApp,
    ServeConfig,
    StreamEvent,
    collect_events,
    create_asgi_app,
    sse_encode,
)
from repro.serve.streaming import DeltaBroker
from repro.service.requests import SkylineRequest, request_to_payload

_WORKLOAD = make_workload(
    WorkloadSpec(num_nodes=80, num_facilities=20, num_cost_types=2, num_queries=4, seed=31)
)


def _query_payload(index: int = 0):
    return {"request": request_to_payload(SkylineRequest(_WORKLOAD.queries[index]))}


def _insert_payload(facility_id: int = 9000):
    # A deterministic on-edge location for inserts.
    edge = next(iter(_WORKLOAD.graph.edges()))
    return {
        "updates": [
            {
                "type": "insert",
                "facility": facility_id,
                "edge": edge.edge_id,
                "offset": 0.25,
            }
        ]
    }


def _app(**config):
    session = Session(
        _WORKLOAD.graph, FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities))
    )
    return ServeApp(session, config=ServeConfig(**config))


def _run(coro):
    return asyncio.run(coro)


def _assert_envelope(response, status, code):
    assert response.status == status, response.payload
    assert sorted(response.payload) == ["error"]
    keys = sorted(response.payload["error"])
    assert keys in (["code", "message"], ["code", "message", "retry_after"])
    assert response.payload["error"]["code"] == code
    assert "Traceback" not in response.payload["error"]["message"]


class TestAdmissionSaturation:
    def test_saturated_requests_rejected_and_recovered(self):
        async def scenario():
            app = _app(max_in_flight=1, request_timeout_seconds=30.0)
            client = InProcessClient(app)
            gate = threading.Event()
            release = threading.Event()

            def hold(label):
                gate.set()
                release.wait(timeout=30)

            app.before_execute = hold
            async with app:
                first = asyncio.create_task(client.post("/v1/query", _query_payload()))
                await asyncio.get_running_loop().run_in_executor(None, gate.wait)
                rejected = await client.post("/v1/query", _query_payload(1))
                _assert_envelope(rejected, 429, "saturated")
                assert app.admission.rejected == 1
                app.before_execute = None
                release.set()
                held = await first
                assert held.status == 200
                # Capacity is back: the pool was never wedged.
                again = await client.post("/v1/query", _query_payload(1))
                assert again.status == 200
                metrics = (await client.get("/v1/metrics")).payload
                assert metrics["admission"]["rejected"] == 1
                assert metrics["admission"]["in_flight"] == 0

        _run(scenario())

    def test_health_and_metrics_bypass_admission(self):
        async def scenario():
            app = _app(max_in_flight=1, request_timeout_seconds=30.0)
            client = InProcessClient(app)
            gate = threading.Event()
            release = threading.Event()

            def hold(label):
                gate.set()
                release.wait(timeout=30)

            app.before_execute = hold
            async with app:
                task = asyncio.create_task(client.post("/v1/query", _query_payload()))
                await asyncio.get_running_loop().run_in_executor(None, gate.wait)
                # The control plane answers even while the engine is saturated.
                assert (await client.get("/v1/health")).status == 200
                assert (await client.get("/v1/metrics")).status == 200
                app.before_execute = None
                release.set()
                assert (await task).status == 200

        _run(scenario())

    def test_batch_job_queue_bounded(self):
        async def scenario():
            app = _app(max_queued_jobs=1, request_timeout_seconds=30.0)
            client = InProcessClient(app)
            release = threading.Event()
            app.before_execute = lambda label: release.wait(timeout=30)
            async with app:
                first = await client.post("/v1/batch", {"requests": [_query_payload()["request"]]})
                assert first.status == 202
                second = await client.post("/v1/batch", {"requests": [_query_payload()["request"]]})
                _assert_envelope(second, 429, "saturated")
                app.before_execute = None
                release.set()
                while True:
                    poll = await client.get(f"/v1/batch/{first.payload['job']}")
                    if poll.payload["state"] in ("done", "failed"):
                        break
                    await asyncio.sleep(0.002)
                assert poll.payload["state"] == "done"

        _run(scenario())


class TestTimeouts:
    def test_timeout_fires_mid_expansion_without_wedging_the_pool(self):
        async def scenario():
            app = _app(max_in_flight=2, request_timeout_seconds=0.05)
            client = InProcessClient(app)
            release = threading.Event()
            calls = []

            def slow_once(label):
                calls.append(label)
                if len(calls) == 1:
                    release.wait(timeout=30)

            app.before_execute = slow_once
            async with app:
                timed_out = await client.post("/v1/query", _query_payload())
                _assert_envelope(timed_out, 504, "timeout")
                # The orphan still holds its slot (honest accounting)...
                assert app.admission.in_flight == 1
                release.set()
                # ...and once it finishes, the very same app keeps serving.
                for _ in range(200):
                    if app.admission.in_flight == 0:
                        break
                    await asyncio.sleep(0.005)
                assert app.admission.in_flight == 0
                ok = await client.post("/v1/query", _query_payload(1))
                assert ok.status == 200
                metrics = (await client.get("/v1/metrics")).payload
                assert metrics["timeouts"] == 1

        _run(scenario())

    def test_timed_out_slot_keeps_saturating_until_the_orphan_finishes(self):
        async def scenario():
            app = _app(max_in_flight=1, request_timeout_seconds=0.05)
            client = InProcessClient(app)
            release = threading.Event()
            calls = []

            def slow_once(label):
                calls.append(label)
                if len(calls) == 1:
                    release.wait(timeout=30)

            app.before_execute = slow_once
            async with app:
                timed_out = await client.post("/v1/query", _query_payload())
                _assert_envelope(timed_out, 504, "timeout")
                rejected = await client.post("/v1/query", _query_payload(1))
                _assert_envelope(rejected, 429, "saturated")
                release.set()
                for _ in range(200):
                    if app.admission.in_flight == 0:
                        break
                    await asyncio.sleep(0.005)
                ok = await client.post("/v1/query", _query_payload(1))
                assert ok.status == 200

        _run(scenario())

    def test_timeouts_disabled_when_configured_off(self):
        async def scenario():
            app = _app(request_timeout_seconds=None)
            client = InProcessClient(app)
            async with app:
                response = await client.post("/v1/query", _query_payload())
                assert response.status == 200

        _run(scenario())


class TestStreamBackpressure:
    def test_slow_consumer_is_lagged_out_and_the_tick_path_never_blocks(self):
        async def scenario():
            app = _app(stream_buffer=2, request_timeout_seconds=30.0)
            client = InProcessClient(app)
            async with app:
                subscribed = await client.post(
                    "/v1/subscriptions", _query_payload()
                )
                sid = subscribed.payload["subscription"]
                stream = await client.stream(sid)
                # Nobody drains the stream; publish more ticks than it buffers.
                statuses = []
                for tick in range(4):
                    response = await client.patch(
                        "/v1/facilities", _insert_payload(9100 + tick)
                    )
                    statuses.append(response.status)
                assert statuses == [200, 200, 200, 200]  # publisher never blocked
                events = await collect_events(stream)
                kinds = [event.event for event in events]
                # The snapshot and one delta fit the buffer of two; the
                # overflow lags the stream out, terminally.
                assert kinds == ["init", "delta", "lagged"]
                assert events[-1].data["subscription"] == sid
                metrics = (await client.get("/v1/metrics")).payload
                assert metrics["streams"]["lagged"] == 1
                assert metrics["streams"]["open"] == 0
                # A fresh stream resyncs: init snapshot + live deltas again.
                fresh = await client.stream(sid)
                await client.patch("/v1/facilities", _insert_payload(9200))
                fresh_events = await collect_events(fresh, limit=2)
                assert [event.event for event in fresh_events] == ["init", "delta"]

        _run(scenario())

    def test_unsubscribe_terminates_streams(self):
        async def scenario():
            app = _app(request_timeout_seconds=30.0)
            client = InProcessClient(app)
            async with app:
                subscribed = await client.post("/v1/subscriptions", _query_payload())
                sid = subscribed.payload["subscription"]
                stream = await client.stream(sid)
                dropped = await client.delete(f"/v1/subscriptions/{sid}")
                assert dropped.payload == {
                    "subscription": sid,
                    "unsubscribed": True,
                    "streams_closed": 1,
                }
                events = await collect_events(stream)
                assert [event.event for event in events] == ["init", "unsubscribed"]

        _run(scenario())

    def test_shutdown_closes_streams_terminally(self):
        async def scenario():
            app = _app(request_timeout_seconds=30.0)
            client = InProcessClient(app)
            async with app:
                subscribed = await client.post("/v1/subscriptions", _query_payload())
                stream = await client.stream(subscribed.payload["subscription"])
            events = await collect_events(stream)
            assert events[-1].event == "closed"

        _run(scenario())

    def test_sse_encoding_is_wire_stable(self):
        event = StreamEvent("delta", {"b": 1, "a": [1.5, None]})
        assert sse_encode(event) == (
            b'event: delta\ndata: {"a":[1.5,null],"b":1}\n\n'
        )


class TestMalformedPayloads:
    @pytest.fixture(scope="class")
    def client_app(self):
        app = _app(max_body_bytes=2048, request_timeout_seconds=30.0)
        yield app, InProcessClient(app)
        if not app.closed:
            asyncio.run(app.aclose())

    @pytest.mark.parametrize(
        "method, path, body, status, code",
        [
            ("POST", "/v1/query", b"{not json", 400, "invalid-request"),
            ("POST", "/v1/query", b"[1, 2]", 400, "invalid-request"),
            ("POST", "/v1/query", b"{}", 400, "invalid-request"),
            (
                "POST", "/v1/query",
                json.dumps({"request": {"kind": "warp"}}).encode(),
                400, "invalid-request",
            ),
            ("POST", "/v1/batch", json.dumps({"requests": []}).encode(), 400, "invalid-request"),
            ("POST", "/v1/batch", json.dumps({"requests": "nope"}).encode(), 400, "invalid-request"),
            ("PATCH", "/v1/facilities", json.dumps({"updates": {}}).encode(), 400, "invalid-update"),
            (
                "PATCH", "/v1/facilities",
                json.dumps({"updates": [{"type": "teleport"}]}).encode(),
                400, "invalid-request",
            ),
            (
                "PATCH", "/v1/facilities",
                json.dumps(
                    {"updates": [{"type": "insert", "facility": 1, "edge": None, "offset": 0.5}]}
                ).encode(),
                400, "invalid-update",
            ),
            ("GET", "/v1/batch/job-999", None, 404, "not-found"),
            ("DELETE", "/v1/subscriptions/777", None, 404, "not-found"),
            ("GET", "/v1/subscriptions/777/stream", None, 404, "not-found"),
            ("DELETE", "/v1/subscriptions/abc", None, 400, "invalid-request"),
            ("GET", "/v1/nothing/here", None, 404, "not-found"),
            ("DELETE", "/v1/query", None, 405, "method-not-allowed"),
            ("POST", "/v1/query", b"x" * 3000, 413, "payload-too-large"),
        ],
    )
    def test_structured_error_envelopes(self, client_app, method, path, body, status, code):
        _app_obj, client = client_app
        response = _run(client.request(method, path, raw_body=body))
        _assert_envelope(response, status, code)

    @pytest.mark.parametrize(
        "policy",
        [{"residency": "floppy"}, {"vector": "off"}, {"harvest_settled": True}],
        ids=["bad-value", "removed-field", "removed-field-harvest"],
    )
    def test_bad_policy_payload_is_invalid_policy(self, client_app, policy):
        _app_obj, client = client_app
        payload = dict(_query_payload(), policy=policy)
        response = _run(client.post("/v1/query", payload))
        _assert_envelope(response, 400, "invalid-policy")

    def test_failures_counted_but_app_survives(self, client_app):
        app, client = client_app

        async def scenario():
            before = (await client.get("/v1/metrics")).payload["errors"]
            await client.request("POST", "/v1/query", raw_body=b"{")
            ok = await client.post("/v1/query", _query_payload())
            after = (await client.get("/v1/metrics")).payload["errors"]
            return before, ok.status, after

        before, status, after = _run(scenario())
        assert status == 200 and after == before + 1
        _run(app.aclose())


class TestInternalFailuresAndShutdown:
    def test_engine_crash_is_an_internal_envelope_not_a_traceback(self):
        async def scenario():
            app = _app(request_timeout_seconds=30.0)
            client = InProcessClient(app)

            def boom(label):
                raise RuntimeError("engine exploded")

            app.before_execute = boom
            async with app:
                response = await client.post("/v1/query", _query_payload())
                _assert_envelope(response, 500, "internal")
                assert "engine exploded" in response.payload["error"]["message"]
                app.before_execute = None
                ok = await client.post("/v1/query", _query_payload())
                assert ok.status == 200

        _run(scenario())

    def test_failed_batch_job_reports_the_envelope(self):
        async def scenario():
            app = _app(request_timeout_seconds=30.0)
            client = InProcessClient(app)

            def boom(label):
                if label == "batch":
                    raise RuntimeError("batch exploded")

            app.before_execute = boom
            async with app:
                submitted = await client.post(
                    "/v1/batch", {"requests": [_query_payload()["request"]]}
                )
                while True:
                    poll = await client.get(f"/v1/batch/{submitted.payload['job']}")
                    if poll.payload["state"] in ("done", "failed"):
                        break
                    await asyncio.sleep(0.002)
                assert poll.payload["state"] == "failed"
                assert poll.payload["error"]["code"] == "internal"

        _run(scenario())

    def test_closed_app_answers_503_and_close_is_idempotent(self):
        async def scenario():
            app = _app()
            client = InProcessClient(app)
            async with app:
                assert (await client.get("/v1/health")).status == 200
            await app.aclose()  # second close: no-op
            response = await client.get("/v1/health")
            _assert_envelope(response, 503, "closed")
            assert app.session.closed

        _run(scenario())

    def test_broker_publish_to_unknown_subscription_is_a_noop(self):
        broker = DeltaBroker(4)
        delivered = broker.publish(0, [{"subscription": 42, "kind": "skyline"}])
        assert delivered == 0
        assert broker.snapshot()["ticks_published"] == 1


class TestHttpTransport:
    """The socket listener: same envelopes, plus protocol-level refusals."""

    @staticmethod
    async def _roundtrip(port, method, path, payload=None, raw=None):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        if raw is not None:
            writer.write(raw)
        else:
            body = json.dumps(payload).encode() if payload is not None else b""
            head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            if body:
                head += f"Content-Length: {len(body)}\r\n"
            writer.write(head.encode() + b"\r\n" + body)
        await writer.drain()
        blob = await reader.read()
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
        head, _, body = blob.partition(b"\r\n\r\n")
        status = int(head.split()[1])
        return status, json.loads(body) if body[:1] == b"{" else body

    def test_http_roundtrip_matches_in_process(self):
        async def scenario():
            app = _app(request_timeout_seconds=30.0)
            client = InProcessClient(app)
            async with app, HttpServer(app) as server:
                http_status, http_payload = await self._roundtrip(
                    server.port, "POST", "/v1/query", _query_payload()
                )
                direct = await client.post("/v1/query", _query_payload())
                assert http_status == 200 == direct.status
                # Same engine, same session: the answers are identical (the
                # io/ticket/memo fields legitimately differ with order).
                assert http_payload["kind"] == direct.payload["kind"]
                assert http_payload["result"] == direct.payload["result"]
                assert direct.payload["served_from_memo"]  # same memo, later seq
                assert server.connections == 1

        _run(scenario())

    def test_http_malformed_request_line_is_400(self):
        async def scenario():
            app = _app()
            async with app, HttpServer(app) as server:
                status, payload = await self._roundtrip(
                    server.port, "", "", raw=b"GARBAGE\r\n\r\n"
                )
                assert status == 400
                assert payload["error"]["code"] == "invalid-request"

        _run(scenario())

    def test_http_oversized_body_is_413_without_buffering_it(self):
        async def scenario():
            app = _app(max_body_bytes=1024)
            async with app, HttpServer(app) as server:
                body = b"y" * 5000
                raw = (
                    b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                status, payload = await self._roundtrip(server.port, "", "", raw=raw)
                assert status == 413
                assert payload["error"]["code"] == "payload-too-large"

        _run(scenario())

    def test_asgi_adapter_rejects_non_serve_apps(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError, match="ServeApp"):
            create_asgi_app("not an app")

    def test_asgi_lifespan_and_request_cycle(self):
        async def scenario():
            app = _app(request_timeout_seconds=30.0)
            asgi = create_asgi_app(app)
            sent = []

            async def receive_http():
                return {"type": "http.request", "body": b"", "more_body": False}

            async def send(message):
                sent.append(message)

            await asgi(
                {"type": "http", "method": "GET", "path": "/v1/health"},
                receive_http,
                send,
            )
            status = sent[0]["status"]
            body = json.loads(sent[1]["body"])
            # Lifespan shutdown closes the app.
            lifespan_messages = iter(
                [{"type": "lifespan.startup"}, {"type": "lifespan.shutdown"}]
            )

            async def receive_lifespan():
                return next(lifespan_messages)

            await asgi({"type": "lifespan"}, receive_lifespan, send)
            return status, body, app.closed

        status, body, closed = _run(scenario())
        assert status == 200 and body["status"] == "ok" and closed

    def test_http_sse_stream_delivers_init_and_delta(self):
        async def scenario():
            app = _app(request_timeout_seconds=30.0)
            client = InProcessClient(app)
            async with app, HttpServer(app) as server:
                subscribed = await client.post("/v1/subscriptions", _query_payload())
                sid = subscribed.payload["subscription"]
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(
                    f"GET /v1/subscriptions/{sid}/stream HTTP/1.1\r\nHost: t\r\n\r\n".encode()
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                assert b"text/event-stream" in head
                init = await asyncio.wait_for(reader.readuntil(b"\n\n"), 10)
                await client.patch("/v1/facilities", _insert_payload(9300))
                delta = await asyncio.wait_for(reader.readuntil(b"\n\n"), 10)
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
                return init, delta

        init, delta = _run(scenario())
        assert init.startswith(b"event: init\n")
        assert delta.startswith(b"event: delta\n")

