"""The serving tier: the session behind a wire, with zero dependencies.

:class:`~repro.serve.ServeApp` wraps one :class:`~repro.api.Session` behind
JSON endpoints — query, batch submit + poll, PATCH facility updates,
subscriptions with SSE delta streams, and rolling latency metrics — and
both transports funnel into the same dispatch: the in-process test client
and the pure-asyncio HTTP/1.1 server.

This example drives the whole surface twice:

* **in process** — no sockets, the transport the differential harness uses
  to prove served payloads bit-identical to direct library calls;
* **over HTTP** — the same app on a real ephemeral port, spoken to with a
  hand-rolled HTTP/1.1 client on asyncio streams (stdlib only).

Run with::

    PYTHONPATH=src python examples/serving.py
"""

from __future__ import annotations

import asyncio
import json

from repro import SkylineRequest, TopKRequest
from repro.datagen import UpdateStreamSpec, WorkloadSpec, make_update_stream, make_workload
from repro.api import Session
from repro.monitor.stream import tick_to_payload
from repro.serve import HttpServer, InProcessClient, ServeApp, ServeConfig, collect_events
from repro.service.requests import request_to_payload


async def in_process_tour(app: ServeApp, requests, ticks) -> None:
    client = InProcessClient(app)

    print("=== One-shot query (POST /v1/query) ===")
    response = await client.post("/v1/query", {"request": requests[0]})
    payload = response.payload
    print(
        f"seq {payload['seq']}: {payload['kind']} -> "
        f"{len(payload['result']['facilities'])} facilities, "
        f"memo hit: {payload['served_from_memo']}"
    )

    print()
    print("=== Batch: submit (POST /v1/batch), then poll ===")
    submitted = await client.post("/v1/batch", {"requests": requests})
    job = submitted.payload["job"]
    while True:
        poll = await client.get(f"/v1/batch/{job}")
        if poll.payload["state"] in ("done", "failed"):
            break
        await asyncio.sleep(0.002)
    outcome = poll.payload["result"]
    print(f"job {job}: {poll.payload['state']}, {len(outcome['responses'])} responses")

    print()
    print("=== Subscription + SSE delta stream across facility updates ===")
    subscribed = await client.post("/v1/subscriptions", {"request": requests[0]})
    sid = subscribed.payload["subscription"]
    stream = await client.stream(sid)
    for updates in ticks:
        patched = await client.patch("/v1/facilities", {"updates": updates})
        print(
            f"tick {patched.payload['index']}: {patched.payload['updates']} updates, "
            f"{len(patched.payload['deltas'])} deltas, "
            f"{patched.payload['invalidated_services']} result caches invalidated"
        )
    events = await collect_events(stream, limit=1 + len(ticks))
    print(
        "stream events: "
        + ", ".join(
            event.event
            + (f" (tick {event.data['tick']})" if event.event == "delta" else "")
            for event in events
        )
    )

    print()
    print("=== Rolling latency percentiles (GET /v1/metrics) ===")
    metrics = (await client.get("/v1/metrics")).payload
    for label in sorted(metrics["endpoints"]):
        summary = metrics["endpoints"][label]
        print(
            f"{label:<12} count {summary['count']:>3}  "
            f"p50 {summary['p50_ms']:.2f} ms  p99 {summary['p99_ms']:.2f} ms"
        )
    admission = metrics["admission"]
    print(
        f"admission: {admission['admitted']} admitted, {admission['rejected']} rejected, "
        f"high water {admission['high_water']}/{admission['capacity']}"
    )


async def http_get(port: int, path: str) -> dict:
    """A minimal HTTP/1.1 GET on asyncio streams — the wire, with no deps."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(None, 2)[1])
    return {"status": status, "payload": json.loads(body)}


async def http_tour(app: ServeApp) -> None:
    print()
    print("=== The same app over real HTTP/1.1 (ephemeral port) ===")
    async with HttpServer(app, port=0) as server:
        health = await http_get(server.port, "/v1/health")
        print(f"GET /v1/health -> {health['status']} {health['payload']}")
        missing = await http_get(server.port, "/v1/batch/nope")
        print(f"GET /v1/batch/nope -> {missing['status']} {missing['payload']}")


async def main() -> None:
    workload = make_workload(
        WorkloadSpec(num_nodes=300, num_facilities=120, num_cost_types=3, num_queries=6, seed=11)
    )
    requests = [
        request_to_payload(
            SkylineRequest(q) if index % 2 == 0 else TopKRequest(q, k=3, weights=(0.5, 0.3, 0.2))
        )
        for index, q in enumerate(workload.queries)
    ]
    ticks = [
        tick_to_payload(tick)
        for tick in make_update_stream(
            workload.graph,
            workload.facilities,
            UpdateStreamSpec(
                num_ticks=2,
                updates_per_tick=3,
                insert_fraction=0.5,
                delete_fraction=0.5,
                relocate_fraction=0.0,
                seed=13,
            ),
            subscription_ids=[],
        )
    ]
    session = Session(workload.graph, workload.facilities)
    app = ServeApp(session, config=ServeConfig(max_in_flight=4))
    async with app:  # owns the session: teardown closes engines and pools
        await in_process_tour(app, requests, ticks)
        await http_tour(app)


if __name__ == "__main__":
    asyncio.run(main())
