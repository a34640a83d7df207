"""The resilience layer under seeded chaos: drain, journal, retry, faults.

Unit suites per subsystem (lifecycle machine, idempotency cache, retry
policy, fault plane, journal recovery), integration suites for the serving
behaviours they compose into (idempotent endpoints, graceful drain, sever
accounting, dataset degradation, worker-death recovery), and the flagship
chaos differential: a seeded fault schedule — injected disk faults,
injected session crashes, severed client connections, one worker kill and
one mid-replay *restart* — driven through the serving tier, with every
acknowledged payload compared against a sequential oracle and the final
facility set checked for lost or double-applied ticks.

``REPRO_CHAOS_SEED`` reseeds the whole chaos run from the environment —
CI runs one pinned seed and one randomized seed per build, logging the
seed so any failure replays locally.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import random
import threading
import time

import pytest

from repro.api import ExecutionPolicy, Session
from repro.bench.driver import ServeReplaySpec, format_serve_report, replay_serve_workload
from repro.core.engine import MCNQueryEngine
from repro.datagen import WorkloadSpec, make_workload
from repro.datagen.updates import UpdateStreamSpec, make_update_stream
from repro.errors import (
    JournalError,
    JournalMismatchError,
    RetryBudgetExceededError,
    ServeError,
    StorageError,
)
from repro.monitor.stream import tick_from_payload, tick_to_payload
from repro.network.facilities import FacilitySet
from repro.parallel import ShardedQueryService
from repro.parallel import service as parallel_service
from repro.serve import (
    FaultPlane,
    HttpServer,
    IdempotencyCache,
    InProcessClient,
    InjectedFault,
    JobJournal,
    RetryPolicy,
    RetryingClient,
    ServeApp,
    ServeConfig,
    ServerLifecycle,
    batch_response_to_payload,
    collect_events,
    execute_fault_hook,
    faulty_disk,
    query_response_to_payload,
    send_with_retry,
    session_fault_hook,
    tick_response_to_payload,
    worker_fault_hook,
)
from repro.serve.journal import _frame
from repro.service.requests import SkylineRequest, request_from_payload, request_to_payload
from repro.storage import SimulatedDisk
from repro.storage.pages import PageKind

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20260808"))

_WORKLOAD = make_workload(
    WorkloadSpec(num_nodes=90, num_facilities=24, num_cost_types=2, num_queries=6, seed=47)
)


def _session():
    return Session(
        _WORKLOAD.graph, FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities))
    )


def _app(session=None, *, journal=None, **config):
    return ServeApp(
        session if session is not None else _session(),
        config=ServeConfig(**config),
        journal=journal,
    )


def _query_payload(index: int = 0):
    return {"request": request_to_payload(SkylineRequest(_WORKLOAD.queries[index]))}


def _tick_payloads(count: int, *, seed: int = 11, updates: int = 2):
    stream = make_update_stream(
        _WORKLOAD.graph,
        FacilitySet(_WORKLOAD.graph, iter(_WORKLOAD.facilities)),
        UpdateStreamSpec(
            num_ticks=count,
            updates_per_tick=updates,
            insert_fraction=0.5,
            delete_fraction=0.5,
            relocate_fraction=0.0,
            seed=seed,
        ),
    )
    return [{"updates": tick_to_payload(tick)} for tick in stream]


def _run(coro):
    return asyncio.run(coro)


def _strip(payload):
    """Drop wall-clock, I/O-counter and ticket fields recursively."""
    if isinstance(payload, dict):
        return {
            key: _strip(value)
            for key, value in payload.items()
            if key not in ("elapsed_seconds", "io", "ticket")
        }
    if isinstance(payload, list):
        return [_strip(item) for item in payload]
    return payload


def _facility_ids(session) -> list:
    return sorted(session.facilities.facility_ids())


# ---------------------------------------------------------------------- #
# Lifecycle state machine
# ---------------------------------------------------------------------- #
class TestLifecycle:
    def test_canonical_progression(self):
        lifecycle = ServerLifecycle()
        assert lifecycle.state == "starting" and lifecycle.accepting
        lifecycle.mark_serving()
        lifecycle.degrade("pack checksum failed")
        assert lifecycle.state == "degraded"
        assert lifecycle.degraded_reason == "pack checksum failed"
        assert lifecycle.accepting
        lifecycle.recover()
        assert lifecycle.state == "serving" and lifecycle.degraded_reason is None
        lifecycle.begin_drain()
        assert lifecycle.draining and not lifecycle.accepting
        lifecycle.mark_closed()
        assert lifecycle.closed

    def test_illegal_transitions_raise(self):
        lifecycle = ServerLifecycle()
        lifecycle.begin_drain()
        with pytest.raises(ServeError, match="illegal lifecycle transition"):
            lifecycle.advance("serving")
        with pytest.raises(ServeError, match="unknown lifecycle state"):
            lifecycle.advance("rebooting")

    def test_degrade_from_starting_passes_through_serving(self):
        lifecycle = ServerLifecycle()
        lifecycle.degrade("early fault")
        assert lifecycle.state == "degraded"
        assert lifecycle.degraded_reason == "early fault"

    def test_mark_closed_is_terminal_from_any_state(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_closed()
        assert lifecycle.closed
        lifecycle.mark_closed()  # idempotent
        with pytest.raises(ServeError, match="illegal lifecycle transition"):
            lifecycle.advance("serving")

    def test_snapshot_counts_transitions(self):
        lifecycle = ServerLifecycle()
        lifecycle.mark_serving()
        lifecycle.degrade("x")
        lifecycle.degrade("y")  # refreshes the reason, not a transition
        assert lifecycle.snapshot() == {
            "state": "degraded", "degraded_reason": "y", "transitions": 2,
        }


# ---------------------------------------------------------------------- #
# Idempotency cache + retry policy units
# ---------------------------------------------------------------------- #
class TestIdempotencyCache:
    def test_lru_eviction_and_counters(self):
        cache = IdempotencyCache(2)
        cache.store("a", "fa", 200, {"n": 1})
        cache.store("b", "fb", 200, {"n": 2})
        assert cache.lookup("a").payload == {"n": 1}  # refreshes a
        cache.store("c", "fc", 200, {"n": 3})  # evicts b, the oldest
        assert cache.lookup("b") is None
        assert cache.lookup("a") is not None and cache.lookup("c") is not None
        assert cache.evicted == 1 and cache.stored == 3 and cache.hits == 3
        assert len(cache) == 2
        snapshot = cache.snapshot()
        assert snapshot["capacity"] == 2 and snapshot["size"] == 2


class TestRetryPolicy:
    def test_delay_is_jittered_and_capped(self):
        policy = RetryPolicy(base_delay_seconds=0.1, max_delay_seconds=0.3)
        rng = random.Random(7)
        for attempt, cap in ((0, 0.1), (1, 0.2), (2, 0.3), (6, 0.3)):
            for _ in range(50):
                assert 0.0 <= policy.delay_for(attempt, rng=rng) <= cap

    def test_retry_after_is_a_floor(self):
        policy = RetryPolicy(base_delay_seconds=0.001, max_delay_seconds=0.002)
        delay = policy.delay_for(0, rng=random.Random(1), retry_after=1.5)
        assert delay >= 1.5

    def test_fatal_codes_beat_retryable_statuses(self):
        policy = RetryPolicy()
        assert policy.is_retryable(503, "draining")
        assert not policy.is_retryable(503, "closed")
        assert not policy.is_retryable(400, "invalid-request")

    def test_validation(self):
        with pytest.raises(ServeError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ServeError, match="budget_seconds"):
            RetryPolicy(budget_seconds=0.0)

    def test_send_with_retry_rides_out_transients(self):
        class _Answer:
            def __init__(self, status, payload):
                self.status, self.payload = status, payload

        answers = [
            _Answer(429, {"error": {"code": "saturated", "message": "busy"}}),
            ConnectionResetError("severed"),
            _Answer(200, {"ok": True}),
        ]
        sleeps = []

        async def send():
            answer = answers.pop(0)
            if isinstance(answer, BaseException):
                raise answer
            return answer

        async def sleep(delay):
            sleeps.append(delay)

        response = _run(send_with_retry(send, sleep=sleep, rng=random.Random(3)))
        assert response.payload == {"ok": True}
        assert len(sleeps) == 2

    def test_send_with_retry_exhausts_attempts(self):
        class _Answer:
            status = 503
            payload = {"error": {"code": "dataset-unavailable", "message": "no"}}

        async def send():
            return _Answer()

        async def sleep(_delay):
            pass

        policy = RetryPolicy(max_attempts=3, base_delay_seconds=0.0)
        with pytest.raises(RetryBudgetExceededError) as info:
            _run(send_with_retry(send, policy=policy, sleep=sleep))
        assert info.value.attempts == 3 and info.value.status == 503

    def test_send_with_retry_respects_the_wallclock_budget(self):
        class _Answer:
            status = 503
            payload = {
                "error": {"code": "draining", "message": "later", "retry_after": 10.0}
            }

        async def send():
            return _Answer()

        async def sleep(_delay):  # pragma: no cover - the budget refuses the sleep
            raise AssertionError("the budget should refuse a 10s retry_after sleep")

        policy = RetryPolicy(max_attempts=5, budget_seconds=1.0)
        with pytest.raises(RetryBudgetExceededError) as info:
            _run(send_with_retry(send, policy=policy, sleep=sleep))
        assert info.value.attempts == 1


# ---------------------------------------------------------------------- #
# Fault plane
# ---------------------------------------------------------------------- #
class TestFaultPlane:
    def test_at_schedule_counts_invocations_per_point(self):
        plane = FaultPlane()
        plane.schedule("disk.read", at=(1, 3))
        fired = [plane.should_fire("disk.read") for _ in range(5)]
        assert fired == [False, True, False, True, False]
        assert plane.invocations("disk.read") == 5
        assert plane.fired["disk.read"] == 2
        assert plane.should_fire("other.point") is False

    def test_probability_schedule_is_seeded_and_capped(self):
        def run(seed):
            plane = FaultPlane(seed)
            plane.schedule("session.query", probability=0.5, times=3)
            return [plane.should_fire("session.query") for _ in range(40)]

        assert run(9) == run(9)
        assert sum(run(9)) == 3  # the times cap holds

    def test_explicit_index_is_stateless(self):
        plane = FaultPlane()
        plane.schedule("worker.kill", at=2)
        assert plane.should_fire("worker.kill", index=2)
        assert plane.should_fire("worker.kill", index=2)  # no counter consumed
        assert not plane.should_fire("worker.kill", index=0)

    def test_schedule_validation(self):
        plane = FaultPlane()
        with pytest.raises(ServeError, match="exactly"):
            plane.schedule("p")
        with pytest.raises(ServeError, match="exactly"):
            plane.schedule("p", at=0, probability=0.5)
        with pytest.raises(ServeError, match="probability"):
            plane.schedule("p", probability=1.5)

    def test_faulty_disk_raises_storage_error_on_schedule(self):
        disk = SimulatedDisk(page_size=256)
        page = disk.allocate(PageKind.ADJACENCY)
        plane = FaultPlane()
        plane.schedule("disk.read", at=1)
        wrapped = faulty_disk(disk, plane)
        assert wrapped.read(page.page_id) is page  # invocation 0 delegates
        with pytest.raises(StorageError, match="injected disk fault"):
            wrapped.read(page.page_id)
        assert wrapped.page_size == 256  # attribute delegation

    def test_session_fault_hook_raises_injected_fault(self):
        plane = FaultPlane()
        plane.schedule("session.query", at=0)
        session = _session()
        session.fault_hook = session_fault_hook(plane)
        with pytest.raises(InjectedFault):
            session.query(SkylineRequest(_WORKLOAD.queries[0]))
        # the schedule is spent; the session works again
        assert session.query(SkylineRequest(_WORKLOAD.queries[0])).result is not None
        session.close()


# ---------------------------------------------------------------------- #
# Idempotency over the wire
# ---------------------------------------------------------------------- #
class TestIdempotentEndpoints:
    def test_retried_tick_applies_exactly_once(self):
        async def scenario():
            app = _app()
            client = InProcessClient(app)
            async with app:
                tick = _tick_payloads(1)[0]
                headers = {"idempotency-key": "tick-1"}
                first = await client.patch("/v1/facilities", tick, headers=headers)
                assert first.status == 200
                after_first = _facility_ids(app.session)
                second = await client.patch("/v1/facilities", tick, headers=headers)
                assert second.status == 200
                assert second.payload == first.payload  # replayed, not re-applied
                assert _facility_ids(app.session) == after_first
                assert app.idempotency.hits == 1
                metrics = (await client.get("/v1/metrics")).payload
                assert metrics["idempotency"]["stored"] == 1

        _run(scenario())

    def test_key_reuse_with_a_different_body_conflicts(self):
        async def scenario():
            app = _app()
            client = InProcessClient(app)
            async with app:
                headers = {"idempotency-key": "k"}
                first = await client.post("/v1/query", _query_payload(0), headers=headers)
                assert first.status == 200
                clash = await client.post("/v1/query", _query_payload(1), headers=headers)
                assert clash.status == 409
                assert clash.payload["error"]["code"] == "conflict"
                assert "retry_after" not in clash.payload["error"]
                assert app.idempotency.conflicts == 1

        _run(scenario())

    def test_in_flight_duplicate_conflicts_with_retry_hint(self):
        async def scenario():
            app = _app()
            client = InProcessClient(app)
            release = threading.Event()
            app.before_execute = lambda _label: release.wait(timeout=5)
            async with app:
                headers = {"idempotency-key": "dup"}
                first = asyncio.create_task(
                    client.post("/v1/query", _query_payload(0), headers=headers)
                )
                await asyncio.sleep(0.05)
                second = await client.post("/v1/query", _query_payload(0), headers=headers)
                assert second.status == 409
                assert second.payload["error"]["retry_after"] > 0
                app.before_execute = None
                release.set()
                assert (await first).status == 200

        _run(scenario())

    def test_error_answers_are_not_cached(self):
        async def scenario():
            app = _app()
            client = InProcessClient(app)
            plane = FaultPlane()
            plane.schedule("execute.query", at=0)
            app.before_execute = execute_fault_hook(plane)
            async with app:
                headers = {"idempotency-key": "once"}
                failed = await client.post("/v1/query", _query_payload(0), headers=headers)
                assert failed.status == 500
                assert failed.payload["error"]["code"] == "internal"
                retried = await client.post("/v1/query", _query_payload(0), headers=headers)
                assert retried.status == 200  # the failure was not replayed

        _run(scenario())

    def test_retrying_client_replays_a_severed_mutation_without_reapplying(self):
        async def scenario():
            app = _app()
            plane = FaultPlane()
            plane.schedule("connection.send", at=0)
            client = RetryingClient(
                InProcessClient(app, fault_plane=plane),
                policy=RetryPolicy(base_delay_seconds=0.001, max_delay_seconds=0.01),
                seed=5,
            )
            async with app:
                response = await client.patch("/v1/facilities", _tick_payloads(1)[0])
                assert response.status == 200
                assert client.retries == 1  # the sever cost one retry
                # applied once: the idempotency cache answered the retry
                assert app.idempotency.hits == 1
                metrics = app.metrics()
                assert metrics["severed"] == 1

        _run(scenario())


# ---------------------------------------------------------------------- #
# Drain
# ---------------------------------------------------------------------- #
class TestDrain:
    def test_drain_finishes_in_flight_work_then_refuses_new(self):
        async def scenario():
            app = _app()
            client = InProcessClient(app)
            release = threading.Event()
            started = threading.Event()

            def hold(_label):
                started.set()
                release.wait(timeout=5)

            app.before_execute = hold
            async with app:
                in_flight = asyncio.create_task(
                    client.post("/v1/query", _query_payload(0))
                )
                await asyncio.to_thread(started.wait, 5)
                drain = asyncio.create_task(app.drain(deadline=5.0))
                await asyncio.sleep(0.02)
                assert app.lifecycle.draining
                refused = await client.post("/v1/query", _query_payload(1))
                assert refused.status == 503
                assert refused.payload["error"]["code"] == "draining"
                assert refused.payload["error"]["retry_after"] > 0
                health = await client.get("/v1/health")
                assert health.payload["state"] == "draining"
                app.before_execute = None
                release.set()
                held = await in_flight
                assert held.status == 200  # acknowledged work was NOT dropped
                report = await drain
                assert report.clean and report.jobs_cancelled == 0
                assert app.closed

        _run(scenario())

    def test_forced_drain_cancels_jobs_and_reports_it(self):
        async def scenario():
            app = _app()
            client = InProcessClient(app)
            release = threading.Event()
            app.before_execute = lambda _label: release.wait(timeout=5)
            async with app:
                ack = await client.post(
                    "/v1/batch", {"requests": [_query_payload(0)["request"]]}
                )
                assert ack.status == 202
                await asyncio.sleep(0.02)
                drain = asyncio.create_task(app.drain(deadline=0.05))
                await asyncio.sleep(0.15)
                release.set()  # free the executor so the close can finish
                report = await drain
                assert report.forced and report.jobs_cancelled == 1
                assert not report.journal_closed
                poll = await client.get(f"/v1/batch/{ack.payload['job']}")
                assert poll.payload["error"]["code"] == "closed"

        _run(scenario())

    def test_drain_sends_terminal_event_to_streams(self):
        async def scenario():
            app = _app()
            client = InProcessClient(app)
            async with app:
                subscribed = await client.post(
                    "/v1/subscriptions", {"request": _query_payload(0)["request"]}
                )
                assert subscribed.status == 201
                sid = subscribed.payload["subscription"]
                stream = await client.stream(sid)
                report = await app.drain(deadline=1.0)
                assert report.clean and report.streams_closed == 1
                events = await collect_events(stream)
                assert events[-1].event == "server-closing"

        _run(scenario())

    def test_drain_on_a_closed_app_is_trivially_clean(self):
        async def scenario():
            app = _app()
            await app.aclose()
            report = await app.drain()
            assert report.clean and report.waited_seconds == 0.0

        _run(scenario())


# ---------------------------------------------------------------------- #
# The load-replay drain harness (bench driver integration)
# ---------------------------------------------------------------------- #
class TestDrainUnderLoad:
    SPEC = dict(
        workload=WorkloadSpec(
            num_nodes=120, num_facilities=30, num_cost_types=2, num_queries=6, seed=11
        ),
        duplicates=3,
        ticks=2,
        updates_per_tick=2,
        clients=4,
    )

    def test_drain_mid_load_keeps_every_acknowledged_payload(self, tmp_path):
        path = str(tmp_path / "replay-journal.jsonl")
        report = replay_serve_workload(
            ServeReplaySpec(**self.SPEC, drain_after=5, journal_path=path)
        )
        assert report.drain is not None and report.drain["clean"]
        # zero dropped acknowledged requests: every acked payload matched
        assert report.clean and report.mismatched_ops == []
        assert report.metrics["lifecycle"]["state"] == "closed"
        # a clean drain recorded the journal's close marker
        assert report.metrics["journal"]["clean_close_recorded"]
        text = format_serve_report(report)
        assert "drain" in text

    def test_undrained_replay_reports_no_drain(self):
        report = replay_serve_workload(ServeReplaySpec(**self.SPEC))
        assert report.drain is None and report.unserved_ops == 0
        assert report.clean


# ---------------------------------------------------------------------- #
# Dataset faults degrade, never 500
# ---------------------------------------------------------------------- #
class TestDatasetUnavailable:
    def test_storage_error_becomes_503_and_degraded_health(self):
        async def scenario():
            app = _app()
            client = InProcessClient(app)
            plane = FaultPlane()
            plane.schedule("disk.read", at=0)

            def disk_fault(_label):
                if plane.should_fire("disk.read"):
                    raise StorageError("pack page 7 failed its checksum")

            app.before_execute = disk_fault
            async with app:
                broken = await client.post("/v1/query", _query_payload(0))
                assert broken.status == 503
                assert broken.payload["error"]["code"] == "dataset-unavailable"
                assert broken.payload["error"]["retry_after"] > 0
                assert "Traceback" not in broken.payload["error"]["message"]
                health = await client.get("/v1/health")
                assert health.payload["status"] == "degraded"
                metrics = (await client.get("/v1/metrics")).payload
                assert metrics["lifecycle"]["state"] == "degraded"
                assert "checksum" in metrics["lifecycle"]["degraded_reason"]
                # the next successful work-class request recovers the state
                healed = await client.post("/v1/query", _query_payload(0))
                assert healed.status == 200
                assert (await client.get("/v1/health")).payload["status"] == "ok"

        _run(scenario())


# ---------------------------------------------------------------------- #
# Severed connections release their admission slot
# ---------------------------------------------------------------------- #
class TestSeverAccounting:
    def test_in_process_sever_releases_slot_and_counts_severed(self):
        async def scenario():
            app = _app()
            plane = FaultPlane()
            plane.schedule("connection.send", at=0)
            client = InProcessClient(app, fault_plane=plane)
            async with app:
                with pytest.raises(ConnectionResetError):
                    await client.post("/v1/query", _query_payload(0))
                assert app.admission.in_flight == 0  # the slot was released
                metrics = (await client.get("/v1/metrics")).payload
                assert metrics["severed"] == 1
                # the computed-but-undelivered answer is not counted served
                assert metrics["served"] == metrics["requests"] - metrics["errors"] - 1

        _run(scenario())

    def test_http_sever_before_response_write_releases_slot(self):
        async def scenario():
            app = _app()
            plane = FaultPlane()
            plane.schedule("connection.send", at=0)
            async with app, HttpServer(app, port=0, fault_plane=plane) as server:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                body = json.dumps(_query_payload(0)).encode()
                writer.write(
                    b"POST /v1/query HTTP/1.1\r\nHost: t\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                try:
                    answer = await reader.read()
                except ConnectionResetError:
                    answer = b""
                assert answer == b""  # aborted before anything was written
                writer.close()
                await asyncio.sleep(0.05)
                assert app.admission.in_flight == 0
                metrics = (await InProcessClient(app).get("/v1/metrics")).payload
                assert metrics["severed"] == 1
                assert metrics["served"] == metrics["requests"] - metrics["errors"] - 1

        _run(scenario())

    def test_client_vanishing_mid_body_is_not_an_admission_leak(self):
        async def scenario():
            app = _app()
            async with app, HttpServer(app, port=0) as server:
                _reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(
                    b"POST /v1/query HTTP/1.1\r\nHost: t\r\nContent-Length: 500\r\n\r\ntru"
                )
                await writer.drain()
                writer.close()  # vanish before the body arrives
                await asyncio.sleep(0.05)
                assert app.admission.in_flight == 0
                follow_up = await InProcessClient(app).post(
                    "/v1/query", _query_payload(0)
                )
                assert follow_up.status == 200

        _run(scenario())


# ---------------------------------------------------------------------- #
# Journal recovery edge cases
# ---------------------------------------------------------------------- #
class TestJournalRecovery:
    @staticmethod
    async def _poll(client, job_id, tries=600):
        poll = None
        for _ in range(tries):
            poll = await client.get(f"/v1/batch/{job_id}")
            if poll.payload["state"] in ("done", "failed"):
                return poll.payload
            await asyncio.sleep(0.01)
        raise AssertionError(f"job {job_id} never finished: {poll.payload}")

    def test_round_trip_recovers_jobs_and_ticks(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")

        async def first_process():
            session = _session()
            journal = JobJournal(
                path, fingerprint=session.dataset_fingerprint(), sync=False
            )
            app = ServeApp(session, journal=journal)
            client = InProcessClient(app)
            async with app:
                tick = await client.patch(
                    "/v1/facilities", _tick_payloads(1)[0],
                    headers={"idempotency-key": "t0"},
                )
                assert tick.status == 200
                done = await client.post(
                    "/v1/batch", {"requests": [_query_payload(0)["request"]]}
                )
                poll = await self._poll(client, done.payload["job"])
                assert poll["state"] == "done"
                hold = threading.Event()
                app.before_execute = lambda _label: hold.wait(timeout=0.2)
                pending = await client.post(
                    "/v1/batch", {"requests": [_query_payload(1)["request"]]}
                )
                assert pending.status == 202
                # hard stop (no drain, no close record): the second job is
                # acknowledged in the journal but never finishes
                return tick.payload, poll, done.payload["job"], pending.payload["job"]

        tick_payload, finished, done_id, pending_id = _run(first_process())

        async def second_process():
            session = _session()
            journal = JobJournal(
                path, fingerprint=session.dataset_fingerprint(), sync=False
            )
            assert not journal.recovery.clean_close
            app = ServeApp(session, journal=journal)
            client = InProcessClient(app)
            async with app:
                summary = app.last_recovery
                assert summary["jobs"] == 2
                assert summary["ticks_reapplied"] == 1
                # the finished job answers from the journal, no recompute
                replayed = await client.get(f"/v1/batch/{done_id}")
                assert replayed.payload["result"] == finished["result"]
                # the acknowledged-but-unfinished job was re-executed
                poll = await self._poll(client, pending_id)
                assert poll["state"] == "done"
                # a client retrying the acknowledged tick gets the original
                # answer; the update is NOT applied twice
                before = _facility_ids(app.session)
                retried = await client.patch(
                    "/v1/facilities", _tick_payloads(1)[0],
                    headers={"idempotency-key": "t0"},
                )
                assert retried.payload == tick_payload
                assert _facility_ids(app.session) == before
                # new job ids continue past the recovered counter
                fresh = await client.post(
                    "/v1/batch", {"requests": [_query_payload(2)["request"]]}
                )
                numbers = [int(j.rsplit("-", 1)[1]) for j in (done_id, pending_id)]
                assert int(fresh.payload["job"].rsplit("-", 1)[1]) > max(numbers)
                await self._poll(client, fresh.payload["job"])
                report = await app.drain(deadline=5.0)
                assert report.clean and report.journal_closed

        _run(second_process())
        third = JobJournal(
            path, fingerprint=_session().dataset_fingerprint(), sync=False
        )
        assert third.recovery.clean_close
        third.close()

    def test_torn_final_record_is_truncated(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        journal = JobJournal(path, fingerprint="shape:abc", sync=False)
        journal.record_job_submitted("job-1", [{"kind": "skyline"}], None)
        journal.close()
        with open(path, "ab") as handle:
            handle.write(_frame({"type": "job", "job": "job-2", "requests": []})[:-9])
        reopened = JobJournal(path, fingerprint="shape:abc", sync=False)
        assert reopened.recovery.truncated_bytes > 0
        assert list(reopened.recovery.jobs) == ["job-1"]
        reopened.close()
        # the torn bytes were physically truncated: a third open is clean
        third = JobJournal(path, fingerprint="shape:abc", sync=False)
        assert third.recovery.truncated_bytes == 0
        third.close()

    def test_interior_corruption_refuses_with_journal_error(self, tmp_path):
        path = str(tmp_path / "corrupt.jsonl")
        journal = JobJournal(path, fingerprint="shape:abc", sync=False)
        journal.record_job_submitted("job-1", [], None)
        journal.close()
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(b"xx" + raw[2:])  # damage the open header, keep the rest
        with pytest.raises(JournalError, match="corrupt at byte 0"):
            JobJournal(path, fingerprint="shape:abc", sync=False)

    def test_fingerprint_mismatch_refuses_with_typed_error(self, tmp_path):
        path = str(tmp_path / "mismatch.jsonl")
        journal = JobJournal(path, fingerprint="pack:deadbeef", sync=False)
        journal.record_job_submitted("job-1", [], None)
        journal.close()
        with pytest.raises(JournalMismatchError, match="stale"):
            JobJournal(path, fingerprint="pack:cafebabe", sync=False)

    def test_duplicate_job_ids_collapse_to_the_newest_record(self, tmp_path):
        path = str(tmp_path / "dup.jsonl")
        with open(path, "wb") as handle:
            handle.write(
                _frame({"type": "open", "version": 1, "fingerprint": "shape:abc"})
            )
            handle.write(_frame({"type": "job", "job": "job-1", "requests": [{"v": 1}]}))
            handle.write(_frame({"type": "job", "job": "job-1", "requests": [{"v": 2}]}))
        journal = JobJournal(path, fingerprint="shape:abc", sync=False)
        assert len(journal.recovery.jobs) == 1
        assert journal.recovery.max_job_number == 1
        journal.close()

    def test_records_after_a_close_marker_reopen_the_journal(self, tmp_path):
        path = str(tmp_path / "reopened.jsonl")
        journal = JobJournal(path, fingerprint="shape:abc", sync=False)
        journal.record_close()
        journal.close()
        second = JobJournal(path, fingerprint="shape:abc", sync=False)
        assert second.recovery.clean_close
        second.record_job_submitted("job-1", [], None)
        second.close()
        third = JobJournal(path, fingerprint="shape:abc", sync=False)
        assert not third.recovery.clean_close  # work followed the close marker
        assert list(third.recovery.jobs) == ["job-1"]
        third.close()

    def test_unknown_record_type_refuses(self, tmp_path):
        path = str(tmp_path / "unknown.jsonl")
        with open(path, "wb") as handle:
            handle.write(
                _frame({"type": "open", "version": 1, "fingerprint": "shape:abc"})
            )
            handle.write(_frame({"type": "compactions", "n": 3}))
        with pytest.raises(JournalError, match="unknown record type"):
            JobJournal(path, fingerprint="shape:abc", sync=False)

    def test_version_skew_refuses(self, tmp_path):
        path = str(tmp_path / "versioned.jsonl")
        with open(path, "wb") as handle:
            handle.write(
                _frame({"type": "open", "version": 99, "fingerprint": "shape:abc"})
            )
        with pytest.raises(JournalError, match="format version"):
            JobJournal(path, fingerprint="shape:abc", sync=False)

    def test_dataset_fingerprint_is_stable_and_shape_sensitive(self):
        assert _session().dataset_fingerprint() == _session().dataset_fingerprint()
        other = make_workload(
            WorkloadSpec(
                num_nodes=60, num_facilities=10, num_cost_types=2, num_queries=2, seed=3
            )
        )
        different = Session(
            other.graph, FacilitySet(other.graph, iter(other.facilities))
        )
        assert different.dataset_fingerprint() != _session().dataset_fingerprint()
        different.close()

    def test_fingerprint_describes_the_pristine_workload(self):
        # Ticks mutate the facility set; the fingerprint must not move, or
        # a journal reopen against the same dataset would refuse itself.
        session = _session()
        before = session.dataset_fingerprint()
        handle = session.monitor(())
        handle.tick(tick_from_payload(_tick_payloads(1)[0]["updates"]))
        assert session.dataset_fingerprint() == before
        session.close()


# ---------------------------------------------------------------------- #
# Worker death and hang recovery (sharded execution layer)
# ---------------------------------------------------------------------- #
class TestWorkerFaults:
    def _run_sharded(self, *, executor="process", hook=None, shard_timeout=None):
        engine = MCNQueryEngine(_WORKLOAD.graph, _WORKLOAD.facilities)
        requests = [SkylineRequest(q) for q in _WORKLOAD.queries[:4]]
        service = ShardedQueryService(
            engine, policy=ExecutionPolicy(workers=2, executor=executor)
        )
        parallel_service.set_worker_fault_hook(hook)
        parallel_service.set_shard_timeout(shard_timeout)
        try:
            return service.run_batch(requests)
        finally:
            parallel_service.set_worker_fault_hook(None)
            parallel_service.set_shard_timeout(None)

    def test_killed_worker_shard_retries_on_the_parent(self):
        baseline = self._run_sharded(executor="serial")
        plane = FaultPlane(seed=CHAOS_SEED)
        plane.schedule("worker.kill", at=0)
        survived = self._run_sharded(hook=worker_fault_hook(plane))
        assert survived.retried_shards  # the pool broke and shards re-ran
        assert [o.result.facilities for o in survived.outcomes] == [
            o.result.facilities for o in baseline.outcomes
        ]
        assert survived.describe()["retried_shards"] == list(survived.retried_shards)

    def test_hung_worker_shard_retries_after_the_deadline(self):
        baseline = self._run_sharded(executor="serial")
        plane = FaultPlane(seed=CHAOS_SEED)
        plane.schedule("worker.hang", at=1)
        started = time.monotonic()
        survived = self._run_sharded(
            hook=worker_fault_hook(plane, hang_seconds=30.0), shard_timeout=0.25
        )
        # The deadline bounds the batch: the hung worker is terminated, not
        # waited for, and no pool process outlives the batch.
        assert time.monotonic() - started < 10.0
        assert multiprocessing.active_children() == []
        assert 1 in survived.retried_shards
        assert [o.result.facilities for o in survived.outcomes] == [
            o.result.facilities for o in baseline.outcomes
        ]

    def test_clean_run_reports_no_retried_shards(self):
        report = self._run_sharded()
        assert report.retried_shards == ()


# ---------------------------------------------------------------------- #
# The chaos differential
# ---------------------------------------------------------------------- #
class TestChaosDifferential:
    """Seeded faults + severs + one worker kill + one mid-replay restart.

    Two epochs over one journal.  Epoch 0 serves concurrent lanes through
    a fault-ridden transport (injected disk faults, injected session
    crashes, severed acks) behind a retrying client, acknowledges a
    sharded batch job, and then the process "crashes" (hard close, no
    drain).  Epoch 1 recovers on a fresh session: journaled ticks re-apply
    exactly once, the acknowledged job re-executes — through a worker kill
    — and more chaos lanes run before a clean drain.  Every acknowledged
    payload must match a single sequential oracle replaying the
    acknowledged operations in ``seq`` order with the re-executed job at
    the restart boundary, and the surviving facility sets must agree (no
    tick lost, none applied twice).
    """

    def test_acknowledged_work_matches_the_sequential_oracle(self, tmp_path):
        seed = CHAOS_SEED
        print(f"chaos seed: {seed}")  # pytest -s replays any failure locally
        path = str(tmp_path / f"chaos-{seed}.jsonl")
        queries = [_query_payload(i % len(_WORKLOAD.queries)) for i in range(10)]
        ticks = _tick_payloads(4, seed=seed % 1000 + 3)
        epoch0 = [("q", f"q{i}", queries[i]) for i in range(6)]
        epoch0 += [("t", f"t{i}", ticks[i]) for i in range(2)]
        epoch1 = [("q", f"q{i}", queries[i]) for i in range(6, 10)]
        epoch1 += [("t", f"t{i}", ticks[i]) for i in range(2, 4)]
        batch_requests = [q["request"] for q in queries[:3]]
        batch_policy = {"workers": 2, "executor": "process"}

        plane = FaultPlane(seed)
        plane.schedule("disk.read", probability=0.2, times=2)
        plane.schedule("session.query", probability=0.15, times=2)
        plane.schedule("connection.send", probability=0.15, times=3)
        plane.schedule("worker.kill", at=0)
        chaos_policy = RetryPolicy(
            max_attempts=10,
            base_delay_seconds=0.001,
            max_delay_seconds=0.01,
            budget_seconds=30.0,
            # injected session faults surface as 500 internal — exactly like
            # a real unforeseen crash — so the chaos client retries them too
            retryable_statuses=(409, 429, 500, 503, 504),
        )

        def disk_fault(_label):
            if plane.should_fire("disk.read"):
                raise StorageError(f"injected pack read failure (seed {seed})")

        acked: dict[str, tuple[int, dict]] = {}

        async def fire(epoch, app, ops, serial_prefix=0):
            client = RetryingClient(
                InProcessClient(app, fault_plane=plane),
                policy=chaos_policy,
                seed=seed + epoch,
                key_prefix=f"e{epoch}",
            )

            async def run_op(op):
                kind, op_id, payload = op
                if kind == "q":
                    response = await client.post("/v1/query", payload)
                else:
                    # explicit keys so the restart phase can replay a tick
                    # with the key its original acknowledgement used
                    response = await client.patch(
                        "/v1/facilities", payload, idempotency_key=f"chaos-{op_id}"
                    )
                assert response.ok, (op_id, response.payload)
                acked[op_id] = (epoch, response.payload)

            for op in ops[:serial_prefix]:
                await run_op(op)
            rest = ops[serial_prefix:]
            tick_lane = [op for op in rest if op[0] == "t"]
            query_ops = [op for op in rest if op[0] == "q"]

            async def lane(lane_ops):
                for op in lane_ops:
                    await run_op(op)

            await asyncio.gather(
                lane(tick_lane), lane(query_ops[0::2]), lane(query_ops[1::2])
            )

        async def epoch_zero():
            session = _session()
            session.fault_hook = session_fault_hook(plane)
            journal = JobJournal(
                path, fingerprint=session.dataset_fingerprint(), sync=False
            )
            app = ServeApp(session, journal=journal)
            async with app:
                app.before_execute = disk_fault
                await fire(0, app, epoch0)
                ack = await InProcessClient(app).post(
                    "/v1/batch",
                    {"requests": batch_requests, "policy": batch_policy},
                )
                assert ack.status == 202
                return ack.payload["job"]
            # exiting the context is the crash: a hard close with no drain
            # and no clean-close record — the acknowledged job is lost work
            # unless the journal brings it back

        async def epoch_one(job_id):
            session = _session()
            session.fault_hook = session_fault_hook(plane)
            journal = JobJournal(
                path, fingerprint=session.dataset_fingerprint(), sync=False
            )
            assert not journal.recovery.clean_close
            app = ServeApp(session, journal=journal)
            # arm the worker kill for the recovery's job re-execution: shard
            # 0's pool worker dies hard (the kill point fires in the forked
            # child, so the parent plane never sees it — the proof of
            # survival is the job finishing with oracle-identical results)
            parallel_service.set_worker_fault_hook(worker_fault_hook(plane))
            try:
                async with app:
                    assert app.last_recovery["ticks_reapplied"] == 2
                    client = InProcessClient(app)
                    job = await TestJournalRecovery._poll(client, job_id)
                    assert job["state"] == "done", job
                    # a tick acknowledged before the crash, retried with its
                    # original idempotency key, answers from the journal
                    # instead of double-applying
                    before = _facility_ids(app.session)
                    replay = await client.patch(
                        "/v1/facilities", ticks[0],
                        headers={"idempotency-key": "chaos-t0"},
                    )
                    assert replay.status == 200
                    assert replay.payload == acked["t0"][1]
                    assert _facility_ids(app.session) == before
                    await fire(1, app, epoch1, serial_prefix=1)
                    survivors = _facility_ids(app.session)
                    report = await app.drain(deadline=10.0)
                    assert report.clean and report.journal_closed
                    return job["result"], survivors
            finally:
                parallel_service.set_worker_fault_hook(None)

        job_id = _run(epoch_zero())
        job_result, survivors = _run(epoch_one(job_id))
        closing = JobJournal(
            path, fingerprint=_session().dataset_fingerprint(), sync=False
        )
        assert closing.recovery.clean_close
        closing.close()

        # ---- the sequential oracle ----------------------------------- #
        assert len(acked) == len(epoch0) + len(epoch1), "an acknowledged op was lost"
        all_ops = {op_id: (kind, payload) for kind, op_id, payload in epoch0 + epoch1}
        order = sorted(
            acked, key=lambda op_id: (acked[op_id][0], acked[op_id][1]["seq"])
        )
        epoch0_ids = [op_id for op_id in order if acked[op_id][0] == 0]
        epoch1_ids = [op_id for op_id in order if acked[op_id][0] == 1]

        with _session() as oracle:
            handle = None
            expected: dict[str, dict] = {}

            def run_op(op_id):
                nonlocal handle
                kind, payload = all_ops[op_id]
                if kind == "q":
                    response = oracle.query(request_from_payload(payload["request"]))
                    expected[op_id] = query_response_to_payload(response)
                else:
                    if handle is None:
                        handle = oracle.monitor(())
                    response = handle.tick(tick_from_payload(payload["updates"]))
                    invalidated = oracle.invalidate_result_caches()
                    expected[op_id] = {
                        "invalidated_services": invalidated,
                        **tick_response_to_payload(response),
                    }

            for op_id in epoch0_ids:
                run_op(op_id)
            # the restart boundary: the crashed process's memo died with it,
            # and the journaled job re-executes here — after every epoch-0
            # tick, before any epoch-1 operation
            oracle.invalidate_result_caches()
            oracle_batch = oracle.run_batch(
                [request_from_payload(r) for r in batch_requests],
                policy=ExecutionPolicy(**batch_policy),
            )
            for op_id in epoch1_ids:
                run_op(op_id)
            oracle_facilities = _facility_ids(oracle)

            for op_id in order:
                got = dict(acked[op_id][1])
                got.pop("seq", None)
                assert _strip(got) == _strip(expected[op_id]), (
                    f"acknowledged op {op_id} diverged from the oracle "
                    f"(chaos seed {seed})"
                )
            got_job = dict(job_result)
            got_job.pop("seq", None)
            assert _strip(got_job) == _strip(
                batch_response_to_payload(oracle_batch)
            ), f"the recovered batch job diverged from the oracle (seed {seed})"
        # no tick lost, none double-applied: the facility sets agree
        assert survivors == oracle_facilities, f"tick divergence (seed {seed})"
        # the chaos actually happened: the transport plane fired something
        assert sum(plane.fired.values()) >= 1, plane.snapshot()
