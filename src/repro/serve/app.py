"""The transport-agnostic serving application: routes, handlers, limits.

:class:`ServeApp` is the front door over one :class:`~repro.api.Session`.
It is **transport-agnostic**: a request is a plain
:class:`ServeRequest` (method, path, raw body) and the answer is either a
:class:`ServeResponse` (status + JSON payload) or a
:class:`StreamResponse` (an SSE delta feed).  The pure-asyncio HTTP/1.1
listener (:mod:`repro.serve.http`) and the in-process test transport
(:mod:`repro.serve.testing`) both speak exactly this interface, so every
conformance and fault-injection test of the app covers the network path's
behaviour too.

Endpoints (all JSON)::

    GET    /v1/health                      liveness + version
    GET    /v1/metrics                     rolling latency percentiles, limits
    POST   /v1/query                       one skyline / top-k request
    POST   /v1/batch                       submit a batch job (202 + job id)
    GET    /v1/batch/{job}                 poll a batch job
    PATCH  /v1/facilities                  apply one facility tick (insert /
                                           delete / relocate) + invalidate
    PATCH  /v1/edges                       apply one edge-cost tick
                                           (re-profiled edge vectors)
    POST   /v1/subscriptions               register a long-lived subscription
    DELETE /v1/subscriptions/{sid}         drop a subscription
    GET    /v1/subscriptions/{sid}/stream  live DeltaReports over SSE

Execution model — correctness first: every session call runs on **one**
worker thread (the session executor), so concurrent clients are admitted
concurrently but execute in a single serialised order.  Each unit of work
is stamped with a monotonically increasing ``seq`` *inside* that thread;
replaying the same operations against a direct :class:`~repro.api.Session`
in ``seq`` order must reproduce every payload bit-identically — which is
precisely what the async load-replay differential harness asserts.

Robustness is part of the contract, not an afterthought: bounded
in-flight admission with instant ``saturated`` rejection, per-request
deadlines with clean cancellation (an expired request frees the
connection; the orphaned engine call finishes and is discarded without
wedging the executor), bounded per-subscriber stream buffers (slow
consumers are lagged out, the tick path never blocks), a body-size cap,
and structured error envelopes for every failure — a client never sees a
traceback.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro import __version__
from repro.api.policy import ExecutionPolicy, policy_from_payload
from repro.api.session import Session
from repro.api.stats import LatencyRecorder
from repro.errors import (
    FacilityError,
    PolicyError,
    QueryError,
    ReproError,
    ServeError,
    StorageError,
)
from repro.monitor.stream import EdgeCostUpdate, tick_from_payload
from repro.serve.journal import JobJournal
from repro.serve.lifecycle import DrainReport, ServerLifecycle
from repro.serve.limits import AdmissionController, IdempotencyCache, ServeConfig
from repro.serve.payloads import (
    batch_response_to_payload,
    query_response_to_payload,
    tick_response_to_payload,
)
from repro.serve.streaming import DeltaBroker, DeltaStream, StreamEvent
from repro.service.requests import SkylineRequest, request_from_payload

__all__ = [
    "ServeApp",
    "ServeRequest",
    "ServeResponse",
    "StreamResponse",
    "error_envelope",
]

#: Every error code a client can receive, pinned by the surface fixture.
ERROR_CODES = (
    "closed",
    "conflict",
    "dataset-unavailable",
    "draining",
    "internal",
    "invalid-policy",
    "invalid-request",
    "invalid-update",
    "method-not-allowed",
    "not-found",
    "payload-too-large",
    "saturated",
    "timeout",
)

#: Routes whose answers may be deduplicated via the ``Idempotency-Key``
#: header (the mutating / work-submitting endpoints).
IDEMPOTENT_ROUTES = frozenset({"query", "batch-submit", "patch", "patch-edges"})

#: Routes still answered while the server drains: health and metrics (so
#: orchestrators can watch the drain) and batch polling (so clients can
#: collect results the server is finishing on their behalf).
DRAIN_ALLOWED_ROUTES = frozenset({"health", "metrics", "batch-poll"})

#: Request-body shapes per endpoint (``?`` marks an optional key) and the
#: top-level response keys — the serving tier's wire schema, pinned by the
#: golden surface fixture so accidental drift fails CI.
SURFACE_SCHEMAS: dict[str, dict[str, object]] = {
    "POST /v1/query": {
        "request": {"request": "<query payload>", "policy?": "<policy payload>"},
        "response": [
            "seq", "kind", "ticket", "served_from_memo", "result", "io",
            "elapsed_seconds",
        ],
    },
    "POST /v1/batch": {
        "request": {"requests": "[<query payload>...]", "policy?": "<policy payload>"},
        "response": ["job", "state"],
    },
    "GET /v1/batch/{job}": {
        "request": None,
        "response": ["job", "state", "result?", "error?"],
    },
    "PATCH /v1/facilities": {
        "request": {"updates": "[<facility update payload>...]"},
        "response": [
            "seq", "index", "updates", "deltas", "counters",
            "fallback_subscriptions", "sharded", "io", "elapsed_seconds",
            "invalidated_services",
        ],
    },
    "PATCH /v1/edges": {
        "request": {"updates": "[<edge-cost update payload>...]"},
        "response": [
            "seq", "index", "updates", "deltas", "counters",
            "fallback_subscriptions", "sharded", "io", "elapsed_seconds",
            "invalidated_services",
        ],
    },
    "POST /v1/subscriptions": {
        "request": {"request": "<query payload>"},
        "response": ["seq", "subscription", "kind", "size", "result"],
    },
    "DELETE /v1/subscriptions/{sid}": {
        "request": None,
        "response": ["subscription", "unsubscribed", "streams_closed"],
    },
    "GET /v1/subscriptions/{sid}/stream": {
        "request": None,
        "response": ["<SSE: init, delta..., lagged|unsubscribed|closed>"],
    },
    "GET /v1/health": {
        "request": None,
        "response": ["status", "state", "version"],
    },
    "GET /v1/metrics": {
        "request": None,
        "response": ["requests", "errors", "timeouts", "severed", "served",
                     "admission", "jobs", "streams", "endpoints", "session",
                     "lifecycle", "idempotency", "journal"],
    },
}


@dataclass(frozen=True)
class ServeRequest:
    """One transport-level request: method, path, raw (undecoded) body.

    ``headers`` carries the transport's request headers (names
    case-insensitive; the HTTP listener lowercases them).  The app only
    reads ``Idempotency-Key`` — everything else about a request lives in
    the method, path and body.
    """

    method: str
    path: str
    body: bytes | str | None = None
    headers: dict | None = None

    def header(self, name: str) -> str | None:
        """One header value, case-insensitively (``None`` when absent)."""
        if not self.headers:
            return None
        lowered = name.lower()
        for key, value in self.headers.items():
            if key.lower() == lowered:
                return value
        return None


@dataclass
class ServeResponse:
    """One JSON answer: status code plus the payload to serialise."""

    status: int
    payload: dict[str, object]

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def body_bytes(self) -> bytes:
        return json.dumps(self.payload, sort_keys=True).encode("utf-8")


@dataclass
class StreamResponse:
    """One SSE answer: the stream to drain plus its broker (for cleanup)."""

    stream: DeltaStream
    broker: DeltaBroker
    status: int = 200


def error_envelope(
    code: str, message: str, *, retry_after: float | None = None
) -> dict[str, object]:
    """The uniform error body: ``{"error": {"code": ..., "message": ...}}``.

    ``retry_after`` adds the optional backoff hint transient refusals
    (``draining`` / ``conflict`` / ``dataset-unavailable``) carry; the
    HTTP transport mirrors it into a ``Retry-After`` header.
    """
    if code not in ERROR_CODES:
        raise ServeError(f"unknown error code {code!r}; expected one of {ERROR_CODES}")
    error: dict[str, object] = {"code": code, "message": message}
    if retry_after is not None:
        error["retry_after"] = retry_after
    return {"error": error}


def _request_fingerprint(route_name: str, body: object) -> str:
    """A stable digest of (route, canonical body) binding an Idempotency-Key."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(f"{route_name}\n{canonical}".encode("utf-8")).hexdigest()


@dataclass
class _RequestContext:
    """Per-dispatch idempotency state threaded into the handlers."""

    key: str | None = None
    fingerprint: str | None = None


class _HandlerError(Exception):
    """Internal: a handler-raised structured refusal (already enveloped)."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.response = ServeResponse(status, error_envelope(code, message))


class _AdmissionSlot:
    """Ownership token for one admission slot.

    Dispatch acquires the slot; :meth:`ServeApp._execute` *takes* it when
    the work is handed to the executor (the done-callback releases it when
    the work finishes, even after a timeout).  If a handler fails before
    reaching the executor, dispatch still holds the slot and releases it —
    no path leaks capacity.
    """

    __slots__ = ("_admission", "held")

    def __init__(self, admission: AdmissionController | None = None):
        self._admission = admission
        self.held = admission is not None

    def take(self) -> AdmissionController | None:
        """Transfer ownership to the caller; returns the controller to release."""
        if not self.held:
            return None
        self.held = False
        return self._admission

    def release(self) -> None:
        controller = self.take()
        if controller is not None:
            controller.release()


@dataclass
class _Job:
    """One asynchronous batch job."""

    job_id: str
    state: str = "queued"  # queued -> running -> done | failed
    result: dict[str, object] | None = None
    error: dict[str, object] | None = None
    task: asyncio.Task | None = field(default=None, repr=False)

    @property
    def active(self) -> bool:
        return self.state in ("queued", "running")


@dataclass(frozen=True)
class _Route:
    method: str
    template: str
    name: str
    admission: bool
    kind: str  # "json" | "stream"
    pattern: re.Pattern = field(compare=False, hash=False)

    @staticmethod
    def compile(method: str, template: str, name: str, *, admission: bool, kind: str = "json") -> "_Route":
        regex = "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", template) + "$"
        return _Route(method, template, name, admission, kind, re.compile(regex))


class ServeApp:
    """The asyncio serving tier over one :class:`~repro.api.Session`.

    Parameters
    ----------
    session:
        The session to serve.  The app owns it: :meth:`aclose` closes it.
    config:
        The :class:`~repro.serve.ServeConfig` limits (admission bound,
        request deadline, stream buffers, body cap, drain deadline,
        idempotency capacity).
    journal:
        An optional :class:`~repro.serve.JobJournal` making batch-job
        acknowledgements and applied ticks crash-safe.  Call
        :meth:`recover` (or enter the app as an async context manager)
        before serving so the previous process's promises are replayed.

    Notes
    -----
    ``before_execute`` is a deliberate fault-injection seam: when set, it
    is invoked on the session executor thread with the endpoint label
    *before* the session call.  The robustness suite uses it to hold the
    executor mid-request (timeouts, saturation) without monkey-patching
    engine internals; :func:`repro.serve.execute_fault_hook` schedules
    failures through it.
    """

    def __init__(
        self,
        session: Session,
        *,
        config: ServeConfig | None = None,
        journal: JobJournal | None = None,
    ):
        if not isinstance(session, Session):
            raise ServeError(
                f"expected a repro.api.Session, got {type(session).__name__}"
            )
        self._session = session
        self._config = config if config is not None else ServeConfig()
        if not isinstance(self._config, ServeConfig):
            raise ServeError(
                f"expected a ServeConfig, got {type(self._config).__name__}"
            )
        if journal is not None and not isinstance(journal, JobJournal):
            raise ServeError(
                f"expected a JobJournal, got {type(journal).__name__}"
            )
        self._admission = AdmissionController(self._config.max_in_flight)
        self._broker = DeltaBroker(self._config.stream_buffer)
        self._latency = LatencyRecorder(window=self._config.latency_window)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._jobs: dict[str, _Job] = {}
        self._journal = journal
        next_job = 1 if journal is None else journal.recovery.max_job_number + 1
        self._job_ids = itertools.count(next_job)
        self._next_seq = 0  # incremented only on the executor thread
        self._requests = 0
        self._errors = 0
        self._timeouts = 0
        self._severed = 0
        self._severed_ok = 0
        self._closed = False
        self._lifecycle = ServerLifecycle()
        self._idempotency = IdempotencyCache(self._config.idempotency_capacity)
        self._pending_keys: dict[str, str] = {}
        self._recovered = False
        #: Summary of the last :meth:`recover` replay (``None`` until one ran).
        self.last_recovery: dict[str, object] | None = None
        self._monitor_base = None  # lazily: session.monitor(())
        self.before_execute: Callable[[str], None] | None = None
        self._routes = (
            _Route.compile("GET", "/v1/health", "health", admission=False),
            _Route.compile("GET", "/v1/metrics", "metrics", admission=False),
            _Route.compile("POST", "/v1/query", "query", admission=True),
            _Route.compile("POST", "/v1/batch", "batch-submit", admission=False),
            _Route.compile("GET", "/v1/batch/{job}", "batch-poll", admission=False),
            _Route.compile("PATCH", "/v1/facilities", "patch", admission=True),
            _Route.compile("PATCH", "/v1/edges", "patch-edges", admission=True),
            _Route.compile("POST", "/v1/subscriptions", "subscribe", admission=True),
            _Route.compile(
                "DELETE", "/v1/subscriptions/{sid}", "unsubscribe", admission=False
            ),
            _Route.compile(
                "GET",
                "/v1/subscriptions/{sid}/stream",
                "stream",
                admission=False,
                kind="stream",
            ),
        )
        self._handlers = {
            "health": self._handle_health,
            "metrics": self._handle_metrics,
            "query": self._handle_query,
            "batch-submit": self._handle_batch_submit,
            "batch-poll": self._handle_batch_poll,
            "patch": self._handle_patch,
            "patch-edges": self._handle_patch_edges,
            "subscribe": self._handle_subscribe,
            "unsubscribe": self._handle_unsubscribe,
            "stream": self._handle_stream,
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def session(self) -> Session:
        return self._session

    @property
    def config(self) -> ServeConfig:
        return self._config

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    @property
    def broker(self) -> DeltaBroker:
        return self._broker

    @property
    def latency(self) -> LatencyRecorder:
        """Per-endpoint rolling latency percentiles (``/v1/metrics`` view)."""
        return self._latency

    @property
    def lifecycle(self) -> ServerLifecycle:
        """The server's lifecycle state machine."""
        return self._lifecycle

    @property
    def journal(self) -> JobJournal | None:
        """The batch-job journal (``None`` when durability is off)."""
        return self._journal

    @property
    def idempotency(self) -> IdempotencyCache:
        """The ``Idempotency-Key`` dedup cache."""
        return self._idempotency

    def note_severed(self, *, ok: bool = True) -> None:
        """Record a response that was computed but never delivered.

        Transports call this when the client vanished before the body was
        written; ``ok`` says whether the undelivered answer was a success
        (those are subtracted from the ``served`` metric — a severed ack
        was *not* served, even though the work happened)."""
        self._severed += 1
        if ok:
            self._severed_ok += 1

    def describe_surface(self) -> dict[str, object]:
        """The wire surface as data: routes, schemas, error envelope.

        Golden-pinned by ``tests/fixtures/serve_surface.json`` — a route or
        schema change must update the fixture in the same commit, visibly.
        """
        return {
            "routes": [
                {
                    "method": route.method,
                    "path": route.template,
                    "name": route.name,
                    "admission": route.admission,
                    "kind": route.kind,
                }
                for route in self._routes
            ],
            "error_codes": list(ERROR_CODES),
            "error_envelope": error_envelope("invalid-request", "<message>"),
            "schemas": SURFACE_SCHEMAS,
        }

    def metrics(self) -> dict[str, object]:
        """The ``/v1/metrics`` payload (also reachable without a transport)."""
        jobs = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        for job in self._jobs.values():
            jobs[job.state] += 1
        return {
            "requests": self._requests,
            "errors": self._errors,
            "timeouts": self._timeouts,
            "severed": self._severed,
            "served": max(0, self._requests - self._errors - self._severed_ok),
            "admission": self._admission.snapshot(),
            "jobs": jobs,
            "streams": self._broker.snapshot(),
            "endpoints": self._latency.summary(),
            "session": self._session.latency.summary(),
            "lifecycle": self._lifecycle.snapshot(),
            "idempotency": self._idempotency.snapshot(),
            "journal": self._journal.snapshot() if self._journal is not None else None,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def aclose(self) -> None:
        """Deterministic shutdown: jobs, streams, executor, session (idempotent).

        This is the *hard* stop — in-flight jobs are cancelled, streams get
        a terminal ``closed`` event, and no clean-close journal record is
        written (so a restart re-executes whatever was still running).  A
        graceful shutdown goes through :meth:`drain` instead.
        """
        if self._closed:
            return
        self._closed = True
        self._lifecycle.mark_closed()
        for job in self._jobs.values():
            if job.task is not None and not job.task.done():
                job.task.cancel()
        self._broker.close_all()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, partial(self._executor.shutdown, wait=True))
        if self._journal is not None:
            self._journal.close()
        self._session.close()

    async def recover(self) -> dict[str, object] | None:
        """Replay the journal's promises, then mark the server serving.

        Idempotent; a no-op (beyond the serving transition) without a
        journal.  Three passes, in causal order:

        1. finished jobs are re-registered with their journaled result or
           error, so polls answer from the journal instead of recomputing;
        2. acknowledged ticks are re-applied to the fresh session *in
           order* (directly on the executor — no new ``seq`` is consumed)
           and their journaled responses re-seed the idempotency cache, so
           a client retrying a tick it never saw acknowledged gets the
           original answer instead of double-applying the update;
        3. acknowledged-but-unfinished jobs are re-executed.
        """
        if self._closed or self._journal is None or self._recovered:
            if not self._closed:
                self._lifecycle.mark_serving()
            return None
        self._recovered = True
        recovery = self._journal.recovery
        for recovered in recovery.jobs.values():
            job = _Job(job_id=recovered.job_id)
            if recovered.state == "done":
                job.state, job.result = "done", recovered.result
            elif recovered.state == "failed":
                job.state, job.error = "failed", recovered.error
            self._jobs[job.job_id] = job
        loop = asyncio.get_running_loop()
        for record in recovery.ticks:
            body = record.get("body") or {}
            tick = tick_from_payload(body.get("updates", []))

            def reapply(tick=tick):
                self._monitor_handle().tick(tick)

            await loop.run_in_executor(self._executor, reapply)
            key, payload = record.get("key"), record.get("payload")
            if key and isinstance(payload, dict):
                route_name = record.get("route") or "patch"
                self._idempotency.store(
                    key, _request_fingerprint(route_name, body), 200, payload
                )
        reexecuted = 0
        for recovered in recovery.unfinished_jobs:
            job = self._jobs[recovered.job_id]
            try:
                requests = [
                    request_from_payload(entry) for entry in recovered.requests
                ]
                policy = (
                    policy_from_payload(recovered.policy)
                    if recovered.policy is not None
                    else None
                )
            except Exception as error:  # noqa: BLE001 - a bad record fails one job
                job.state = "failed"
                job.error = error_envelope(
                    "invalid-request", f"unrecoverable journaled job: {error}"
                )["error"]
                self._journal.record_job_failed(job.job_id, job.error)
                continue
            job.state = "queued"
            job.task = asyncio.create_task(self._run_job(job, requests, policy))
            reexecuted += 1
        self._lifecycle.mark_serving()
        self.last_recovery = {
            "jobs": len(recovery.jobs),
            "reexecuted_jobs": reexecuted,
            "ticks_reapplied": len(recovery.ticks),
            "truncated_bytes": recovery.truncated_bytes,
            "clean_close": recovery.clean_close,
        }
        return self.last_recovery

    async def drain(self, *, deadline: float | None = None) -> DrainReport:
        """Graceful drain-then-close; returns what happened.

        New work-class requests are refused with a ``draining`` envelope
        (plus a ``Retry-After`` hint) the moment this is called, while
        in-flight requests and active batch jobs run to completion.  When
        everything finishes inside the deadline (``config.drain_deadline_seconds``
        unless overridden) the drain is *clean*: open SSE streams get a
        terminal ``server-closing`` event and the journal receives its
        clean-close record.  Past the deadline the remaining jobs are
        cancelled and the journal is left open-ended so the next process
        re-executes them.
        """
        if self._closed:
            return DrainReport(
                clean=True, waited_seconds=0.0, jobs_cancelled=0,
                streams_closed=0, journal_closed=False,
            )
        if deadline is None:
            deadline = self._config.drain_deadline_seconds
        self._lifecycle.begin_drain()
        loop = asyncio.get_running_loop()
        started = loop.time()
        forced = False
        while True:
            active_jobs = any(job.active for job in self._jobs.values())
            if self._admission.in_flight == 0 and not active_jobs:
                break
            if deadline is not None and loop.time() - started >= deadline:
                forced = True
                break
            await asyncio.sleep(0.005)
        cancelled = 0
        if forced:
            for job in self._jobs.values():
                if job.task is not None and not job.task.done():
                    job.task.cancel()
                    cancelled += 1
        streams_closed = self._broker.close_all("server-closing")
        journal_closed = False
        if self._journal is not None and not forced:
            self._journal.record_close()
            journal_closed = True
        waited = loop.time() - started
        await self.aclose()
        return DrainReport(
            clean=not forced,
            waited_seconds=waited,
            jobs_cancelled=cancelled,
            streams_closed=streams_closed,
            journal_closed=journal_closed,
        )

    async def __aenter__(self) -> "ServeApp":
        await self.recover()
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.aclose()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    async def dispatch(self, request: ServeRequest) -> ServeResponse | StreamResponse:
        """Route one request; always answers, never raises to the transport."""
        self._requests += 1
        if self._closed:
            return self._error(503, "closed", "the server is shutting down")
        if self._lifecycle.state == "starting":
            self._lifecycle.mark_serving()
        route, params, seen_path = self._match(request)
        if route is None:
            if seen_path:
                return self._error(
                    405, "method-not-allowed",
                    f"{request.method} is not supported on {request.path}",
                )
            return self._error(404, "not-found", f"no route matches {request.path}")
        if self._lifecycle.draining and route.name not in DRAIN_ALLOWED_ROUTES:
            return self._error(
                503, "draining",
                "the server is draining for shutdown; retry against another "
                "replica or after the restart",
                retry_after=self._config.retry_after_seconds,
            )
        body, body_error = self._decode_body(request)
        if body_error is not None:
            return body_error
        ctx = _RequestContext()
        key = request.header("idempotency-key")
        if key is not None and route.name in IDEMPOTENT_ROUTES:
            fingerprint = _request_fingerprint(route.name, body)
            entry = self._idempotency.lookup(key)
            if entry is not None:
                if entry.fingerprint != fingerprint:
                    self._idempotency.conflicts += 1
                    return self._error(
                        409, "conflict",
                        f"Idempotency-Key {key!r} was already used for a "
                        "different request; keys must be unique per logical "
                        "operation",
                    )
                return ServeResponse(entry.status, entry.payload)
            pending = self._pending_keys.get(key)
            if pending is not None:
                self._idempotency.conflicts += 1
                if pending != fingerprint:
                    return self._error(
                        409, "conflict",
                        f"Idempotency-Key {key!r} is in flight for a "
                        "different request; keys must be unique per logical "
                        "operation",
                    )
                return self._error(
                    409, "conflict",
                    f"a request with Idempotency-Key {key!r} is still in "
                    "flight; retry after it completes",
                    retry_after=self._config.retry_after_seconds,
                )
            self._pending_keys[key] = fingerprint
            ctx = _RequestContext(key=key, fingerprint=fingerprint)
        slot = _AdmissionSlot()
        if route.admission:
            if not self._admission.try_acquire():
                if ctx.key is not None:
                    self._pending_keys.pop(ctx.key, None)
                return self._error(
                    429, "saturated",
                    f"{self._admission.capacity} requests already in flight; "
                    "retry with backoff",
                )
            slot = _AdmissionSlot(self._admission)
        started = time.perf_counter()
        try:
            handler = self._handlers[route.name]
            response = await handler(params, body, slot, ctx)
            if isinstance(response, ServeResponse) and response.ok:
                if route.admission and self._lifecycle.state == "degraded":
                    self._lifecycle.recover()
                if ctx.key is not None:
                    self._idempotency.store(
                        ctx.key, ctx.fingerprint, response.status, response.payload
                    )
            return response
        except _HandlerError as refusal:
            self._errors += 1
            return refusal.response
        except asyncio.TimeoutError:
            self._timeouts += 1
            timeout = self._config.request_timeout_seconds
            return self._error(
                504, "timeout",
                f"request exceeded the {timeout:g}s deadline; the engine call "
                "was abandoned cleanly",
            )
        except PolicyError as error:
            return self._error(400, "invalid-policy", str(error))
        except FacilityError as error:
            return self._error(400, "invalid-update", str(error))
        except StorageError as error:
            # The dataset behind the session failed a read (torn pack,
            # checksum mismatch, lost mmap): transient from the client's
            # point of view, structural from the operator's — 503 plus a
            # degraded health state, never a generic 500.
            self._lifecycle.degrade(f"{type(error).__name__}: {error}")
            return self._error(
                503, "dataset-unavailable",
                f"the dataset backing this server failed a read: {error}",
                retry_after=self._config.retry_after_seconds,
            )
        except ReproError as error:
            return self._error(400, "invalid-request", str(error))
        except Exception as error:  # noqa: BLE001 - the envelope IS the contract
            return self._error(
                500, "internal", f"{type(error).__name__}: {error}"
            )
        finally:
            if ctx.key is not None:
                self._pending_keys.pop(ctx.key, None)
            slot.release()  # no-op when the executor callback owns it
            if route.kind == "json":
                self._latency.observe(route.name, time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    async def _handle_health(self, params, body, slot, ctx) -> ServeResponse:
        state = self._lifecycle.state
        status = "ok" if state in ("starting", "serving") else state
        return ServeResponse(
            200, {"status": status, "state": state, "version": __version__}
        )

    async def _handle_metrics(self, params, body, slot, ctx) -> ServeResponse:
        return ServeResponse(200, self.metrics())

    async def _handle_query(self, params, body, slot, ctx) -> ServeResponse:
        payload = self._require_object(body)
        request = self._decode(
            "invalid-request", request_from_payload, self._require_key(payload, "request")
        )
        policy = self._decode_policy(payload)
        seq, response = await self._execute(
            "query", lambda: self._session.query(request, policy=policy), slot
        )
        return ServeResponse(200, {"seq": seq, **query_response_to_payload(response)})

    async def _handle_batch_submit(self, params, body, slot, ctx) -> ServeResponse:
        payload = self._require_object(body)
        raw_requests = self._require_key(payload, "requests")
        if not isinstance(raw_requests, list) or not raw_requests:
            raise _HandlerError(
                400, "invalid-request",
                "'requests' must be a non-empty list of query payloads",
            )
        requests = [
            self._decode("invalid-request", request_from_payload, entry)
            for entry in raw_requests
        ]
        policy = self._decode_policy(payload)
        active = sum(1 for job in self._jobs.values() if job.active)
        if active >= self._config.max_queued_jobs:
            raise _HandlerError(
                429, "saturated",
                f"{active} batch jobs already queued or running "
                f"(max_queued_jobs={self._config.max_queued_jobs}); poll and retry",
            )
        job = _Job(job_id=f"job-{next(self._job_ids)}")
        self._jobs[job.job_id] = job
        if self._journal is not None:
            # Journal the promise *before* acknowledging it: once the 202
            # leaves this process, a crash must not lose the job.
            self._journal.record_job_submitted(
                job.job_id, raw_requests, payload.get("policy")
            )
        job.task = asyncio.create_task(self._run_job(job, requests, policy))
        return ServeResponse(202, {"job": job.job_id, "state": job.state})

    async def _run_job(
        self,
        job: _Job,
        requests: list,
        policy: ExecutionPolicy | None,
    ) -> None:
        def work():
            job.state = "running"
            return self._session.run_batch(requests, policy=policy)

        try:
            seq, batch = await self._execute("batch", work, _AdmissionSlot())
            job.result = {"seq": seq, **batch_response_to_payload(batch)}
            job.state = "done"
            self._journal_job(job)
        except asyncio.CancelledError:
            # Shutdown/forced-drain cancellation: deliberately NOT journaled
            # as failed, so a restarted process re-executes the job.
            job.state = "failed"
            job.error = error_envelope("closed", "job cancelled at shutdown")["error"]
            raise
        except asyncio.TimeoutError:
            self._timeouts += 1
            job.state = "failed"
            job.error = error_envelope(
                "timeout", "batch exceeded the per-request deadline"
            )["error"]
            self._journal_job(job)
        except PolicyError as error:
            job.state = "failed"
            job.error = error_envelope("invalid-policy", str(error))["error"]
            self._journal_job(job)
        except StorageError as error:
            self._lifecycle.degrade(f"{type(error).__name__}: {error}")
            job.state = "failed"
            job.error = error_envelope(
                "dataset-unavailable",
                f"the dataset backing this server failed a read: {error}",
            )["error"]
            self._journal_job(job)
        except ReproError as error:
            job.state = "failed"
            job.error = error_envelope("invalid-request", str(error))["error"]
            self._journal_job(job)
        except Exception as error:  # noqa: BLE001 - jobs must never crash the loop
            job.state = "failed"
            job.error = error_envelope(
                "internal", f"{type(error).__name__}: {error}"
            )["error"]
            self._journal_job(job)

    def _journal_job(self, job: _Job) -> None:
        """Journal a job's terminal state (no-op without an open journal)."""
        if self._journal is None or self._journal.closed:
            return
        if job.state == "done":
            self._journal.record_job_done(job.job_id, job.result)
        elif job.state == "failed":
            self._journal.record_job_failed(job.job_id, job.error)

    async def _handle_batch_poll(self, params, body, slot, ctx) -> ServeResponse:
        job = self._jobs.get(params["job"])
        if job is None:
            raise _HandlerError(404, "not-found", f"unknown job {params['job']!r}")
        payload: dict[str, object] = {"job": job.job_id, "state": job.state}
        if job.result is not None:
            payload["result"] = job.result
        if job.error is not None:
            payload["error"] = job.error
        return ServeResponse(200, payload)

    async def _handle_patch(self, params, body, slot, ctx) -> ServeResponse:
        return await self._apply_tick("patch", body, slot, ctx)

    async def _handle_patch_edges(self, params, body, slot, ctx) -> ServeResponse:
        return await self._apply_tick("patch-edges", body, slot, ctx)

    async def _apply_tick(self, route: str, body, slot, ctx) -> ServeResponse:
        """The shared tick path behind both PATCH routes.

        ``PATCH /v1/facilities`` carries facility kinds only and
        ``PATCH /v1/edges`` edge-cost kinds only — the split keeps each
        route's name honest and lets a recovered journal re-seed the exact
        idempotency fingerprint a retrying client will present.
        """
        payload = self._require_object(body)
        updates = self._require_key(payload, "updates")
        if not isinstance(updates, list):
            raise _HandlerError(
                400, "invalid-update", "'updates' must be a list of update payloads"
            )
        tick = self._decode("invalid-update", tick_from_payload, updates)
        for position, update in enumerate(tick.updates):
            is_edge = isinstance(update, EdgeCostUpdate)
            if route == "patch" and is_edge:
                raise _HandlerError(
                    400, "invalid-update",
                    f"update {position}: edge-cost updates go through "
                    "PATCH /v1/edges",
                )
            if route == "patch-edges" and not is_edge:
                raise _HandlerError(
                    400, "invalid-update",
                    f"update {position}: facility updates go through "
                    "PATCH /v1/facilities",
                )

        def apply():
            handle = self._monitor_handle()
            response = handle.tick(tick)
            # The tick dropped the session's caches already; asking again
            # counts the services it dropped them for, which the answer reports.
            invalidated = self._session.invalidate_result_caches()
            return response, invalidated

        seq, (tick_response, invalidated) = await self._execute(route, apply, slot)
        payload_out = tick_response_to_payload(tick_response)
        answer = {"seq": seq, "invalidated_services": invalidated, **payload_out}
        if self._journal is not None and not self._journal.closed:
            # The tick is applied and about to be acknowledged: journal it
            # (with its idempotency key) so a restarted process re-applies
            # it exactly once and a retrying client replays this answer.
            self._journal.record_tick(ctx.key, payload, answer, route=route)
        self._broker.publish(payload_out["index"], payload_out["deltas"])
        return ServeResponse(200, answer)

    async def _handle_subscribe(self, params, body, slot, ctx) -> ServeResponse:
        payload = self._require_object(body)
        request = self._decode(
            "invalid-request", request_from_payload, self._require_key(payload, "request")
        )

        def subscribe():
            handle = self._session.monitor([request])
            sid = handle.subscription_ids[0]
            return sid, self._signature_payload(sid)

        seq, (sid, signature) = await self._execute("subscribe", subscribe, slot)
        return ServeResponse(
            201,
            {
                "seq": seq,
                "subscription": sid,
                "kind": signature["kind"],
                "size": signature["size"],
                "result": signature["facilities"],
            },
        )

    async def _handle_unsubscribe(self, params, body, slot, ctx) -> ServeResponse:
        sid = self._subscription_id(params)

        def drop():
            service = self._monitor_handle().service
            if sid not in service.subscription_ids:
                raise _HandlerError(404, "not-found", f"unknown subscription {sid}")
            service.unsubscribe(sid)

        await self._execute("unsubscribe", drop, slot)
        closed = self._broker.close_subscription(sid)
        return ServeResponse(
            200, {"subscription": sid, "unsubscribed": True, "streams_closed": closed}
        )

    async def _handle_stream(self, params, body, slot, ctx) -> StreamResponse:
        sid = self._subscription_id(params)

        def snapshot():
            service = self._monitor_handle().service
            if sid not in service.subscription_ids:
                raise _HandlerError(404, "not-found", f"unknown subscription {sid}")
            return self._signature_payload(sid)

        _seq, signature = await self._execute("stream", snapshot, slot)
        stream = self._broker.open(sid)
        stream.offer(StreamEvent("init", {"subscription": sid, **signature}))
        return StreamResponse(stream=stream, broker=self._broker)

    # ------------------------------------------------------------------ #
    # Execution internals
    # ------------------------------------------------------------------ #
    async def _execute(self, label: str, fn, slot: _AdmissionSlot):
        """Run ``fn`` on the session executor with seq stamping and deadline.

        Returns ``(seq, result)``.  The admission slot (when held) is
        released only when the underlying work *finishes* — a timed-out
        request therefore keeps its slot until the orphaned engine call
        completes, so saturation accounting never lies about a busy
        executor.
        """
        loop = asyncio.get_running_loop()
        done: asyncio.Future = loop.create_future()
        admission = slot.take()

        def work():
            if self.before_execute is not None:
                self.before_execute(label)
            seq = self._next_seq
            self._next_seq += 1
            return seq, fn()

        def finish(cf_future):
            if admission is not None:
                admission.release()
            if cf_future.cancelled():
                return
            if done.cancelled():
                cf_future.exception()  # retrieve, the client is long gone
                return
            error = cf_future.exception()
            if error is not None:
                done.set_exception(error)
            else:
                done.set_result(cf_future.result())

        def schedule_finish(f):
            try:
                loop.call_soon_threadsafe(finish, f)
            except RuntimeError:  # loop already closed at interpreter shutdown
                if admission is not None:
                    admission.release()

        cf_future = self._executor.submit(work)
        cf_future.add_done_callback(schedule_finish)
        timeout = self._config.request_timeout_seconds
        if timeout is None:
            return await done
        try:
            return await asyncio.wait_for(done, timeout)
        except asyncio.TimeoutError:
            cf_future.cancel()  # a queued (unstarted) orphan never runs at all
            raise

    def _monitor_handle(self):
        """The app's base monitor handle (created lazily, executor thread)."""
        if self._monitor_base is None:
            self._monitor_base = self._session.monitor(())
        return self._monitor_base

    def _signature_payload(self, sid: int) -> dict[str, object]:
        service = self._monitor_handle().service
        signature = service.result_signature(sid)
        kind = (
            "skyline"
            if isinstance(service.request_of(sid), SkylineRequest)
            else "topk"
        )
        facilities = [
            [fid, list(value) if isinstance(value, tuple) else value]
            for fid, value in sorted(signature.items())
        ]
        return {"kind": kind, "size": len(facilities), "facilities": facilities}

    # ------------------------------------------------------------------ #
    # Decoding helpers
    # ------------------------------------------------------------------ #
    def _match(self, request: ServeRequest):
        seen_path = False
        for route in self._routes:
            match = route.pattern.match(request.path)
            if match is None:
                continue
            seen_path = True
            if route.method == request.method.upper():
                return route, match.groupdict(), True
        return None, {}, seen_path

    def _decode_body(self, request: ServeRequest):
        body = request.body
        if body is None or body == b"" or body == "":
            return None, None
        if isinstance(body, str):
            body = body.encode("utf-8")
        if len(body) > self._config.max_body_bytes:
            return None, self._error(
                413, "payload-too-large",
                f"body of {len(body)} bytes exceeds the "
                f"{self._config.max_body_bytes}-byte cap",
            )
        try:
            return json.loads(body.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return None, self._error(
                400, "invalid-request", f"body is not valid JSON: {error}"
            )

    def _decode_policy(self, payload: dict) -> ExecutionPolicy | None:
        """Decode a request's policy and let the session refuse it now.

        :meth:`Session.check_policy <repro.api.Session.check_policy>` knows
        which fields a call may change; asking it at decode time makes
        ``/v1/batch`` answer 400 at submit instead of failing the job after
        its 202.
        """
        raw = payload.get("policy")
        if raw is None:
            return None
        policy = self._decode("invalid-policy", policy_from_payload, raw)
        self._session.check_policy(policy)
        return policy

    @staticmethod
    def _decode(code: str, fn, *args):
        """Run a payload codec; shape errors become 400s, never tracebacks.

        The codecs raise :class:`~repro.errors.QueryError` for semantic
        problems (dispatch maps those), but a structurally absurd payload
        (``"edge": null``, a list where an object belongs) surfaces as
        ``TypeError``/``KeyError`` — equally the client's fault, equally 400.
        """
        try:
            return fn(*args)
        except ReproError:
            raise
        except (TypeError, ValueError, KeyError, AttributeError) as error:
            raise _HandlerError(
                400, code, f"malformed payload: {type(error).__name__}: {error}"
            ) from None

    @staticmethod
    def _require_object(body) -> dict:
        if not isinstance(body, dict):
            raise _HandlerError(
                400, "invalid-request",
                f"expected a JSON object body, got {type(body).__name__}",
            )
        return body

    @staticmethod
    def _require_key(payload: dict, key: str):
        try:
            return payload[key]
        except KeyError:
            raise _HandlerError(
                400, "invalid-request", f"body is missing the {key!r} key"
            ) from None

    @staticmethod
    def _subscription_id(params: dict) -> int:
        try:
            return int(params["sid"])
        except (TypeError, ValueError):
            raise _HandlerError(
                400, "invalid-request",
                f"subscription id must be an integer, got {params['sid']!r}",
            ) from None

    def _error(
        self, status: int, code: str, message: str, *, retry_after: float | None = None
    ) -> ServeResponse:
        """One counted error answer; every refusal path funnels through here."""
        self._errors += 1
        return ServeResponse(
            status, error_envelope(code, message, retry_after=retry_after)
        )
