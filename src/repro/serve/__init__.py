"""The asyncio serving tier — the front door over :class:`repro.api.Session`.

Layered as::

    transports    repro.serve.http  (pure-asyncio HTTP/1.1, SSE)
                  repro.serve.testing  (in-process client, no sockets)
                        |
    application   repro.serve.app   (routes, envelopes, seq stamping,
                                     admission, deadlines, batch jobs)
                        |
    resilience    repro.serve.lifecycle  (drain state machine)
                  repro.serve.journal    (crash-safe batch-job journal)
                  repro.serve.retry      (client backoff + idempotency keys)
                  repro.serve.faults     (seeded fault-injection plane)
                        |
    plumbing      repro.serve.limits     (ServeConfig, AdmissionController,
                                          IdempotencyCache)
                  repro.serve.streaming  (DeltaBroker, SSE backpressure)
                  repro.serve.payloads   (response JSON codecs)
                        |
    engine        repro.api.Session  /  repro.monitor.MonitoringService

Every transport funnels into :meth:`ServeApp.dispatch`, and every session
call runs serialised on one executor thread with a ``seq`` stamp — the
property the async load-replay differential harness uses to prove the
tier returns **bit-identical** payloads to direct library calls under
concurrency.  The resilience layer extends that guarantee across
failures: a drain finishes acknowledged work before closing, the journal
makes batch acks and applied ticks survive a crash, idempotency keys make
retries safe, and the fault plane proves all of it under seeded chaos.
"""

from repro.serve.app import (
    ERROR_CODES,
    ServeApp,
    ServeRequest,
    ServeResponse,
    StreamResponse,
    error_envelope,
)
from repro.serve.faults import (
    FaultPlane,
    InjectedFault,
    execute_fault_hook,
    faulty_disk,
    session_fault_hook,
    worker_fault_hook,
)
from repro.serve.http import HttpServer
from repro.serve.journal import JobJournal, JournalRecovery, RecoveredJob
from repro.serve.lifecycle import DrainReport, ServerLifecycle
from repro.serve.limits import AdmissionController, IdempotencyCache, ServeConfig
from repro.serve.payloads import (
    batch_response_to_payload,
    cache_to_payload,
    io_to_payload,
    query_response_to_payload,
    result_to_payload,
    tick_response_to_payload,
)
from repro.serve.retry import RetryPolicy, RetryingClient, send_with_retry
from repro.serve.streaming import DeltaBroker, DeltaStream, StreamEvent, sse_encode
from repro.serve.testing import InProcessClient, collect_events

__all__ = [
    "AdmissionController",
    "DeltaBroker",
    "DeltaStream",
    "DrainReport",
    "ERROR_CODES",
    "FaultPlane",
    "HttpServer",
    "IdempotencyCache",
    "InProcessClient",
    "InjectedFault",
    "JobJournal",
    "JournalRecovery",
    "RecoveredJob",
    "RetryPolicy",
    "RetryingClient",
    "ServeApp",
    "ServeConfig",
    "ServeRequest",
    "ServeResponse",
    "ServerLifecycle",
    "StreamEvent",
    "StreamResponse",
    "batch_response_to_payload",
    "cache_to_payload",
    "collect_events",
    "error_envelope",
    "execute_fault_hook",
    "faulty_disk",
    "io_to_payload",
    "query_response_to_payload",
    "result_to_payload",
    "send_with_retry",
    "session_fault_hook",
    "sse_encode",
    "tick_response_to_payload",
    "worker_fault_hook",
]
