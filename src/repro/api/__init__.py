"""The unified public API: one :class:`Session`, one :class:`ExecutionPolicy`.

This package is the facade over the four execution stacks that grew under
it (:class:`~repro.MCNQueryEngine`, :class:`~repro.QueryService`,
:class:`~repro.ShardedQueryService`, :class:`~repro.MonitoringService`).
Callers describe *how* to execute with a declarative, JSON-serialisable
:class:`ExecutionPolicy` and hand requests to a :class:`Session`, which
lazily builds the one stack its policy describes.  A call may pass a
policy that changes only how that call runs (``algorithm``, ``workers``,
``routing``, ``executor``, ``temporal``, ``profile_source``)::

    from repro.api import ExecutionPolicy, Session

    session = Session(graph, facilities, policy=ExecutionPolicy(residency="disk"))
    one = session.skyline(query)                                   # Response
    batch = session.run_batch(requests,
                              policy=session.policy.replace(workers=4))
    handle = session.monitor(requests)                             # MonitorHandle
    delta = handle.tick(update_tick)                               # TickResponse

:mod:`repro.api.policy` is additionally the single source of truth for the
parallel-execution vocabulary (``ROUTINGS`` / ``EXECUTORS``).

The :class:`Session`-side symbols are imported lazily (PEP 562): modules
deep in the stack (e.g. :mod:`repro.service.service`) import
:mod:`repro.api.policy` at module level, which must not drag the whole
session machinery — and thereby a circular import — with it.
"""

from repro.api.policy import (
    ALGORITHMS,
    DEFAULT_POLICY,
    EXECUTORS,
    ExecutionPolicy,
    RESIDENCIES,
    ROUTINGS,
    policy_from_payload,
    policy_to_payload,
)
from repro.api.stats import (
    DEFAULT_TRACKED_QUANTILES,
    LatencyRecorder,
    P2Quantile,
    RollingLatencyStats,
)

__all__ = [
    "ALGORITHMS",
    "BatchResponse",
    "DEFAULT_POLICY",
    "DEFAULT_TRACKED_QUANTILES",
    "EXECUTORS",
    "ExecutionPolicy",
    "LatencyRecorder",
    "MonitorHandle",
    "P2Quantile",
    "RESIDENCIES",
    "ROUTINGS",
    "Response",
    "RollingLatencyStats",
    "Session",
    "TickResponse",
    "policy_from_payload",
    "policy_to_payload",
]

_SESSION_EXPORTS = frozenset(
    {"BatchResponse", "MonitorHandle", "Response", "Session", "TickResponse"}
)


def __getattr__(name: str):
    if name in _SESSION_EXPORTS:
        from repro.api import session as _session

        return getattr(_session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
