"""The declarative execution configuration: :class:`ExecutionPolicy`.

An :class:`ExecutionPolicy` is the only configuration the batch, sharded
and monitoring services take: one frozen, hashable, JSON-serialisable value
object saying *where* the data lives (``residency``), *how* searches run
(``algorithm``), *how wide* (``workers`` / ``routing`` / ``executor``), and
*what is shared* across queries (``memoize_results`` /
``max_cached_entries``).  Which expansion runs is not configurable: the
data layer picks it (see :class:`~repro.core.engine.MCNQueryEngine`).

Every field is validated at construction — a bad policy raises
:class:`~repro.errors.PolicyError` with an actionable message before any
engine, pool or subscription exists, never mid-batch.

Example
-------
>>> policy = ExecutionPolicy(residency="disk", workers=4)
>>> policy_from_payload(policy_to_payload(policy)) == policy
True
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import PolicyError

__all__ = [
    "ALGORITHMS",
    "DEFAULT_POLICY",
    "EXECUTORS",
    "ExecutionPolicy",
    "RESIDENCIES",
    "ROUTINGS",
    "TEMPORAL_MODES",
    "policy_from_payload",
    "policy_to_payload",
]

ALGORITHMS = ("cea", "lsa", "baseline")
RESIDENCIES = ("memory", "disk")
TEMPORAL_MODES = ("off", "profiles")

#: Canonical parallel-execution vocabulary.  Defined here (the only module
#: every execution stack can import without a cycle) and re-exported by
#: :mod:`repro.parallel`.
ROUTINGS = ("round_robin", "locality")
EXECUTORS = ("process", "thread", "serial")


@dataclass(frozen=True)
class ExecutionPolicy:
    """One serialisable description of *how* queries execute.

    A :class:`~repro.api.Session` is built with one policy, and that policy
    alone shapes what the session keeps.  A call may pass its own policy,
    but it may differ from the session's only in the six fields that pick
    how that one call runs: ``algorithm``, ``workers``, ``routing``,
    ``executor``, ``temporal`` and ``profile_source``.  A call policy that
    changes any other field is refused with
    :class:`~repro.errors.PolicyError` (see
    :meth:`~repro.api.Session.check_policy`).

    No field picks the expansion: the data layer does.  Searches run on the
    compiled :class:`~repro.core.kernel.ExpansionKernel` wherever a
    :class:`~repro.network.compiled.CompiledGraph` can be built (memory,
    disk, the monitor, temporal snapshots), and on the record-walking
    expansion over a standalone dataset pack.  Answers and I/O counters
    are the same on both.

    Parameters
    ----------
    algorithm:
        Default search algorithm (``"cea"``, ``"lsa"`` or ``"baseline"``)
        used by the :class:`~repro.api.Session` convenience builders.
        Requests that carry their own ``algorithm`` field are untouched.
    residency:
        ``"memory"`` runs against the in-memory accessor; ``"disk"`` against
        the simulated disk-resident :class:`~repro.storage.NetworkStorage`
        (page reads are then counted).  A session opened on a dataset pack
        runs on that pack whatever the residency says.
    page_size / buffer_fraction:
        Storage-scheme knobs, used only under ``residency="disk"``.
    workers / routing / executor:
        Parallelism: with ``workers > 1`` batches run through the sharded
        service (``routing`` in ``("round_robin", "locality")``, ``executor``
        in ``("process", "thread", "serial")``); with ``workers == 1``
        execution is sequential and ``routing``/``executor`` are inert.
    memoize_results / max_cached_entries:
        Cross-query cache behaviour of the batch service (and of every shard
        worker): result memoisation, and the LRU bound of the shared record
        cache (``None`` = unbounded).
    shard_fallback_threshold:
        Monitoring only: minimum number of stale subscriptions in one tick
        before the end-of-tick recompute pass is sharded across workers.
    temporal / profile_source:
        The temporal subsystem's knobs.  ``temporal="profiles"`` lets the
        session answer departure-time-parameterised requests by evaluating
        the named time-profile set (``profile_source`` must then name one of
        the profile sets registered on the session) into per-time graph
        snapshots; ``"off"`` (the default) keeps the classic static
        semantics and rejects any ``departure_time``.
    temporal_quantum / temporal_cache_size:
        Snapshot reuse: departure times are quantised to multiples of
        ``temporal_quantum`` (in the profiles' time unit) before keying the
        snapshot LRU, which holds at most ``temporal_cache_size`` stacks.
        The default 16 covers a four-hour window at the default 0.25
        quantum: a smaller LRU evicts keys of a rush hour that are asked
        again, and each such miss opens a cold stack instead of reusing a
        warm one or re-costing a stale one.
    """

    algorithm: str = "cea"
    residency: str = "memory"
    page_size: int = 4096
    buffer_fraction: float = 0.01
    workers: int = 1
    routing: str = "round_robin"
    executor: str = "process"
    memoize_results: bool = True
    max_cached_entries: int | None = None
    shard_fallback_threshold: int = 4
    temporal: str = "off"
    profile_source: str | None = None
    temporal_quantum: float = 0.25
    temporal_cache_size: int = 16

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise PolicyError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.residency not in RESIDENCIES:
            raise PolicyError(
                f"unknown residency {self.residency!r}; expected one of "
                f"{RESIDENCIES} (disk builds the simulated storage scheme; "
                "to query a dataset pack, open it with Session.from_dataset)"
            )
        if not isinstance(self.page_size, int) or isinstance(self.page_size, bool) or self.page_size < 128:
            raise PolicyError(
                f"page_size must be an integer of at least 128 bytes, got "
                f"{self.page_size!r}"
            )
        if isinstance(self.buffer_fraction, bool) or not isinstance(
            self.buffer_fraction, (int, float)
        ):
            raise PolicyError(
                f"buffer_fraction must be a number in (0, 1], got "
                f"{self.buffer_fraction!r}"
            )
        # Store the canonical float so the value is usable (and hashable
        # consistently) everywhere downstream.
        object.__setattr__(self, "buffer_fraction", float(self.buffer_fraction))
        if not 0.0 < self.buffer_fraction <= 1.0:
            raise PolicyError(
                f"buffer_fraction must lie in (0, 1], got {self.buffer_fraction!r}"
            )
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) or self.workers < 1:
            raise PolicyError(
                f"workers must be a positive integer, got {self.workers!r} "
                "(1 = sequential execution)"
            )
        if self.routing not in ROUTINGS:
            raise PolicyError(
                f"unknown routing {self.routing!r}; expected one of {ROUTINGS}"
            )
        if self.executor not in EXECUTORS:
            raise PolicyError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}"
            )
        if not isinstance(self.memoize_results, bool):
            raise PolicyError(
                f"memoize_results must be a bool, got "
                f"{type(self.memoize_results).__name__}"
            )
        if self.max_cached_entries is not None and (
            not isinstance(self.max_cached_entries, int)
            or isinstance(self.max_cached_entries, bool)
            or self.max_cached_entries < 1
        ):
            raise PolicyError(
                f"max_cached_entries must be a positive integer or None "
                f"(unbounded), got {self.max_cached_entries!r}"
            )
        if (
            not isinstance(self.shard_fallback_threshold, int)
            or isinstance(self.shard_fallback_threshold, bool)
            or self.shard_fallback_threshold < 1
        ):
            raise PolicyError(
                f"shard_fallback_threshold must be a positive integer, got "
                f"{self.shard_fallback_threshold!r}"
            )
        if self.temporal not in TEMPORAL_MODES:
            raise PolicyError(
                f"unknown temporal mode {self.temporal!r}; expected one of "
                f"{TEMPORAL_MODES} ('profiles' evaluates a registered "
                "time-profile set into per-departure-time snapshots)"
            )
        if self.profile_source is not None and not isinstance(self.profile_source, str):
            raise PolicyError(
                f"profile_source must be a string name or None, got "
                f"{type(self.profile_source).__name__}"
            )
        if self.temporal == "profiles" and not self.profile_source:
            raise PolicyError(
                "temporal='profiles' requires profile_source to name a "
                "profile set registered on the Session (profiles={name: ...})"
            )
        if self.temporal == "off" and self.profile_source is not None:
            raise PolicyError(
                "profile_source is set but temporal='off'; enable "
                "temporal='profiles' or drop the source"
            )
        if isinstance(self.temporal_quantum, bool) or not isinstance(
            self.temporal_quantum, (int, float)
        ):
            raise PolicyError(
                f"temporal_quantum must be a positive number, got "
                f"{self.temporal_quantum!r}"
            )
        object.__setattr__(self, "temporal_quantum", float(self.temporal_quantum))
        if not self.temporal_quantum > 0.0:
            raise PolicyError(
                f"temporal_quantum must be a positive number, got "
                f"{self.temporal_quantum!r}"
            )
        if (
            not isinstance(self.temporal_cache_size, int)
            or isinstance(self.temporal_cache_size, bool)
            or self.temporal_cache_size < 1
        ):
            raise PolicyError(
                f"temporal_cache_size must be a positive integer, got "
                f"{self.temporal_cache_size!r}"
            )

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def replace(self, **changes: object) -> "ExecutionPolicy":
        """A copy of this policy with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]

    # ------------------------------------------------------------------ #
    # JSON payload codecs
    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict[str, object]:
        """A plain-JSON dictionary describing this policy (see :func:`policy_to_payload`)."""
        return policy_to_payload(self)

    @classmethod
    def from_payload(cls, payload: dict[str, object]) -> "ExecutionPolicy":
        """Rebuild a policy from a :func:`policy_to_payload` dictionary."""
        return policy_from_payload(payload)


#: The all-defaults policy: in-memory, sequential, CEA.
DEFAULT_POLICY = ExecutionPolicy()

_PAYLOAD_FIELDS = tuple(field.name for field in dataclasses.fields(ExecutionPolicy))


def policy_to_payload(policy: ExecutionPolicy) -> dict[str, object]:
    """A plain-JSON dictionary that round-trips through :func:`policy_from_payload`.

    The payload is a flat field mapping, so a whole execution configuration
    ships alongside the request payloads of
    :mod:`repro.service.requests` — one JSON document fully describes *what*
    to run and *how* to run it.
    """
    if not isinstance(policy, ExecutionPolicy):
        raise PolicyError(
            f"expected an ExecutionPolicy, got {type(policy).__name__}"
        )
    return {name: getattr(policy, name) for name in _PAYLOAD_FIELDS}


def policy_from_payload(payload: dict[str, object]) -> ExecutionPolicy:
    """Rebuild an :class:`ExecutionPolicy` from its payload dictionary.

    Missing fields take their defaults (so old payloads keep decoding as the
    policy schema grows); unknown fields are rejected to catch typos like
    ``"worker"`` for ``"workers"`` early.
    """
    if not isinstance(payload, dict):
        raise PolicyError(f"expected a policy payload dict, got {type(payload).__name__}")
    unknown = sorted(set(payload) - set(_PAYLOAD_FIELDS))
    if unknown:
        raise PolicyError(
            f"unknown policy field(s) {unknown}; expected a subset of "
            f"{sorted(_PAYLOAD_FIELDS)}"
        )
    kwargs: dict[str, object] = dict(payload)
    if "max_cached_entries" in kwargs and kwargs["max_cached_entries"] is not None:
        kwargs["max_cached_entries"] = _integer_field(
            "max_cached_entries", kwargs["max_cached_entries"]
        )
    for name in ("page_size", "workers", "shard_fallback_threshold", "temporal_cache_size"):
        if name in kwargs:
            kwargs[name] = _integer_field(name, kwargs[name])
    for name in ("buffer_fraction", "temporal_quantum"):
        if name in kwargs:
            value = kwargs[name]
            try:
                kwargs[name] = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError):
                raise PolicyError(
                    f"policy field {name} must be a number, got {value!r}"
                ) from None
    return ExecutionPolicy(**kwargs)  # type: ignore[arg-type]


def _integer_field(name: str, value: object) -> int:
    """Decode one integer policy field, rejecting anything lossy or non-numeric."""
    if isinstance(value, bool):
        raise PolicyError(f"policy field {name} must be an integer, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise PolicyError(
            f"policy field {name} must be an integer, got the non-integral {value!r}"
        )
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise PolicyError(
            f"policy field {name} must be an integer, got {value!r}"
        ) from None
