"""Public-API snapshot: accidental surface breaks must fail CI.

Pins ``repro.api.__all__`` plus the signatures of :class:`Session`, the
:class:`ExecutionPolicy` schema and the response envelopes.  A deliberate
API change updates the pinned constants here — in the same commit, visibly.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api as api
from repro.api import ExecutionPolicy, Session
from repro.api.session import BatchResponse, MonitorHandle, Response, TickResponse

API_ALL = [
    "ALGORITHMS",
    "BatchResponse",
    "COMPILED_ENV_VAR",
    "COMPILED_MODES",
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
    "compiled_env_default",
    "policy_from_payload",
    "policy_to_payload",
    "resolve_compiled",
]

SESSION_SIGNATURES = {
    "__init__": (
        "(self, graph: 'MultiCostGraph | None' = None, "
        "facilities: 'FacilitySet | None' = None, *, "
        "storage: 'NetworkStorage | None' = None, "
        "accessor: 'GraphAccessor | None' = None, "
        "policy: 'ExecutionPolicy | None' = None, "
        "dataset_path: 'str | None' = None, "
        "verify_checksum: 'bool' = True, "
        "profiles: 'dict[str, object] | None' = None)"
    ),
    "query": (
        "(self, request: 'QueryRequest', *, policy: 'ExecutionPolicy | None' = None)"
        " -> 'Response'"
    ),
    "skyline": (
        "(self, location: 'NetworkLocation', *, policy: 'ExecutionPolicy | None' = None)"
        " -> 'Response'"
    ),
    "top_k": (
        "(self, location: 'NetworkLocation', k: 'int', *, "
        "weights: 'Sequence[float] | None' = None, "
        "aggregate: 'AggregateFunction | None' = None, "
        "policy: 'ExecutionPolicy | None' = None) -> 'Response'"
    ),
    "run_batch": (
        "(self, requests: 'Sequence[QueryRequest]', *, "
        "policy: 'ExecutionPolicy | None' = None) -> 'BatchResponse'"
    ),
    "monitor": (
        "(self, requests: 'Sequence[QueryRequest]', *, "
        "policy: 'ExecutionPolicy | None' = None) -> 'MonitorHandle'"
    ),
    "sweep": (
        "(self, request: 'SweepRequest', *, policy: 'ExecutionPolicy | None' = None)"
        " -> 'SweepResponse'"
    ),
    "close": "(self) -> 'None'",
    "invalidate_result_caches": "(self) -> 'int'",
    "engine_for": "(self, policy: 'ExecutionPolicy | None' = None) -> 'MCNQueryEngine'",
    "storage_for": (
        "(self, policy: 'ExecutionPolicy | None' = None) -> 'NetworkStorage | None'"
    ),
}

POLICY_SCHEMA = [
    ("algorithm", "cea"),
    ("residency", "memory"),
    ("dataset_path", None),
    ("compiled", "auto"),
    ("page_size", 4096),
    ("buffer_fraction", 0.01),
    ("workers", 1),
    ("routing", "round_robin"),
    ("executor", "process"),
    ("memoize_results", True),
    ("max_cached_entries", None),
    ("shard_fallback_threshold", 4),
    ("temporal", "off"),
    ("profile_source", None),
    ("temporal_quantum", 0.25),
    ("temporal_cache_size", 8),
]

RESPONSE_FIELDS = [
    "request",
    "result",
    "io",
    "elapsed_seconds",
    "policy",
    "served_from_memo",
    "ticket",
]

BATCH_RESPONSE_FIELDS = [
    "responses",
    "elapsed_seconds",
    "io",
    "cache",
    "policy",
    "shard_sizes",
    "shard_io",
]

TICK_RESPONSE_FIELDS = [
    "index",
    "updates",
    "deltas",
    "counters",
    "fallback_subscriptions",
    "sharded",
    "elapsed_seconds",
    "io",
    "policy",
]


class TestApiSurface:
    def test_api_all_pinned(self):
        assert list(api.__all__) == API_ALL

    def test_every_exported_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name) is not None
        assert sorted(api.__all__) == [n for n in dir(api) if not n.startswith("_")]

    @pytest.fixture(params=sorted(SESSION_SIGNATURES))
    def method_name(self, request):
        return request.param

    def test_session_signatures_pinned(self, method_name):
        actual = str(inspect.signature(getattr(Session, method_name)))
        assert actual == SESSION_SIGNATURES[method_name], method_name

    def test_policy_schema_pinned(self):
        actual = [
            (field.name, field.default)
            for field in dataclasses.fields(ExecutionPolicy)
        ]
        assert actual == POLICY_SCHEMA

    def test_response_envelopes_pinned(self):
        assert [f.name for f in dataclasses.fields(Response)] == RESPONSE_FIELDS
        assert (
            [f.name for f in dataclasses.fields(BatchResponse)]
            == BATCH_RESPONSE_FIELDS
        )
        assert (
            [f.name for f in dataclasses.fields(TickResponse)] == TICK_RESPONSE_FIELDS
        )

    def test_monitor_handle_surface(self):
        public = sorted(
            name
            for name in dir(MonitorHandle)
            if not name.startswith("_")
        )
        assert public == [
            "maintainer_of",
            "policy",
            "result_signature",
            "run",
            "service",
            "statistics",
            "subscription_ids",
            "tick",
            "unsubscribe",
        ]

    def test_top_level_exports_include_the_facade(self):
        for name in (
            "Session",
            "ExecutionPolicy",
            "Response",
            "BatchResponse",
            "TickResponse",
            "MonitorHandle",
            "PolicyError",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None


def test_import_pulls_in_no_numpy():
    """The package and its CLI run on the standard library alone."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", "import sys, repro, repro.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
