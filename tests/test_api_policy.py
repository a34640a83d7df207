"""ExecutionPolicy: validation, env handling and payload codecs."""

from __future__ import annotations

import json

import pytest

import repro.parallel
from repro.api import (
    COMPILED_ENV_VAR,
    DEFAULT_POLICY,
    EXECUTORS,
    ROUTINGS,
    ExecutionPolicy,
    compiled_env_default,
    policy_from_payload,
    policy_to_payload,
    resolve_compiled,
)
from repro.core.engine import MCNQueryEngine
from repro.datagen import WorkloadSpec, make_workload
from repro.errors import PolicyError, QueryError


class TestDefaults:
    def test_default_policy_fields(self):
        policy = ExecutionPolicy()
        assert policy.algorithm == "cea"
        assert policy.residency == "memory"
        assert policy.compiled == "auto"
        assert policy.page_size == 4096
        assert policy.workers == 1
        assert policy.routing == "round_robin"
        assert policy.executor == "process"
        assert policy.memoize_results is True
        assert policy.max_cached_entries is None
        assert policy.shard_fallback_threshold == 4

    def test_module_default_is_the_all_defaults_policy(self):
        assert DEFAULT_POLICY == ExecutionPolicy()

    def test_policy_is_frozen_and_hashable(self):
        policy = ExecutionPolicy()
        with pytest.raises(Exception):
            policy.workers = 2  # type: ignore[misc]
        assert hash(policy) == hash(ExecutionPolicy())

    def test_replace_returns_validated_copy(self):
        policy = ExecutionPolicy().replace(workers=3, residency="disk")
        assert (policy.workers, policy.residency) == (3, "disk")
        with pytest.raises(PolicyError):
            ExecutionPolicy().replace(workers=0)


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("algorithm", "dijkstra"),
            ("residency", "ram"),
            ("compiled", "yes"),
            ("page_size", 64),
            ("page_size", "big"),
            ("buffer_fraction", 0.0),
            ("buffer_fraction", 1.5),
            ("buffer_fraction", "0.5"),
            ("buffer_fraction", True),
            ("workers", 0),
            ("workers", 1.5),
            ("routing", "nearest"),
            ("executor", "fiber"),
            ("memoize_results", "yes"),
            ("max_cached_entries", 0),
            ("max_cached_entries", True),
            ("shard_fallback_threshold", 0),
        ],
    )
    def test_bad_field_rejected_at_construction(self, field, value):
        with pytest.raises(PolicyError):
            ExecutionPolicy(**{field: value})

    @pytest.mark.parametrize(
        "fields",
        [{"vector": "off"}, {"harvest_settled": True}],
        ids=["removed-field", "removed-field-harvest"],
    )
    def test_removed_field_rejected_at_construction(self, fields):
        (field,) = fields
        with pytest.raises(TypeError, match=field):
            ExecutionPolicy(**fields)

    def test_policy_error_is_a_query_error(self):
        # Pre-policy call sites catch QueryError around service construction.
        with pytest.raises(QueryError):
            ExecutionPolicy(workers=-1)

    def test_messages_are_actionable(self):
        with pytest.raises(PolicyError, match="expected one of"):
            ExecutionPolicy(routing="nearest")
        with pytest.raises(PolicyError, match=COMPILED_ENV_VAR):
            ExecutionPolicy(compiled="enabled")
        with pytest.raises(PolicyError, match="sequential"):
            ExecutionPolicy(workers=0)

    def test_vocabulary_shared_with_parallel_package(self):
        # The policy module is the canonical source of the routing/executor
        # vocabulary; repro.parallel re-exports the same tuples.
        assert repro.parallel.ROUTINGS is ROUTINGS
        assert repro.parallel.EXECUTORS is EXECUTORS

    def test_buffer_fraction_canonicalised_to_float(self):
        policy = ExecutionPolicy(buffer_fraction=1)
        assert policy.buffer_fraction == 1.0
        assert isinstance(policy.buffer_fraction, float)
        assert policy == ExecutionPolicy(buffer_fraction=1.0)


class TestCompiledEnvHandling:
    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values_enable(self, monkeypatch, value):
        monkeypatch.setenv(COMPILED_ENV_VAR, value)
        assert compiled_env_default() is True
        assert resolve_compiled("auto") is True

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "banana"])
    def test_other_values_disable(self, monkeypatch, value):
        monkeypatch.setenv(COMPILED_ENV_VAR, value)
        assert compiled_env_default() is False
        assert resolve_compiled("auto") is False

    def test_explicit_modes_ignore_the_environment(self, monkeypatch):
        monkeypatch.setenv(COMPILED_ENV_VAR, "1")
        assert resolve_compiled("off") is False
        monkeypatch.setenv(COMPILED_ENV_VAR, "0")
        assert resolve_compiled("on") is True

    def test_engine_default_routes_through_the_policy_module(self, monkeypatch):
        # MCNQueryEngine(compiled=None) defers to compiled_env_default, the one
        # parser of the variable; explicit flags ignore the environment.
        workload = make_workload(
            WorkloadSpec(num_nodes=40, num_facilities=8, num_cost_types=2, num_queries=0, seed=3)
        )

        def compiles(**kwargs):
            engine = MCNQueryEngine(workload.graph, workload.facilities, **kwargs)
            return engine.compiled_graph is not None

        monkeypatch.setenv(COMPILED_ENV_VAR, " Yes ")
        assert compiles() is True
        assert compiles(compiled=False) is False
        monkeypatch.delenv(COMPILED_ENV_VAR)
        assert compiles() is False
        assert compiles(compiled=True) is True

    def test_resolve_compiled_rejects_unknown_mode(self):
        with pytest.raises(PolicyError):
            resolve_compiled("maybe")

    def test_policy_resolved_compiled(self, monkeypatch):
        monkeypatch.setenv(COMPILED_ENV_VAR, "1")
        assert ExecutionPolicy(compiled="auto").resolved_compiled() is True
        assert ExecutionPolicy(compiled="off").resolved_compiled() is False
        monkeypatch.setenv(COMPILED_ENV_VAR, "0")
        assert ExecutionPolicy(compiled="auto").resolved_compiled() is False
        assert ExecutionPolicy(compiled="on").resolved_compiled() is True


GOLDEN_POLICY = ExecutionPolicy(
    algorithm="lsa",
    residency="disk",
    compiled="on",
    page_size=1024,
    buffer_fraction=0.05,
    workers=3,
    routing="locality",
    executor="thread",
    memoize_results=False,
    max_cached_entries=64,
    shard_fallback_threshold=2,
)

GOLDEN_PAYLOAD = {
    "algorithm": "lsa",
    "residency": "disk",
    "dataset_path": None,
    "compiled": "on",
    "page_size": 1024,
    "buffer_fraction": 0.05,
    "workers": 3,
    "routing": "locality",
    "executor": "thread",
    "memoize_results": False,
    "max_cached_entries": 64,
    "shard_fallback_threshold": 2,
    "temporal": "off",
    "profile_source": None,
    "temporal_quantum": 0.25,
    "temporal_cache_size": 8,
}


class TestPayloadCodecs:
    def test_golden_payload_pinned(self):
        assert policy_to_payload(GOLDEN_POLICY) == GOLDEN_PAYLOAD

    def test_golden_payload_decodes(self):
        assert policy_from_payload(GOLDEN_PAYLOAD) == GOLDEN_POLICY

    def test_round_trip_through_json_text(self):
        text = json.dumps(policy_to_payload(GOLDEN_POLICY))
        assert policy_from_payload(json.loads(text)) == GOLDEN_POLICY

    def test_default_policy_round_trips(self):
        assert policy_from_payload(policy_to_payload(DEFAULT_POLICY)) == DEFAULT_POLICY

    def test_methods_mirror_module_functions(self):
        assert GOLDEN_POLICY.to_payload() == GOLDEN_PAYLOAD
        assert ExecutionPolicy.from_payload(GOLDEN_PAYLOAD) == GOLDEN_POLICY

    def test_missing_fields_take_defaults(self):
        decoded = policy_from_payload({"residency": "disk"})
        assert decoded == ExecutionPolicy(residency="disk")

    @pytest.mark.parametrize(
        "payload",
        [{"worker": 3}, {"vector": "off"}, {"harvest_settled": True}],
        ids=["typo", "removed-field", "removed-field-harvest"],
    )
    def test_unknown_field_rejected(self, payload):
        (field,) = payload
        with pytest.raises(PolicyError, match=field):
            policy_from_payload(payload)

    def test_numeric_fields_coerced(self):
        decoded = policy_from_payload(
            {"page_size": 2048.0, "workers": 2.0, "buffer_fraction": 1, "max_cached_entries": 8.0}
        )
        assert decoded.page_size == 2048
        assert decoded.workers == 2
        assert decoded.buffer_fraction == 1.0
        assert decoded.max_cached_entries == 8

    def test_invalid_decoded_policy_rejected(self):
        with pytest.raises(PolicyError):
            policy_from_payload({"workers": 0})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("page_size", "abc"),
            ("page_size", None),
            ("workers", 2.7),
            ("workers", True),
            ("max_cached_entries", "many"),
            ("buffer_fraction", "half"),
        ],
    )
    def test_malformed_numeric_payloads_raise_policy_error(self, field, value):
        # Decode failures must surface as PolicyError (a QueryError), never
        # as a bare ValueError/TypeError an RPC caller would not catch.
        with pytest.raises(PolicyError, match=field):
            policy_from_payload({field: value})

    def test_encode_rejects_non_policy(self):
        with pytest.raises(PolicyError):
            policy_to_payload({"workers": 2})  # type: ignore[arg-type]

    def test_decode_rejects_non_dict(self):
        with pytest.raises(PolicyError):
            policy_from_payload(["workers", 2])  # type: ignore[arg-type]
