"""Golden delta-stream fixtures: emitted deltas and path counters pinned forever.

Each ``tests/fixtures/delta_stream_*.json`` file stores a deterministic
workload spec, an update-stream spec, the subscription trace, the generated
stream itself and — per tick — every emitted
:class:`~repro.monitor.DeltaReport` plus the maintenance-path counters
(incremental vs fallback-recompute).  Replaying them here means a future
change cannot silently reroute updates down a different maintenance path or
alter the emitted deltas, even when the final answers stay correct; an
intentional change must re-run ``tests/fixtures/regenerate.py`` and commit
the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import ExecutionPolicy, Session
from repro.datagen import (
    make_update_stream,
    make_workload,
    update_stream_spec_from_payload,
    workload_spec_from_payload,
)
from repro.monitor import (
    MonitoringService,
    stream_from_payload,
    stream_to_payload,
    tick_report_to_payload,
)
from repro.network.facilities import FacilitySet
from repro.service.requests import decode_requests

FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"
FIXTURE_PATHS = sorted(FIXTURES_DIR.glob("delta_stream_*.json"))


def load_fixture(path: Path) -> dict:
    return json.loads(path.read_text())


def test_delta_fixtures_are_checked_in():
    assert len(FIXTURE_PATHS) >= 2, "delta fixtures missing; run tests/fixtures/regenerate.py"


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
class TestGoldenDeltaStreams:
    def build(self, fixture: dict):
        workload = make_workload(workload_spec_from_payload(fixture["workload"]))
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        service = MonitoringService(workload.graph, facilities)
        requests = decode_requests(fixture["requests"])
        sids = [service.subscribe(request) for request in requests]
        return workload, service, sids

    def test_stream_generation_is_pinned(self, path):
        """The generator must keep producing the exact stream the fixture stores."""
        fixture = load_fixture(path)
        workload, _service, sids = self.build(fixture)
        stream = make_update_stream(
            workload.graph,
            workload.facilities,
            update_stream_spec_from_payload(fixture["stream_spec"]),
            subscription_ids=sids,
        )
        assert stream_to_payload(stream) == fixture["stream"]

    def test_replay_emits_pinned_deltas_and_counters(self, path):
        """Every tick's deltas AND its incremental-vs-fallback split must match.

        A maintenance-path regression (an insert suddenly falling back, a
        non-member delete triggering a recompute) fails here even when the
        final answers are still correct.
        """
        fixture = load_fixture(path)
        _workload, service, _sids = self.build(fixture)
        stream = stream_from_payload(fixture["stream"])
        reports = service.run(stream)
        expected_ticks = fixture["expected"]["ticks"]
        assert len(reports) == len(expected_ticks)
        for report, expected in zip(reports, expected_ticks):
            assert tick_report_to_payload(report) == expected

    @pytest.mark.parametrize(
        "policy",
        [ExecutionPolicy(), ExecutionPolicy(residency="disk", page_size=1024)],
        ids=["memory-session", "disk-session"],
    )
    def test_session_monitor_replay_emits_pinned_deltas(self, path, policy):
        """A session's monitor reproduces every pinned tick payload exactly.

        It runs on the session engine's snapshot (a disk session's on a
        plan-free twin of the engine's) instead of one the service compiles
        for itself; no delta, counter or maintenance-path split may move.
        """
        fixture = load_fixture(path)
        workload = make_workload(workload_spec_from_payload(fixture["workload"]))
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        with Session(workload.graph, facilities, policy=policy) as session:
            engine = session.engine_for()
            handle = session.monitor(decode_requests(fixture["requests"]))
            shared = handle.service._engine.compiled_graph
            if policy.residency == "memory":
                assert shared is engine.compiled_graph
            else:
                assert engine.compiled_graph.has_page_plans and not shared.has_page_plans
            responses = handle.run(stream_from_payload(fixture["stream"]))
        expected_ticks = fixture["expected"]["ticks"]
        assert [tick_report_to_payload(r) for r in responses] == expected_ticks

    def test_cumulative_counters_are_pinned(self, path):
        fixture = load_fixture(path)
        _workload, service, _sids = self.build(fixture)
        service.run(stream_from_payload(fixture["stream"]))
        counters = service.statistics
        expected = fixture["expected"]["final_counters"]
        assert counters.insertions == expected["insertions"]
        assert counters.deletions == expected["deletions"]
        assert counters.incremental_updates == expected["incremental_updates"]
        assert counters.recomputations == expected["recomputations"]
        assert counters.query_moves == expected["query_moves"]
