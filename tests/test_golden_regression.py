"""Golden regression fixtures: answers and I/O accounting pinned forever.

Each ``tests/fixtures/golden_*.json`` file stores a deterministic workload
spec, a serialized request trace, every query's exact answer and the
sequential batch's page-read/buffer-hit totals.  Replaying them here means
future performance work cannot silently change answers or regress the I/O
accounting — an intentional change must re-run
``tests/fixtures/regenerate.py`` and commit the resulting diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Literal

import pytest

from repro.api import ExecutionPolicy, Session
from repro.core.engine import MCNQueryEngine
from repro.datagen import make_workload, workload_spec_from_payload
from repro.parallel import ShardedQueryService
from repro.service import QueryService, SkylineRequest
from repro.service.requests import decode_requests, encode_requests
from repro.storage.scheme import NetworkStorage

FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"
FIXTURE_PATHS = sorted(FIXTURES_DIR.glob("golden_*.json"))


def load_fixture(path: Path) -> dict:
    return json.loads(path.read_text())


def build_engine(fixture: dict, *, compiled: Literal[False] | None = False) -> MCNQueryEngine:
    """An engine over the fixture's storage: the record path unless ``compiled=None``."""
    workload = make_workload(workload_spec_from_payload(fixture["workload"]))
    storage = NetworkStorage.build(
        workload.graph,
        workload.facilities,
        page_size=fixture["page_size"],
        buffer_fraction=fixture["buffer_fraction"],
    )
    return MCNQueryEngine(
        workload.graph,
        workload.facilities,
        accessor=storage,
        compiled=compiled,
    )


def observed_payload(request, result) -> dict:
    if isinstance(request, SkylineRequest):
        return {
            "type": "skyline",
            "facilities": [[f.facility_id, list(f.costs)] for f in result],
        }
    return {"type": "topk", "facilities": [[f.facility_id, f.score] for f in result]}


def assert_results_match(expected: dict, observed: dict) -> None:
    assert observed["type"] == expected["type"]
    assert len(observed["facilities"]) == len(expected["facilities"])
    for (exp_id, exp_costs), (obs_id, obs_costs) in zip(
        expected["facilities"], observed["facilities"]
    ):
        assert obs_id == exp_id
        if expected["type"] == "skyline":
            for exp_value, obs_value in zip(exp_costs, obs_costs):
                if exp_value is None:
                    assert obs_value is None
                else:
                    assert obs_value == pytest.approx(exp_value, abs=1e-9)
        else:
            assert obs_costs == pytest.approx(exp_costs, abs=1e-9)


def test_fixtures_are_checked_in():
    assert len(FIXTURE_PATHS) >= 2, "golden fixtures missing; run tests/fixtures/regenerate.py"


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
class TestGoldenReplay:
    def test_sequential_replay_matches_answers_and_io(self, path):
        fixture = load_fixture(path)
        engine = build_engine(fixture)
        requests = decode_requests(fixture["requests"])
        report = QueryService(engine).run_batch(requests)
        expected = fixture["expected"]
        assert len(report.outcomes) == len(expected["results"])
        for outcome, expected_result in zip(report.outcomes, expected["results"]):
            assert_results_match(
                expected_result, observed_payload(outcome.request, outcome.result)
            )
        # I/O accounting is part of the contract: fewer reads is a conscious
        # improvement (regenerate the fixture), more reads is a regression.
        assert report.io.page_reads == expected["page_reads"]
        assert report.io.buffer_hits == expected["buffer_hits"]

    def test_sharded_replay_matches_answers(self, path):
        fixture = load_fixture(path)
        engine = build_engine(fixture)
        requests = decode_requests(fixture["requests"])
        report = ShardedQueryService(
            engine, policy=ExecutionPolicy(workers=2, routing="locality", executor="serial")
        ).run_batch(requests)
        for outcome, expected_result in zip(report.outcomes, fixture["expected"]["results"]):
            assert_results_match(
                expected_result, observed_payload(outcome.request, outcome.result)
            )

    def test_request_payloads_round_trip(self, path):
        fixture = load_fixture(path)
        requests = decode_requests(fixture["requests"])
        assert encode_requests(requests) == fixture["requests"]

    def test_compiled_replay_is_bit_identical(self, path):
        """The compiled-kernel fast path must reproduce every golden fixture
        exactly — answers AND the pinned page-read/buffer-hit totals."""
        fixture = load_fixture(path)
        engine = build_engine(fixture, compiled=None)
        assert engine.compiled_graph is not None and engine.compiled_graph.has_page_plans
        requests = decode_requests(fixture["requests"])
        report = QueryService(engine).run_batch(requests)
        expected = fixture["expected"]
        for outcome, expected_result in zip(report.outcomes, expected["results"]):
            assert_results_match(
                expected_result, observed_payload(outcome.request, outcome.result)
            )
        assert report.io.page_reads == expected["page_reads"]
        assert report.io.buffer_hits == expected["buffer_hits"]


#: The fixtures whose storage an :class:`ExecutionPolicy` can describe.  A
#: policy's ``buffer_fraction`` lies in (0, 1], so a fixture pinned on a
#: zero-page buffer replays only on the hand-built storages above.
POLICY_FIXTURE_PATHS = [
    path for path in FIXTURE_PATHS if load_fixture(path)["buffer_fraction"] > 0
]


@pytest.mark.parametrize("path", POLICY_FIXTURE_PATHS, ids=lambda p: p.stem)
class TestGoldenPolicyReplay:
    @pytest.mark.parametrize("compiled", ["on", "off"], ids=["kernel", "record-path"])
    def test_kernel_selection_replay_is_bit_identical(self, path, compiled):
        """Both expansions reproduce every policy-expressible golden fixture.

        The kernel runs through a disk :class:`~repro.api.Session`, whose
        data layer compiles page plans; the record path through a
        :class:`QueryService` over a ``compiled=False`` engine on the same
        storage shape.  Each must hit the answers and page-read/buffer-hit
        totals the fixture recorded.
        """
        fixture = load_fixture(path)
        requests = decode_requests(fixture["requests"])
        if compiled == "on":
            workload = make_workload(workload_spec_from_payload(fixture["workload"]))
            session = Session(
                workload.graph,
                workload.facilities,
                policy=ExecutionPolicy(
                    residency="disk",
                    page_size=fixture["page_size"],
                    buffer_fraction=fixture["buffer_fraction"],
                ),
            )
            engine = session.engine_for()
            batch = session.run_batch(requests)
            outcomes, io = list(batch), batch.io
        else:
            engine = build_engine(fixture)
            report = QueryService(engine).run_batch(requests)
            outcomes, io = report.outcomes, report.io
        compiled_graph = engine.compiled_graph
        if compiled == "on":
            assert compiled_graph is not None and compiled_graph.has_page_plans
        else:
            assert compiled_graph is None
        expected = fixture["expected"]
        assert len(outcomes) == len(expected["results"])
        for outcome, expected_result in zip(outcomes, expected["results"]):
            assert_results_match(
                expected_result, observed_payload(outcome.request, outcome.result)
            )
        assert io.page_reads == expected["page_reads"]
        assert io.buffer_hits == expected["buffer_hits"]
