"""Tests for the workload replay driver and the ``serve-batch`` CLI command."""

from __future__ import annotations

import pytest

from repro.bench.driver import (
    ReplaySpec,
    build_requests,
    format_replay_report,
    replay_workload,
)
from repro.cli import build_parser, main
from repro.datagen.workload import WorkloadSpec, make_workload
from repro.errors import QueryError
from repro.service import SkylineRequest, TopKRequest


class TestReplaySpec:
    def test_invalid_mix_rejected(self):
        with pytest.raises(QueryError):
            ReplaySpec(mix="everything")

    def test_invalid_k_rejected(self):
        with pytest.raises(QueryError):
            ReplaySpec(k=0)


class TestBuildRequests:
    @pytest.fixture(scope="class")
    def workload(self):
        return make_workload(
            WorkloadSpec(num_nodes=120, num_facilities=40, num_cost_types=2, num_queries=6, seed=3)
        )

    def test_mixed_alternates(self, workload):
        requests = build_requests(workload, ReplaySpec(mix="mixed", k=2))
        kinds = [type(request) for request in requests]
        assert kinds == [SkylineRequest, TopKRequest] * 3

    def test_pure_mixes(self, workload):
        assert all(
            isinstance(request, SkylineRequest)
            for request in build_requests(workload, ReplaySpec(mix="skyline"))
        )
        topk = build_requests(workload, ReplaySpec(mix="topk", k=3))
        assert all(isinstance(request, TopKRequest) and request.k == 3 for request in topk)

    def test_trace_is_deterministic(self, workload):
        spec = ReplaySpec(mix="topk", k=2)
        assert build_requests(workload, spec) == build_requests(workload, spec)


class TestReplayWorkload:
    def test_clustered_100_query_batch_saves_pages_with_identical_results(self):
        """The PR's acceptance criterion: on a clustered 100-query workload the
        batch service answers with strictly fewer total page reads than 100
        independent engine calls, with identical query results."""
        spec = ReplaySpec(
            workload=WorkloadSpec(
                num_nodes=250,
                num_facilities=100,
                num_cost_types=3,
                clustered=True,
                num_queries=100,
                seed=13,
            ),
            mix="mixed",
            k=4,
            page_size=1024,
        )
        report = replay_workload(spec)
        assert report.identical_results
        assert report.batched.page_reads < report.one_shot.page_reads
        assert report.page_reads_saved > 0 and report.savings_fraction > 0
        assert report.one_shot.queries == report.batched.queries == 100

    def test_report_metrics_populated(self):
        spec = ReplaySpec(
            workload=WorkloadSpec(
                num_nodes=150, num_facilities=60, num_cost_types=2, num_queries=8, seed=5
            ),
            mix="mixed",
            k=2,
            page_size=1024,
        )
        report = replay_workload(spec)
        for run in (report.one_shot, report.batched):
            assert run.queries == 8
            assert run.page_reads > 0
        assert report.cache.record_hits > 0

    def test_formatted_report(self):
        spec = ReplaySpec(
            workload=WorkloadSpec(
                num_nodes=150, num_facilities=60, num_cost_types=2, num_queries=4, seed=5
            ),
            page_size=1024,
        )
        text = format_replay_report(replay_workload(spec))
        assert "one-shot" in text and "batched" in text
        assert "page reads saved" in text
        assert "results identical: yes" in text


class TestServeBatchCLI:
    def test_parser_accepts_serve_batch(self):
        args = build_parser().parse_args(
            ["serve-batch", "--nodes", "150", "--queries", "10", "--mix", "skyline"]
        )
        assert args.command == "serve-batch" and args.mix == "skyline"

    def test_serve_batch_command(self, capsys):
        code = main(
            [
                "serve-batch",
                "--nodes", "150",
                "--facilities", "60",
                "--cost-types", "2",
                "--queries", "10",
                "--k", "2",
                "--page-size", "1024",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "page reads saved" in output
        assert "results identical: yes" in output
