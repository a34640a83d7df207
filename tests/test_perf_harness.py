"""The perf-baseline harness (``bench perf``) and the driver's fast-path runs."""

from __future__ import annotations

import json

from repro.bench.driver import ReplaySpec, format_replay_report, replay_workload
import copy

import pytest

from repro.bench.perf import (
    HEADLINE_CASE,
    PERF_SCHEMA,
    compare_perf_reports,
    format_perf_comparison,
    format_perf_report,
    load_perf_baseline,
    run_perf_suite,
    write_perf_report,
)
from repro.errors import QueryError
from repro.cli import main
from repro.datagen import WorkloadSpec


class TestPerfSuite:
    def test_smoke_suite_verifies_and_serialises(self, tmp_path):
        report = run_perf_suite(smoke=True, repeats=1)
        # The harness is itself a differential check: every case must agree
        # between the accessor path and the kernel on results and I/O.
        assert report.all_identical
        assert report.all_io_identical
        assert report.headline.name == HEADLINE_CASE
        names = [case.name for case in report.cases]
        assert names == [
            "replay_lsa_deep",
            "replay_lsa_memory",
            "replay_cea_memory",
            "replay_cea_disk",
            "batched_service",
            "sharded_service",
            "monitor_tick",
        ]
        for case in report.cases:
            assert case.legacy.samples_ms and case.fast.samples_ms
            assert case.speedup_median > 0
            assert case.legacy.heap_pops == case.fast.heap_pops
            assert case.legacy.logical_requests == case.fast.logical_requests
            assert case.legacy.page_reads == case.fast.page_reads
        path = tmp_path / "bench.json"
        write_perf_report(report, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == PERF_SCHEMA
        assert payload["smoke"] is True
        assert payload["headline"]["case"] == HEADLINE_CASE
        assert payload["all_identical_results"] is True
        assert payload["all_io_identical"] is True
        assert len(payload["cases"]) == 7
        text = format_perf_report(report)
        assert HEADLINE_CASE in text
        assert "I/O accounting identical" in text

    def test_cli_bench_perf_smoke(self, tmp_path, capsys):
        output = tmp_path / "BENCH_smoke.json"
        exit_code = main(["bench", "perf", "--smoke", "--output", str(output)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "headline" in captured
        assert json.loads(output.read_text())["schema"] == PERF_SCHEMA

    def test_cli_bench_perf_can_skip_writing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        exit_code = main(["bench", "perf", "--smoke", "--repeats", "1", "--output", "-"])
        assert exit_code == 0
        assert not (tmp_path / "BENCH_4.json").exists()


def make_payload(
    cases: dict[str, tuple[float, float]], *, smoke: bool = True
) -> dict:
    """A minimal suite payload: name -> (speedup_median, fast median_ms)."""
    return {
        "schema": PERF_SCHEMA,
        "smoke": smoke,
        "cases": [
            {
                "name": name,
                "speedup_median": speedup,
                "fast": {"median_ms": median},
            }
            for name, (speedup, median) in cases.items()
        ],
    }


class TestPerfComparison:
    def test_no_regression_within_tolerance(self):
        baseline = make_payload({"a": (2.0, 10.0), "b": (1.2, 5.0)})
        current = make_payload({"a": (1.85, 10.8), "b": (1.3, 4.0)})
        assert compare_perf_reports(current, baseline) == []

    def test_speedup_erosion_beyond_tolerance_fails(self):
        baseline = make_payload({"a": (2.0, 10.0)})
        current = make_payload({"a": (1.7, 10.0)})
        regressions = compare_perf_reports(current, baseline)
        assert [r.metric for r in regressions] == ["speedup_median"]
        assert regressions[0].case == "a"
        assert regressions[0].change == pytest.approx(-0.15)
        text = format_perf_comparison(regressions, baseline_label="BENCH_X.json")
        assert "1 regression" in text and "speedup_median" in text

    def test_median_latency_growth_fails_at_equal_scale_only(self):
        baseline = make_payload({"a": (2.0, 10.0)})
        slower = make_payload({"a": (2.0, 11.5)})
        regressions = compare_perf_reports(slower, baseline)
        assert [r.metric for r in regressions] == ["fast median_ms"]
        # Different scales: absolute latencies are incomparable, speedup
        # (the scale-free ratio) is still policed.
        full_baseline = make_payload({"a": (2.0, 400.0)}, smoke=False)
        assert compare_perf_reports(slower, full_baseline) == []
        eroded = make_payload({"a": (1.5, 11.5)})
        assert [
            r.metric for r in compare_perf_reports(eroded, full_baseline)
        ] == ["speedup_median"]

    def test_unmatched_cases_are_skipped(self):
        baseline = make_payload({"old_case": (3.0, 1.0)})
        current = make_payload({"new_case": (1.0, 50.0)})
        assert compare_perf_reports(current, baseline) == []

    def test_bad_tolerance_and_bad_baseline_raise(self, tmp_path):
        payload = make_payload({"a": (1.0, 1.0)})
        with pytest.raises(QueryError):
            compare_perf_reports(payload, payload, tolerance=0.0)
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(QueryError):
            load_perf_baseline(str(bogus))

    def test_cli_against_passes_then_fails_on_doctored_baseline(self, tmp_path, capsys):
        output = tmp_path / "BENCH_now.json"
        baseline_path = tmp_path / "BENCH_base.json"
        assert main(["bench", "perf", "--smoke", "--output", str(output)]) == 0
        payload = json.loads(output.read_text())
        names = sorted(case["name"] for case in payload["cases"])

        def doctor(speedup_factor, median_factor):
            doctored = copy.deepcopy(payload)
            for case in doctored["cases"]:
                case["speedup_median"] *= speedup_factor
                case["fast"]["median_ms"] *= median_factor
            return doctored

        def against(baseline, *flags):
            baseline_path.write_text(json.dumps(baseline))
            exit_code = main(
                ["bench", "perf", "--smoke", "--output", "-", "--against", str(baseline_path), *flags]
            )
            return exit_code, capsys.readouterr().out

        # Each later run is compared with the first, so every timing field a
        # passing step reads is doctored far beyond run-to-run jitter: the
        # verdicts then test the compare mode, not two smoke runs agreeing.
        exit_code, out = against(doctor(0.001, 1000.0))
        assert exit_code == 0
        assert "no regressions" in out
        # A baseline claiming far better speedups must fail the run, on
        # exactly that metric and in every case.
        claims_more = doctor(30.0, 1000.0)
        exit_code, out = against(claims_more)
        assert exit_code == 1
        assert "regression(s)" in out
        verdict = out[out.index("regression(s)"):].splitlines()[1:]
        regressions = [line.strip().split(": ", 1) for line in verdict]
        assert sorted(case for case, _detail in regressions) == names
        assert {detail.split(" ", 1)[0] for _case, detail in regressions} == {"speedup_median"}
        # A tolerance wide enough to absorb the doctoring passes again —
        # the CI smoke gate leans on this to ride out smoke-scale jitter.
        exit_code, out = against(claims_more, "--tolerance", "0.999")
        assert exit_code == 0
        assert "no regressions" in out

    def test_cli_against_missing_baseline_is_a_usage_error(self, tmp_path, capsys):
        exit_code = main(
            [
                "bench", "perf", "--smoke", "--output", "-",
                "--against", str(tmp_path / "absent.json"),
            ]
        )
        assert exit_code == 2
        assert "bench perf:" in capsys.readouterr().err


class TestDriverFastPath:
    def test_replay_reports_fast_runs_side_by_side(self):
        spec = ReplaySpec(
            workload=WorkloadSpec(
                num_nodes=150, num_facilities=50, num_cost_types=2, num_queries=8, seed=19
            ),
            page_size=1024,
            fast_path=True,
        )
        report = replay_workload(spec)
        assert report.identical_results
        assert report.counters_consistent
        assert report.fast_one_shot is not None and report.fast_batched is not None
        assert report.fast_one_shot.page_reads == report.one_shot.page_reads
        assert report.fast_batched.page_reads == report.batched.page_reads
        assert report.fast_path_speedup is not None and report.fast_path_speedup > 0
        labels = [measurement.label for measurement in report.measurements]
        assert labels == ["one-shot", "batched", "one-shot*", "batched*"]
        text = format_replay_report(report)
        assert "fast path (*)" in text

    def test_cli_serve_batch_fast_path(self, capsys):
        exit_code = main(
            [
                "serve-batch",
                "--nodes", "120",
                "--facilities", "40",
                "--queries", "6",
                "--seed", "3",
                "--page-size", "1024",
                "--fast-path",
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "one-shot*" in captured
        assert "fast path (*)" in captured
