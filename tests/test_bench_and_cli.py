"""Tests for the benchmark harness (config, runner, experiments, reporting) and the CLI."""

from __future__ import annotations

import re

import pytest

from repro.bench.coldcache import ColdCacheReport
from repro.bench.config import DEFAULT_SCALE, PAPER_SCALE, SMALL_SCALE, ExperimentConfig
from repro.bench.driver import (
    MonitorMeasurement,
    MonitorReplayReport,
    ReplayMeasurement,
    ReplayReport,
    ServeReplayReport,
    ServeReplaySpec,
    format_serve_report,
    replay_serve_workload,
    replay_update_stream,
)
from repro.bench.experiments import (
    EXPERIMENTS,
    ablation_probing_policy,
    ablation_versus_baseline,
    effect_of_distribution,
    run_experiment,
)
from repro.bench.reporting import format_series_table, series_to_csv, summarize_speedups
from repro.bench.runner import build_environment, run_skyline_trial, run_topk_trial
from repro.bench.timedep import TimedepLeg, TimedepReport
from repro.cli import build_parser, main
from repro.core.maintenance import MaintenanceStatistics
from repro.datagen.cost_models import CostDistribution
from repro.datagen.workload import WorkloadSpec
from repro.errors import QueryError, ReproError
from repro.service.cache import CacheStatistics

#: A deliberately tiny configuration so harness tests stay fast.
TINY = ExperimentConfig(
    num_nodes=120,
    num_facilities=50,
    num_cost_types=2,
    page_size=512,
    num_queries=2,
    k=2,
    seed=3,
)


class TestExperimentConfig:
    def test_defaults_for_scale(self):
        config = ExperimentConfig.defaults_for(SMALL_SCALE)
        assert config.num_facilities == SMALL_SCALE.default_facilities
        assert config.num_cost_types == SMALL_SCALE.default_cost_types

    def test_with_replaces_fields(self):
        config = TINY.with_(k=7, num_facilities=99)
        assert config.k == 7 and config.num_facilities == 99
        assert TINY.k == 2  # original unchanged

    def test_invalid_values_rejected(self):
        with pytest.raises(QueryError):
            ExperimentConfig(k=0)
        with pytest.raises(QueryError):
            ExperimentConfig(num_cost_types=0)
        with pytest.raises(QueryError):
            ExperimentConfig(num_queries=0)

    def test_scales_expose_sweeps(self):
        for scale in (SMALL_SCALE, DEFAULT_SCALE, PAPER_SCALE):
            assert len(scale.sweep_facilities()) == 5
            assert scale.sweep_cost_types() == (2, 3, 4, 5)
            assert scale.sweep_k() == (1, 2, 4, 8, 16)
            assert 0.0 in scale.sweep_buffers()

    def test_paper_scale_documents_original_populations(self):
        assert PAPER_SCALE.num_nodes == 174_956
        assert PAPER_SCALE.default_facilities == 100_000


class TestRunner:
    def test_build_environment(self):
        workload, storage = build_environment(TINY)
        assert len(workload.queries) == TINY.num_queries
        assert storage.config.page_size == TINY.page_size

    def test_skyline_trial_metrics(self):
        trial = run_skyline_trial(TINY)
        assert set(trial.measurements) == {"lsa", "cea"}
        for measurement in trial.measurements.values():
            assert measurement.queries == TINY.num_queries
            assert measurement.mean_page_reads > 0
            assert measurement.mean_result_size >= 1
        assert trial.speedup() >= 1.0

    def test_topk_trial_metrics(self):
        trial = run_topk_trial(TINY)
        for measurement in trial.measurements.values():
            assert measurement.queries == TINY.num_queries
            assert measurement.mean_result_size == pytest.approx(TINY.k)

    def test_trial_reuses_environment(self):
        environment = build_environment(TINY)
        first = run_skyline_trial(TINY, environment=environment)
        second = run_skyline_trial(TINY, environment=environment)
        assert first.measurements["cea"].mean_page_reads == pytest.approx(
            second.measurements["cea"].mean_page_reads
        )

    def test_baseline_algorithm_supported(self):
        trial = run_skyline_trial(TINY, algorithms=("baseline", "cea"))
        assert trial.measurements["baseline"].mean_page_reads > trial.measurements["cea"].mean_page_reads


class TestExperiments:
    def test_registry_covers_every_figure(self):
        expected = {"fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b", "fig11a", "fig11b", "fig12"}
        assert expected.issubset(set(EXPERIMENTS))

    def test_unknown_experiment_rejected(self):
        with pytest.raises(QueryError):
            run_experiment("fig99", SMALL_SCALE)

    def test_distribution_experiment_structure(self):
        tiny_scale = SMALL_SCALE
        series = effect_of_distribution("skyline", tiny_scale.__class__(
            name="tiny",
            num_nodes=120,
            facility_counts=(30, 60, 90, 120, 150),
            default_facilities=60,
            cost_type_counts=(2, 3, 4, 5),
            default_cost_types=2,
            buffer_fractions=(0.0, 0.01, 0.02, 0.03, 0.04),
            default_buffer_fraction=0.01,
            k_values=(1, 2, 4, 8, 16),
            default_k=2,
            num_queries=2,
            page_size=512,
        ))
        assert [row.value for row in series.rows] == [
            CostDistribution.ANTI_CORRELATED.value,
            CostDistribution.INDEPENDENT.value,
            CostDistribution.CORRELATED.value,
        ]
        assert series.algorithms() == ["lsa", "cea"]
        curve = series.series("cea")
        assert len(curve) == 3

    def test_ablation_probing_rows(self):
        scale = SMALL_SCALE.__class__(
            name="tiny",
            num_nodes=120,
            facility_counts=(30,) * 5,
            default_facilities=40,
            cost_type_counts=(2, 3, 4, 5),
            default_cost_types=2,
            buffer_fractions=(0.0, 0.01, 0.01, 0.01, 0.02),
            default_buffer_fraction=0.01,
            k_values=(1, 2, 4, 8, 16),
            default_k=2,
            num_queries=1,
            page_size=512,
        )
        series = ablation_probing_policy(scale)
        assert [row.value for row in series.rows] == ["round-robin", "smallest-first", "largest-first"]

    def test_ablation_baseline_includes_three_algorithms(self):
        scale = SMALL_SCALE.__class__(
            name="tiny",
            num_nodes=100,
            facility_counts=(30,) * 5,
            default_facilities=30,
            cost_type_counts=(2, 3, 4, 5),
            default_cost_types=2,
            buffer_fractions=(0.0,) * 5,
            default_buffer_fraction=0.01,
            k_values=(1, 2, 4, 8, 16),
            default_k=2,
            num_queries=1,
            page_size=512,
        )
        series = ablation_versus_baseline(scale)
        assert set(series.rows[0].trial.measurements) == {"baseline", "lsa", "cea"}


class TestReporting:
    @pytest.fixture(scope="class")
    def series(self):
        scale = SMALL_SCALE.__class__(
            name="tiny",
            num_nodes=100,
            facility_counts=(30,) * 5,
            default_facilities=30,
            cost_type_counts=(2, 3, 4, 5),
            default_cost_types=2,
            buffer_fractions=(0.0, 0.02, 0.02, 0.02, 0.02),
            default_buffer_fraction=0.01,
            k_values=(1, 2, 4, 8, 16),
            default_k=2,
            num_queries=1,
            page_size=512,
        )
        return effect_of_distribution("skyline", scale)

    def test_table_contains_all_rows(self, series):
        table = format_series_table(series)
        assert "anti-correlated" in table and "correlated" in table
        assert "lsa" in table and "cea" in table
        assert series.figure in table

    def test_csv_has_header_and_rows(self, series):
        csv_text = series_to_csv(series)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("experiment,figure")
        assert len(lines) == 1 + 3 * 2  # three sweep points x two algorithms

    def test_speedup_summary(self, series):
        summary = summarize_speedups(series)
        assert summary.count("x") >= 3


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        assert parser.parse_args(["demo"]).command == "demo"
        assert parser.parse_args(["list"]).command == "list"
        args = parser.parse_args(["experiment", "fig12", "--scale", "small"])
        assert args.name == "fig12" and args.scale == "small"

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig8a" in output and "fig12" in output

    def test_demo_command(self, capsys):
        assert main(["demo", "--nodes", "150", "--facilities", "60", "--cost-types", "2", "--k", "2"]) == 0
        output = capsys.readouterr().out
        assert "[skyline/lsa]" in output and "[top-2/cea]" in output

    def test_demo_is_deterministic_per_seed(self, capsys):
        # The top-k weights are drawn from --seed, so two runs print the same
        # lines once the timings are stripped.
        args = ["demo", "--nodes", "150", "--facilities", "60", "--k", "3", "--seed", "7"]
        outputs = []
        for _ in range(2):
            assert main(args) == 0
            outputs.append(re.sub(r", [0-9.]+ ms", "", capsys.readouterr().out))
        rankings = [line for line in outputs[0].splitlines() if line.startswith("[top-3/")]
        assert len(rankings) == 2
        assert outputs[0] == outputs[1]

    def test_unknown_experiment_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_monitor_saves_requests_at_the_small_config(self, monkeypatch, capsys):
        """Incremental maintenance beats recomputing every tick, with the
        CLI's own spec: the replay the command runs is recorded, not rebuilt."""
        reports = []

        def recording(spec):
            reports.append(replay_update_stream(spec))
            return reports[-1]

        monkeypatch.setattr("repro.cli.replay_update_stream", recording)
        argv = ["monitor", "--nodes", "150", "--facilities", "60", "--ticks", "5"]
        assert main(argv) == 0
        (report,) = reports
        assert report.identical_results
        assert report.requests_saved > 0
        output = capsys.readouterr().out
        assert f"accessor requests at subscribe: {report.subscribe_requests}" in output
        assert report.subscribe_requests > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "perf"],
            ["serve-batch", "--fast-path"],
            ["bench", "cold-cache", "--no-compare"],
            ["bench", "timedep", "--no-probe"],
        ],
    )
    def test_retired_timing_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


# Failing reports for the parity commands' exit-code tests.  Each fake takes
# the spec the CLI built and returns a report whose verdict is "NO".
def _failing_replay(spec):
    return ReplayReport(
        spec=spec,
        one_shot=ReplayMeasurement("one-shot", queries=1, page_reads=2),
        batched=ReplayMeasurement("batched", queries=1, page_reads=1),
        identical_results=False,
        cache=CacheStatistics(),
    )


def _failing_monitor_replay(spec):
    return MonitorReplayReport(
        spec=spec,
        incremental=MonitorMeasurement("incremental", ticks=1, accessor_requests=1),
        recompute=MonitorMeasurement("recompute", ticks=1, accessor_requests=2),
        identical_results=False,
        counters=MaintenanceStatistics(),
    )


def _failing_cold_cache(spec, **_kwargs):
    return ColdCacheReport(
        spec=spec,
        pack_bytes=1024,
        num_pages=1,
        checksum="0" * 64,
        buffer_capacity=1,
        page_reads=2,
        buffer_hits=0,
        skyline_sizes=[1],
        simulated_page_reads=3,
        simulated_buffer_hits=0,
        results_identical=True,
    )


def _failing_timedep(spec):
    leg = TimedepLeg(
        total_requests=1,
        adjacency_requests=1,
        recomputations=1,
        edge_cost_refreshes=0,
        services_built=1,
    )
    return TimedepReport(
        spec=spec,
        subscriptions=1,
        busy_ticks=1,
        empty_ticks=0,
        stream_updates=1,
        incremental=leg,
        rebuild=leg,
        results_identical=False,
    )


class TestParityExitCodes:
    """A parity command's exit code is its verdict, not just its printed line."""

    @pytest.mark.parametrize(
        "argv, target, fake, verdict",
        [
            (
                ["serve-batch"],
                "repro.cli.replay_workload",
                _failing_replay,
                "results identical: NO",
            ),
            (
                ["monitor"],
                "repro.cli.replay_update_stream",
                _failing_monitor_replay,
                "results identical: NO",
            ),
            (
                ["bench", "cold-cache"],
                "repro.bench.coldcache.run_cold_cache_bench",
                _failing_cold_cache,
                "page-read parity with SimulatedDisk: NO",
            ),
            (
                ["bench", "timedep"],
                "repro.bench.timedep.run_timedep_bench",
                _failing_timedep,
                "final answers identical across legs: NO",
            ),
        ],
        ids=["serve-batch", "monitor", "bench-cold-cache", "bench-timedep"],
    )
    def test_failed_verdict_exits_one(self, monkeypatch, capsys, argv, target, fake, verdict):
        monkeypatch.setattr(target, fake)
        code = main(argv)
        output = capsys.readouterr().out
        assert code == 1, output
        assert verdict in output


class TestServeReplay:
    """The async load-replay bench mode behind ``repro-mcn serve --replay``."""

    SPEC = ServeReplaySpec(
        workload=WorkloadSpec(
            num_nodes=120, num_facilities=30, num_cost_types=2, num_queries=6, seed=11
        ),
        duplicates=3,
        ticks=2,
        updates_per_tick=2,
        clients=4,
    )

    @pytest.fixture(scope="class")
    def report(self):
        return replay_serve_workload(self.SPEC)

    def test_served_concurrency_matches_the_sequential_oracle(self, report):
        assert report.identical_payloads
        assert report.mismatched_ops == []

    def test_io_counters_match_the_sequential_oracle(self, report):
        assert report.identical_io
        assert report.mismatched_io_ops == []
        assert report.clean

    def test_trace_shape(self, report):
        assert report.queries == 6 + 3
        assert report.ticks == 2
        assert report.operations == 11

    def test_metrics_cover_the_trace(self, report):
        assert report.metrics["errors"] == 0 and report.metrics["timeouts"] == 0
        assert report.metrics["endpoints"]["query"]["count"] == report.queries
        assert report.metrics["endpoints"]["patch"]["count"] == report.ticks

    def test_format_serve_report(self, report):
        text = format_serve_report(report)
        assert "payloads identical to sequential replay: yes" in text
        assert "I/O counters identical to sequential replay: yes" in text
        assert "query" in text and "patch" in text
        assert "admission:" in text

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mix": "everything"},
            {"k": 0},
            {"clients": 1},
            {"duplicates": -1},
            {"ticks": -2},
            {"max_in_flight": 0},
            {"timeout_seconds": -1.0},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ReproError):
            ServeReplaySpec(**kwargs)

    def test_serve_replay_command(self, capsys):
        code = main(
            [
                "serve",
                "--replay",
                "--nodes", "120",
                "--facilities", "30",
                "--cost-types", "2",
                "--queries", "4",
                "--ticks", "1",
                "--clients", "4",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0, output
        assert "payloads identical to sequential replay: yes" in output
        assert "I/O counters identical to sequential replay: yes" in output

    @pytest.mark.parametrize(
        "payloads_ok, io_ok",
        [(False, True), (True, False), (False, False)],
    )
    def test_serve_replay_exits_nonzero_on_any_mismatch(
        self, monkeypatch, capsys, payloads_ok, io_ok
    ):
        # The CLI's exit code is the differential verdict: a payload mismatch
        # OR an I/O-counter mismatch must fail the run, not just print "NO".
        import repro.cli as cli

        def fake_replay(spec):
            return ServeReplayReport(
                spec=spec,
                queries=1,
                ticks=0,
                metrics={},
                identical_payloads=payloads_ok,
                mismatched_ops=[] if payloads_ok else ["query[0]"],
                identical_io=io_ok,
                mismatched_io_ops=[] if io_ok else ["query[0]"],
            )

        monkeypatch.setattr(cli, "replay_serve_workload", fake_replay)
        code = cli.main(["serve", "--replay", "--nodes", "120", "--facilities", "30"])
        output = capsys.readouterr().out
        assert code == 1, output
        if not payloads_ok:
            assert "payloads identical to sequential replay: NO" in output
            assert "mismatched ops: query[0]" in output
        if not io_ok:
            assert "I/O counters identical to sequential replay: NO" in output
            assert "I/O-mismatched ops: query[0]" in output

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert not args.replay
        assert (args.clients, args.max_in_flight) == (8, 8)
        assert args.port == 8737


class TestColdCacheBench:
    """CI-scale smoke over the cold-cache family: tiny grid, full parity."""

    def test_bad_specs_rejected(self):
        from repro.bench.coldcache import ColdCacheSpec

        with pytest.raises(QueryError, match="buffer fraction"):
            ColdCacheSpec(buffer_fraction=0.0)
        with pytest.raises(QueryError, match="at least one query"):
            ColdCacheSpec(num_queries=0)

    def test_tiny_grid_has_full_parity(self, tmp_path):
        from repro.bench.coldcache import ColdCacheSpec, run_cold_cache_bench
        from repro.datagen.road_network import PackedDatasetSpec

        spec = ColdCacheSpec(
            dataset=PackedDatasetSpec(rows=8, cols=8, num_facilities=12, page_size=512),
            buffer_fraction=0.05,
            num_queries=4,
        )
        pack = tmp_path / "cold.mcnpack"
        report = run_cold_cache_bench(spec, pack_path=str(pack), keep_pack=True)
        assert pack.exists()
        assert report.io_identical is True
        assert report.results_identical is True
        assert report.page_reads > 0
        assert report.buffer_capacity >= 1
        assert len(report.skyline_sizes) == len(spec.query_nodes())
        payload = report.to_payload()
        assert payload["simulated"]["io_identical"] is True
        assert payload["checksum"] == report.checksum

    def test_cli_parser_defaults(self):
        args = build_parser().parse_args(["bench", "cold-cache"])
        assert args.bench_command == "cold-cache"
        assert args.buffer_fraction == 0.01
        assert args.queries == 16
        assert args.pack is None

    def test_cli_smoke_reports_parity(self, tmp_path, capsys):
        output_path = tmp_path / "cold.json"
        code = main(
            [
                "bench", "cold-cache",
                "--rows", "8",
                "--cols", "8",
                "--facilities", "12",
                "--page-size", "512",
                "--queries", "4",
                "--buffer-fraction", "0.05",
                "--output", str(output_path),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0, output
        assert "page-read parity with SimulatedDisk: yes" in output
        assert "results identical to SimulatedDisk: yes" in output
        assert output_path.exists()


class TestTimedepBench:
    """CI-scale smoke over the timedep replay family."""

    #: Tiny rush hour with an off-peak tail: ticks past the peak re-profile
    #: nothing, which is where incremental maintenance pulls ahead.
    def _spec(self, **overrides):
        from repro.bench.timedep import TimedepBenchSpec
        from repro.datagen.updates import EdgeCostStreamSpec

        settings = {
            "workload": WorkloadSpec(
                num_nodes=100, num_facilities=24, num_cost_types=2,
                num_queries=4, seed=13,
            ),
            "stream": EdgeCostStreamSpec(
                num_ticks=10, start_time=6.0, time_step=0.5,
                affected_fraction=0.25, seed=14,
            ),
        }
        settings.update(overrides)
        return TimedepBenchSpec(**settings)

    def test_bad_specs_rejected(self):
        with pytest.raises(QueryError, match="at least one subscription"):
            self._spec(
                workload=WorkloadSpec(
                    num_nodes=100, num_facilities=24, num_cost_types=2,
                    num_queries=0, seed=13,
                )
            )
        with pytest.raises(QueryError, match="k must be"):
            self._spec(k=0)

    def test_incremental_replay_beats_rebuild_every_tick(self):
        from repro.bench.timedep import format_timedep_report, run_timedep_bench

        report = run_timedep_bench(self._spec())
        # The bench is its own differential oracle...
        assert report.results_identical is True
        # ...and the acceptance criterion: the incremental path does
        # measurably less logical work than rebuilding every tick.
        assert report.empty_ticks > 0
        assert report.rebuild.total_requests > report.incremental.total_requests
        assert report.work_ratio is not None and report.work_ratio > 1.0
        assert report.incremental.services_built == 1
        assert report.rebuild.services_built == report.spec.stream.num_ticks
        assert report.incremental.edge_cost_refreshes > 0
        output = format_timedep_report(report)
        assert "final answers identical across legs: yes" in output
        payload = report.to_payload()
        assert payload["results_identical"] is True
        assert payload["work_ratio"] > 1.0

    def test_cli_parser_defaults(self):
        args = build_parser().parse_args(["bench", "timedep"])
        assert args.bench_command == "timedep"
        assert (args.nodes, args.facilities, args.subscriptions) == (300, 60, 6)
        assert (args.ticks, args.start_time, args.time_step) == (24, 6.0, 0.5)

    def test_cli_smoke_reports_the_work_ratio(self, tmp_path, capsys):
        output_path = tmp_path / "timedep.json"
        code = main(
            [
                "bench", "timedep",
                "--nodes", "100",
                "--facilities", "24",
                "--subscriptions", "4",
                "--ticks", "10",
                "--seed", "13",
                "--output", str(output_path),
            ]
        )
        output = capsys.readouterr().out
        assert code == 0, output
        assert "final answers identical across legs: yes" in output
        assert "the accessor requests of the incremental path" in output
        assert output_path.exists()
