"""Benchmark harness: experiment configurations, runners, per-figure drivers
and the workload replay driver of the batch query service."""

from repro.bench.driver import (
    ReplayMeasurement,
    ReplayReport,
    ReplaySpec,
    build_requests,
    format_replay_report,
    replay_workload,
)
from repro.bench.config import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    SMALL_SCALE,
    ExperimentConfig,
    ExperimentScale,
)
from repro.bench.experiments import (
    EXPERIMENTS,
    ExperimentRow,
    ExperimentSeries,
    ablation_probing_policy,
    ablation_versus_baseline,
    effect_of_buffer,
    effect_of_cost_types,
    effect_of_distribution,
    effect_of_facilities,
    effect_of_k,
    run_experiment,
)
from repro.bench.reporting import format_series_table, series_to_csv, summarize_speedups
from repro.bench.runner import (
    AlgorithmMeasurement,
    TrialResult,
    build_environment,
    run_skyline_trial,
    run_topk_trial,
)

__all__ = [
    "AlgorithmMeasurement",
    "DEFAULT_SCALE",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentRow",
    "ExperimentScale",
    "ExperimentSeries",
    "PAPER_SCALE",
    "ReplayMeasurement",
    "ReplayReport",
    "ReplaySpec",
    "SMALL_SCALE",
    "TrialResult",
    "build_requests",
    "format_replay_report",
    "replay_workload",
    "ablation_probing_policy",
    "ablation_versus_baseline",
    "build_environment",
    "effect_of_buffer",
    "effect_of_cost_types",
    "effect_of_distribution",
    "effect_of_facilities",
    "effect_of_k",
    "format_series_table",
    "run_experiment",
    "run_skyline_trial",
    "run_topk_trial",
    "series_to_csv",
    "summarize_speedups",
]
