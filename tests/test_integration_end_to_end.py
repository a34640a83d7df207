"""End-to-end integration tests: disk vs memory, examples, and paper-trend checks."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

from repro.bench.config import ExperimentConfig
from repro.bench.runner import run_skyline_trial, run_topk_trial
from repro.core.engine import MCNQueryEngine
from repro.datagen import CostDistribution, WorkloadSpec, make_workload
from repro.storage import NetworkStorage

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestDiskMemoryConsistency:
    """The same queries must return identical results on both data layers."""

    def test_full_pipeline_agreement(self, medium_workload):
        graph, facilities = medium_workload.graph, medium_workload.facilities
        storage = NetworkStorage.build(graph, facilities, page_size=1024, buffer_fraction=0.01)
        disk_engine = MCNQueryEngine(graph, facilities, accessor=storage)
        memory_engine = MCNQueryEngine(graph, facilities)
        for query in medium_workload.queries:
            for algorithm in ("lsa", "cea"):
                assert (
                    disk_engine.skyline(query, algorithm=algorithm).facility_ids()
                    == memory_engine.skyline(query, algorithm=algorithm).facility_ids()
                )
                disk_top = disk_engine.top_k(query, 4, weights=[0.4, 0.3, 0.2, 0.1], algorithm=algorithm)
                memory_top = memory_engine.top_k(query, 4, weights=[0.4, 0.3, 0.2, 0.1], algorithm=algorithm)
                assert disk_top.facility_ids() == memory_top.facility_ids()

    def test_buffer_size_does_not_change_results(self, small_workload):
        graph, facilities = small_workload.graph, small_workload.facilities
        query = small_workload.queries[0]
        results = []
        for fraction in (0.0, 0.01, 0.05):
            storage = NetworkStorage.build(graph, facilities, page_size=512, buffer_fraction=fraction)
            engine = MCNQueryEngine(graph, facilities, accessor=storage)
            results.append(engine.skyline(query).facility_ids())
        assert results[0] == results[1] == results[2]

    def test_page_size_does_not_change_results(self, small_workload):
        graph, facilities = small_workload.graph, small_workload.facilities
        query = small_workload.queries[1]
        results = set()
        for page_size in (256, 1024, 4096):
            storage = NetworkStorage.build(graph, facilities, page_size=page_size)
            engine = MCNQueryEngine(graph, facilities, accessor=storage)
            results.add(frozenset(engine.skyline(query).facility_ids()))
        assert len(results) == 1


class TestPaperTrends:
    """Directional checks of the headline experimental claims at small scale."""

    def test_cea_beats_lsa_on_page_reads_for_both_query_types(self):
        config = ExperimentConfig(
            num_nodes=400, num_facilities=150, num_cost_types=3, page_size=512, num_queries=3, seed=11
        )
        skyline = run_skyline_trial(config)
        topk = run_topk_trial(config)
        assert skyline.speedup() > 1.2
        assert topk.speedup() > 1.2

    def test_correlated_costs_are_cheaper_than_anti_correlated(self):
        base = ExperimentConfig(
            num_nodes=400, num_facilities=150, num_cost_types=3, page_size=512, num_queries=3, seed=12
        )
        anti = run_skyline_trial(base.with_(distribution=CostDistribution.ANTI_CORRELATED))
        correlated = run_skyline_trial(base.with_(distribution=CostDistribution.CORRELATED))
        assert (
            correlated.measurements["cea"].mean_page_reads
            <= anti.measurements["cea"].mean_page_reads
        )
        assert (
            correlated.measurements["cea"].mean_result_size
            <= anti.measurements["cea"].mean_result_size
        )

    def test_more_cost_types_cost_more(self):
        base = ExperimentConfig(
            num_nodes=400, num_facilities=150, page_size=512, num_queries=3, seed=13
        )
        two = run_skyline_trial(base.with_(num_cost_types=2))
        five = run_skyline_trial(base.with_(num_cost_types=5))
        assert five.measurements["cea"].mean_page_reads > two.measurements["cea"].mean_page_reads

    def test_larger_buffer_reduces_page_reads(self):
        base = ExperimentConfig(
            num_nodes=400, num_facilities=150, num_cost_types=3, page_size=512, num_queries=3, seed=14
        )
        cold = run_skyline_trial(base.with_(buffer_fraction=0.0))
        warm = run_skyline_trial(base.with_(buffer_fraction=0.05))
        for algorithm in ("lsa", "cea"):
            assert (
                warm.measurements[algorithm].mean_page_reads
                < cold.measurements[algorithm].mean_page_reads
            )

    def test_larger_k_costs_more(self):
        base = ExperimentConfig(
            num_nodes=400, num_facilities=150, num_cost_types=3, page_size=512, num_queries=3, seed=15
        )
        small_k = run_topk_trial(base.with_(k=1))
        large_k = run_topk_trial(base.with_(k=16))
        assert (
            large_k.measurements["lsa"].mean_page_reads
            > small_k.measurements["lsa"].mean_page_reads
        )


class TestExamplesRun:
    """Every example script must execute successfully end to end."""

    @pytest.mark.parametrize(
        "script",
        [
            "quickstart.py",
            "logistics_warehouse.py",
            "university_housing.py",
            "social_network.py",
            "rush_hour_and_updates.py",
        ],
    )
    def test_example_script_runs(self, script, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", [script])
        runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
        output = capsys.readouterr().out
        assert len(output) > 100

    def test_reproduce_experiments_script_runs_one_figure(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["reproduce_experiments.py", "ablation-baseline"])
        runpy.run_path(str(EXAMPLES_DIR / "reproduce_experiments.py"), run_name="__main__")
        output = capsys.readouterr().out
        assert "E11" in output


class TestScenarioFromThePaper:
    """The Figure-1 toll-gate scenario: both warehouses must be skyline members."""

    def test_figure_one_scenario(self):
        from repro.network import FacilitySet, MultiCostGraph, NetworkLocation

        graph = MultiCostGraph(2)  # (driving minutes, toll dollars)
        for node_id in range(3):
            graph.add_node(node_id)
        # q -- p1 corridor: slow but free.    q -- p2 corridor: fast but tolled.
        graph.add_edge(0, 1, [20.0, 0.0])
        graph.add_edge(0, 2, [10.0, 1.0])
        facilities = FacilitySet(graph)
        facilities.add_on_edge(1, 0, 20.0)  # p1 at the end of the free corridor: (20 min, 0 $)
        facilities.add_on_edge(2, 1, 10.0)  # p2 at the end of the tolled corridor: (10 min, 1 $)
        engine = MCNQueryEngine(graph, facilities)
        query = NetworkLocation.at_node(0)
        skyline = engine.skyline(query)
        assert skyline.facility_ids() == {1, 2}
        # Mostly time-sensitive loads -> minimise minutes -> the tolled (fast) warehouse wins.
        sensitive = engine.top_k(query, 1, weights=[0.9, 0.1])
        assert sensitive.facility_ids() == [2]
        # Mostly cost-sensitive loads -> minimise dollars -> the free (slow) warehouse wins.
        # (The weights compensate for minutes and dollars being on different scales,
        # mirroring the paper's use of normalised costs in the aggregate function.)
        insensitive = engine.top_k(query, 1, weights=[0.02, 0.98])
        assert insensitive.facility_ids() == [1]
