"""Tests for the time-dependent extension (profiles, time-varying MCN, period queries)."""

from __future__ import annotations

import pytest

from repro.core.aggregates import WeightedSum
from repro.datagen import EdgeCostStreamSpec, WorkloadSpec, make_profile_network, make_workload
from repro.errors import FacilityError, GraphError, QueryError
from repro.network import FacilitySet, InMemoryAccessor, MultiCostGraph, NetworkLocation
from repro.timedep import (
    ConstantProfile,
    PiecewiseLinearProfile,
    TimeVaryingMCN,
    peak_profile,
    rebind_facilities,
    skyline_over_period,
    stable_intervals,
    top_k_over_period,
)
from repro.timedep.queries import TimedResult
from tests.helpers import (
    exact_skyline,
    facility_vectors,
    reference_facilities,
    reference_snapshot,
)


class TestProfiles:
    def test_constant_profile(self):
        profile = ConstantProfile(1.5)
        assert profile.value_at(0.0) == 1.5
        assert profile.value_at(100.0) == 1.5

    def test_constant_profile_rejects_negative(self):
        with pytest.raises(GraphError):
            ConstantProfile(-0.1)

    def test_piecewise_linear_interpolation(self):
        profile = PiecewiseLinearProfile([(0.0, 1.0), (10.0, 3.0)])
        assert profile.value_at(5.0) == pytest.approx(2.0)
        assert profile.value_at(2.5) == pytest.approx(1.5)

    def test_piecewise_linear_clamps_outside_range(self):
        profile = PiecewiseLinearProfile([(0.0, 1.0), (10.0, 3.0)])
        assert profile.value_at(-5.0) == 1.0
        assert profile.value_at(50.0) == 3.0

    def test_breakpoints_sorted_and_unique(self):
        profile = PiecewiseLinearProfile([(10.0, 3.0), (0.0, 1.0)])
        assert profile.breakpoints == [(0.0, 1.0), (10.0, 3.0)]
        with pytest.raises(GraphError):
            PiecewiseLinearProfile([(0.0, 1.0), (0.0, 2.0)])

    def test_empty_and_negative_rejected(self):
        with pytest.raises(GraphError):
            PiecewiseLinearProfile([])
        with pytest.raises(GraphError):
            PiecewiseLinearProfile([(0.0, -1.0)])

    def test_peak_profile_shape(self):
        profile = peak_profile(peak_time=8.0, peak_multiplier=2.5, width=2.0)
        assert profile.value_at(8.0) == pytest.approx(2.5)
        assert profile.value_at(6.0) == pytest.approx(1.0)
        assert profile.value_at(7.0) == pytest.approx(1.75)
        assert profile.value_at(0.0) == pytest.approx(1.0)

    def test_peak_profile_invalid_width(self):
        with pytest.raises(GraphError):
            peak_profile(peak_time=8.0, peak_multiplier=2.0, width=0.0)


class TestTimeVaryingMCN:
    @pytest.fixture
    def network(self, tiny_graph) -> TimeVaryingMCN:
        highway = tiny_graph.edge_between(3, 4)
        network = TimeVaryingMCN(tiny_graph)
        # The highway's driving time doubles at the 8 o'clock peak; the toll is constant.
        network.set_profile(highway.edge_id, 0, peak_profile(peak_time=8.0, peak_multiplier=2.0))
        return network

    def test_cost_at_off_peak_equals_base(self, network, tiny_graph):
        highway = tiny_graph.edge_between(3, 4)
        assert network.cost_at(highway.edge_id, 0.0).values == highway.costs.values

    def test_cost_at_peak_is_scaled(self, network, tiny_graph):
        highway = tiny_graph.edge_between(3, 4)
        peak_costs = network.cost_at(highway.edge_id, 8.0)
        assert peak_costs[0] == pytest.approx(highway.costs[0] * 2.0)
        assert peak_costs[1] == pytest.approx(highway.costs[1])

    def test_edges_without_profiles_are_static(self, network, tiny_graph):
        plain = tiny_graph.edge_between(0, 1)
        assert network.cost_at(plain.edge_id, 8.0).values == plain.costs.values

    def test_snapshot_preserves_structure(self, network, tiny_graph):
        snapshot = network.snapshot(8.0)
        assert snapshot.num_nodes == tiny_graph.num_nodes
        assert snapshot.num_edges == tiny_graph.num_edges
        for edge in tiny_graph.edges():
            assert snapshot.edge(edge.edge_id).length == edge.length

    def test_snapshot_reflects_time(self, network, tiny_graph):
        highway = tiny_graph.edge_between(3, 4)
        off_peak = network.snapshot(0.0).edge(highway.edge_id).costs
        peak = network.snapshot(8.0).edge(highway.edge_id).costs
        assert peak[0] > off_peak[0]

    def test_profile_validation(self, tiny_graph):
        with pytest.raises(GraphError):
            TimeVaryingMCN(tiny_graph, {999: [None, None]})
        with pytest.raises(GraphError):
            TimeVaryingMCN(tiny_graph, {0: [None]})
        network = TimeVaryingMCN(tiny_graph)
        with pytest.raises(GraphError):
            network.set_profile(999, 0, ConstantProfile(1.0))
        with pytest.raises(GraphError):
            network.set_profile(0, 5, ConstantProfile(1.0))

    def test_rebind_facilities(self, network, tiny_graph, tiny_facilities):
        snapshot = network.snapshot(8.0)
        rebound = rebind_facilities(snapshot, tiny_facilities)
        assert len(rebound) == len(tiny_facilities)
        assert rebound.graph is snapshot
        for facility in tiny_facilities:
            assert rebound.facility(facility.facility_id).offset == facility.offset


class TestSnapshotAgainstReference:
    """``snapshot`` shares the base's topology; the reference copies all of it.

    Both must describe the same graph in the same order (node, edge and
    neighbour order decide heap push order, hence answers and I/O), and the
    sharing must never let a snapshot and its base or a rebound facility set
    and its source write into each other.
    """

    @pytest.fixture
    def scenario(self):
        workload = make_workload(
            WorkloadSpec(num_nodes=110, num_facilities=30, num_cost_types=2, seed=81)
        )
        spec = EdgeCostStreamSpec(start_time=6.0, affected_fraction=0.25, seed=82)
        return workload, make_profile_network(workload.graph, spec)

    @staticmethod
    def update_profiled_and_plain_edge(network: TimeVaryingMCN) -> None:
        """Re-cost one edge that has a profile and one that has none."""
        base = network.base_graph
        # Every profile of the scenario peaks near 8.0, so exactly the
        # profiled edges cost more then than their base.
        profiled = [
            edge for edge in base.edges() if network.cost_at(edge.edge_id, 8.0) != edge.costs
        ]
        plain = next(edge for edge in base.edges() if edge not in profiled)
        for edge, factor in ((profiled[0], 3.0), (plain, 0.5)):
            base.update_edge_costs(edge.edge_id, [cost * factor for cost in edge.costs])

    @pytest.mark.parametrize("updated", [False, True], ids=["base", "updated-base"])
    @pytest.mark.parametrize("time", [0.0, 6.5, 8.0, 9.5])
    def test_snapshot_equals_the_reference(self, scenario, time, updated):
        _workload, network = scenario
        if updated:
            self.update_profiled_and_plain_edge(network)
        snapshot = network.snapshot(time)
        reference = reference_snapshot(network, time)
        assert list(snapshot.node_ids()) == list(reference.node_ids())

        def edge_rows(graph):
            return [
                (edge.edge_id, edge.u, edge.v, edge.costs.values, edge.length)
                for edge in graph.edges()
            ]

        assert edge_rows(snapshot) == edge_rows(reference)
        for node_id in reference.node_ids():
            assert snapshot.neighbors(node_id) == reference.neighbors(node_id)

    def test_snapshot_refuses_topology_changes(self, scenario):
        _workload, network = scenario
        base = network.base_graph
        snapshot = network.snapshot(8.0)
        nodes, edges = base.num_nodes, base.num_edges
        first, second = list(base.node_ids())[:2]
        with pytest.raises(GraphError):
            snapshot.add_node(10_000, 1.0, 1.0)
        with pytest.raises(GraphError):
            snapshot.add_edge(first, second, [1.0, 1.0])
        assert (base.num_nodes, base.num_edges) == (nodes, edges)
        assert (snapshot.num_nodes, snapshot.num_edges) == (nodes, edges)

    def test_base_cost_updates_leave_snapshots_alone(self, scenario):
        _workload, network = scenario
        base = network.base_graph
        snapshot = network.snapshot(8.0)
        before = {edge.edge_id: edge.costs for edge in snapshot.edges()}
        for edge in list(base.edges())[:10]:
            base.update_edge_costs(edge.edge_id, [cost * 2.0 for cost in edge.costs])
        assert {edge.edge_id: edge.costs for edge in snapshot.edges()} == before
        # ...and a snapshot's own update stays in the snapshot.
        edge = next(iter(snapshot.edges()))
        base_costs = base.edge(edge.edge_id).costs
        snapshot.update_edge_costs(edge.edge_id, [cost + 1.0 for cost in edge.costs])
        assert base.edge(edge.edge_id).costs == base_costs

    def test_rebound_set_is_independent_of_its_source(self, scenario):
        workload, network = scenario
        snapshot = network.snapshot(8.0)
        rebound = rebind_facilities(snapshot, workload.facilities)
        assert rebound.graph is snapshot
        assert list(rebound) == list(reference_facilities(snapshot, workload.facilities))

        def placement(facilities):
            return list(facilities), {
                edge_id: facilities.on_edge(edge_id)
                for edge_id in facilities.edges_with_facilities()
            }

        before = placement(workload.facilities)
        removed, kept = before[0][0], before[0][1]
        rebound.remove(removed.facility_id)
        rebound.add_on_edge(10_000, kept.edge_id, kept.offset)
        assert placement(workload.facilities) == before

    def test_rebinding_checks_each_placement(self, tiny_graph, tiny_facilities):
        placed = tiny_facilities.facility(0)
        host = tiny_graph.edge(placed.edge_id)

        def copy_of_tiny_graph(host_length):
            graph = MultiCostGraph(tiny_graph.num_cost_types)
            for node in tiny_graph.nodes():
                graph.add_node(node.node_id, node.x, node.y)
            for edge in tiny_graph.edges():
                length = edge.length if edge.edge_id != host.edge_id else host_length
                if length is not None:
                    graph.add_edge(
                        edge.u, edge.v, edge.costs, length=length, edge_id=edge.edge_id
                    )
            return graph

        with pytest.raises(FacilityError):
            rebind_facilities(copy_of_tiny_graph(None), tiny_facilities)
        with pytest.raises(FacilityError):
            rebind_facilities(copy_of_tiny_graph(placed.offset / 2), tiny_facilities)


class TestPeriodQueries:
    @pytest.fixture
    def scenario(self, tiny_graph, tiny_facilities):
        highway = tiny_graph.edge_between(3, 4)
        ramp = tiny_graph.edge_between(4, 5)
        network = TimeVaryingMCN(tiny_graph)
        # A strong morning peak makes the tolled highway slow around t=8, so the
        # facility that relies on it (facility 1) loses its time advantage.
        for edge in (highway, ramp):
            network.set_profile(edge.edge_id, 0, peak_profile(peak_time=8.0, peak_multiplier=6.0, width=2.0))
        return network, tiny_facilities, NetworkLocation.at_node(3)

    def test_snapshot_results_match_static_oracle(self, scenario):
        network, facilities, query = scenario
        for time in (0.0, 8.0, 12.0):
            snapshot = network.snapshot(time)
            rebound = rebind_facilities(snapshot, facilities)
            expected = exact_skyline(facility_vectors(snapshot, rebound, query))
            observed = skyline_over_period(network, facilities, query, [time])[0]
            assert set(observed.facility_ids) == expected

    def test_skyline_changes_across_the_peak(self, scenario):
        network, facilities, query = scenario
        results = skyline_over_period(network, facilities, query, [0.0, 8.0])
        assert results[0].facility_ids != results[1].facility_ids

    def test_topk_over_period_ranks_change(self, scenario):
        network, facilities, query = scenario
        aggregate = WeightedSum((0.9, 0.1))
        results = top_k_over_period(network, facilities, query, aggregate, 1, [0.0, 8.0])
        assert results[0].facility_ids[0] != results[1].facility_ids[0]

    def test_times_must_be_increasing_and_non_empty(self, scenario):
        network, facilities, query = scenario
        with pytest.raises(QueryError):
            skyline_over_period(network, facilities, query, [])
        with pytest.raises(QueryError):
            skyline_over_period(network, facilities, query, [2.0, 1.0])

    def test_stable_intervals_grouping(self):
        results = [
            TimedResult(0.0, (1, 2)),
            TimedResult(1.0, (1, 2)),
            TimedResult(2.0, (2,)),
            TimedResult(3.0, (1, 2)),
        ]
        intervals = stable_intervals(results)
        assert [(i.start, i.end, i.facility_ids) for i in intervals] == [
            (0.0, 1.0, (1, 2)),
            (2.0, 2.0, (2,)),
            (3.0, 3.0, (1, 2)),
        ]

    def test_stable_intervals_of_period_query(self, scenario):
        network, facilities, query = scenario
        times = [float(t) for t in range(0, 13)]
        results = skyline_over_period(network, facilities, query, times)
        intervals = stable_intervals(results)
        assert intervals[0].start == 0.0
        assert intervals[-1].end == 12.0
        assert sum((interval.end - interval.start) for interval in intervals) <= 12.0
        assert len(intervals) >= 2  # the peak changes the answer at least once

    def test_stable_intervals_empty_input(self):
        assert stable_intervals([]) == []


class TestStaticEquivalence:
    def test_constant_profiles_reproduce_static_results(self, tiny_graph, tiny_facilities, tiny_query):
        network = TimeVaryingMCN(tiny_graph)
        results = skyline_over_period(network, tiny_facilities, tiny_query, [0.0, 5.0, 10.0])
        static = exact_skyline(facility_vectors(tiny_graph, tiny_facilities, tiny_query))
        for result in results:
            assert set(result.facility_ids) == static
        assert len(stable_intervals(results)) == 1
