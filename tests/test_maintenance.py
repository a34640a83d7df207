"""Tests for incremental skyline/top-k maintenance under facility updates."""

from __future__ import annotations

import random

import pytest

from repro.core.aggregates import WeightedSum
from repro.core.maintenance import MaintenanceStatistics, SkylineMaintainer, TopKMaintainer
from repro.errors import FacilityError, QueryError
from repro.network import Facility, FacilitySet, InMemoryAccessor, MultiCostGraph, NetworkLocation
from repro.network.compiled import CompiledGraph
from tests.helpers import exact_skyline, exact_top_k, facility_vectors, random_mcn, random_query


def build_dynamic_instance(seed: int, *, num_facilities: int = 12):
    graph, facilities = random_mcn(
        num_nodes=40, num_edges=75, num_cost_types=3, num_facilities=num_facilities, seed=seed
    )
    query = random_query(graph, seed=seed + 1)
    return graph, facilities, query


def oracle_skyline(graph, facilities, query):
    return exact_skyline(facility_vectors(graph, facilities, query))


class TestSkylineMaintainer:
    def test_initial_skyline_matches_oracle(self, tiny_graph, tiny_facilities, tiny_query):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        assert maintainer.skyline_ids() == oracle_skyline(tiny_graph, tiny_facilities, tiny_query)

    def test_skyline_exposes_complete_vectors(self, tiny_graph, tiny_facilities, tiny_query):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        truth = facility_vectors(tiny_graph, tiny_facilities, tiny_query)
        for facility_id, costs in maintainer.skyline.items():
            assert costs == pytest.approx(truth[facility_id])

    def test_insert_dominated_facility_changes_nothing(self, tiny_graph, tiny_facilities, tiny_query):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        before = maintainer.skyline_ids()
        # A facility far from the query on the slow corridor is dominated.
        far_edge = tiny_graph.edge_between(6, 7)
        changed = maintainer.insert(Facility(99, far_edge.edge_id, 0.5))
        assert maintainer.skyline_ids() == before or changed
        # Whatever happened, the maintained result must match the oracle.
        assert maintainer.skyline_ids() == oracle_skyline(tiny_graph, tiny_facilities, tiny_query)

    def test_insert_dominating_facility_enters_and_evicts(self, tiny_graph, tiny_facilities, tiny_query):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        # A facility essentially at the query location dominates everything.
        close_edge = tiny_graph.edge_between(3, 4)
        changed = maintainer.insert(Facility(99, close_edge.edge_id, 0.0))
        assert changed
        assert maintainer.skyline_ids() == {99}

    def test_delete_non_member_is_incremental(self, tiny_graph, tiny_facilities, tiny_query):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        non_member = next(
            fid for fid in (0, 1, 2) if fid not in maintainer.skyline_ids()
        )
        recomputations_before = maintainer.statistics.recomputations
        changed = maintainer.delete(non_member)
        assert not changed
        assert maintainer.statistics.recomputations == recomputations_before
        assert maintainer.skyline_ids() == oracle_skyline(tiny_graph, tiny_facilities, tiny_query)

    def test_delete_member_recomputes(self, tiny_graph, tiny_facilities, tiny_query):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        member = next(iter(maintainer.skyline_ids()))
        changed = maintainer.delete(member)
        assert changed
        assert member not in maintainer.skyline_ids()
        assert maintainer.skyline_ids() == oracle_skyline(tiny_graph, tiny_facilities, tiny_query)

    def test_delete_unknown_facility_rejected(self, tiny_graph, tiny_facilities, tiny_query):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        with pytest.raises(FacilityError):
            maintainer.delete(12345)

    def test_move_query_recomputes(self, tiny_graph, tiny_facilities, tiny_query):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        new_query = NetworkLocation.at_node(8)
        maintainer.move_query(new_query)
        assert maintainer.query == new_query
        assert maintainer.skyline_ids() == oracle_skyline(tiny_graph, tiny_facilities, new_query)
        assert maintainer.statistics.query_moves == 1

    def test_random_update_sequence_matches_oracle(self):
        graph, facilities, query = build_dynamic_instance(seed=77)
        maintainer = SkylineMaintainer(graph, facilities, query)
        rng = random.Random(5)
        edges = list(graph.edges())
        next_id = 1000
        for step in range(25):
            if rng.random() < 0.5 or len(facilities) < 3:
                edge = rng.choice(edges)
                facility = Facility(next_id, edge.edge_id, rng.uniform(0, edge.length))
                next_id += 1
                maintainer.insert(facility)
            else:
                victim = rng.choice(list(facilities.facility_ids()))
                maintainer.delete(victim)
            assert maintainer.skyline_ids() == oracle_skyline(graph, facilities, query), f"step {step}"

    def test_insertions_are_cheaper_than_recomputation(self):
        graph, facilities, query = build_dynamic_instance(seed=78, num_facilities=15)
        maintainer = SkylineMaintainer(graph, facilities, query)
        recomputations_before = maintainer.statistics.recomputations
        edge = next(iter(graph.edges()))
        for index in range(5):
            maintainer.insert(Facility(500 + index, edge.edge_id, 0.25 * edge.length))
        assert maintainer.statistics.recomputations == recomputations_before
        assert maintainer.statistics.insertions == 5


class TestTopKMaintainer:
    def oracle(self, graph, facilities, query, aggregate, k):
        return [fid for fid, _score in exact_top_k(facility_vectors(graph, facilities, query), aggregate, k)]

    def test_initial_ranking_matches_oracle(self, tiny_graph, tiny_facilities, tiny_query):
        aggregate = WeightedSum((0.5, 0.5))
        maintainer = TopKMaintainer(tiny_graph, tiny_facilities, tiny_query, aggregate, 2)
        assert maintainer.facility_ids() == self.oracle(tiny_graph, tiny_facilities, tiny_query, aggregate, 2)

    def test_invalid_k_rejected(self, tiny_graph, tiny_facilities, tiny_query):
        with pytest.raises(QueryError):
            TopKMaintainer(tiny_graph, tiny_facilities, tiny_query, WeightedSum((0.5, 0.5)), 0)

    def test_insert_better_facility_enters_ranking(self, tiny_graph, tiny_facilities, tiny_query):
        aggregate = WeightedSum((0.5, 0.5))
        maintainer = TopKMaintainer(tiny_graph, tiny_facilities, tiny_query, aggregate, 2)
        close_edge = tiny_graph.edge_between(3, 4)
        changed = maintainer.insert(Facility(99, close_edge.edge_id, 0.0))
        assert changed
        assert maintainer.facility_ids()[0] == 99

    def test_insert_worse_facility_changes_nothing(self, tiny_graph, tiny_facilities, tiny_query):
        aggregate = WeightedSum((0.5, 0.5))
        maintainer = TopKMaintainer(tiny_graph, tiny_facilities, tiny_query, aggregate, 2)
        before = maintainer.facility_ids()
        # A clone of facility 2's position scores 3.75, worse than the current
        # second-best (facility 0 at 3.5), so the ranking must not change.
        far_edge = tiny_graph.edge_between(7, 8)
        changed = maintainer.insert(Facility(99, far_edge.edge_id, 2.5))
        assert not changed
        assert maintainer.facility_ids() == before

    def test_delete_member_recomputes_correctly(self, tiny_graph, tiny_facilities, tiny_query):
        aggregate = WeightedSum((0.5, 0.5))
        maintainer = TopKMaintainer(tiny_graph, tiny_facilities, tiny_query, aggregate, 2)
        top = maintainer.facility_ids()[0]
        assert maintainer.delete(top)
        assert maintainer.facility_ids() == self.oracle(tiny_graph, tiny_facilities, tiny_query, aggregate, 2)

    def test_delete_non_member_is_incremental(self):
        graph, facilities, query = build_dynamic_instance(seed=80)
        aggregate = WeightedSum.uniform(graph.num_cost_types)
        maintainer = TopKMaintainer(graph, facilities, query, aggregate, 3)
        non_members = [fid for fid in facilities.facility_ids() if fid not in maintainer.facility_ids()]
        recomputations = maintainer.statistics.recomputations
        maintainer.delete(non_members[0])
        assert maintainer.statistics.recomputations == recomputations

    def test_random_update_sequence_matches_oracle(self):
        graph, facilities, query = build_dynamic_instance(seed=81)
        aggregate = WeightedSum.uniform(graph.num_cost_types)
        maintainer = TopKMaintainer(graph, facilities, query, aggregate, 4)
        rng = random.Random(9)
        edges = list(graph.edges())
        next_id = 2000
        for step in range(20):
            if rng.random() < 0.5 or len(facilities) <= 5:
                edge = rng.choice(edges)
                maintainer.insert(Facility(next_id, edge.edge_id, rng.uniform(0, edge.length)))
                next_id += 1
            else:
                maintainer.delete(rng.choice(list(facilities.facility_ids())))
            expected_scores = [
                round(score, 6)
                for _fid, score in exact_top_k(facility_vectors(graph, facilities, query), aggregate, 4)
            ]
            observed_scores = [round(score, 6) for _fid, score in maintainer.ranking()]
            assert observed_scores == expected_scores, f"step {step}"

    def test_move_query(self, tiny_graph, tiny_facilities, tiny_query):
        aggregate = WeightedSum((0.5, 0.5))
        maintainer = TopKMaintainer(tiny_graph, tiny_facilities, tiny_query, aggregate, 2)
        new_query = NetworkLocation.at_node(8)
        maintainer.move_query(new_query)
        assert maintainer.facility_ids() == self.oracle(tiny_graph, tiny_facilities, new_query, aggregate, 2)

    def test_insert_tying_the_kth_score_enters_on_a_smaller_id(self, line_graph):
        """The bound rejects only when (score, id) is worse than the k-th:
        a tie on the score alone must be priced until the id decides."""
        facilities = FacilitySet(line_graph)
        facilities.add(Facility(60, line_graph.edge_between(0, 1).edge_id, 1.0))
        facilities.add(Facility(50, line_graph.edge_between(1, 2).edge_id, 2.0))
        maintainer = TopKMaintainer(
            line_graph, facilities, NetworkLocation.at_node(0), WeightedSum((1.0,)), 2
        )
        assert maintainer.ranking() == [(60, 1.0), (50, 3.0)]
        # At node 2, three away like facility 50: the smaller id wins the tie.
        assert maintainer.insert(Facility(40, line_graph.edge_between(2, 3).edge_id, 0.0))
        assert maintainer.ranking() == [(60, 1.0), (40, 3.0)]
        # At node 2 again, but the larger id loses the tie.
        assert not maintainer.insert(Facility(70, line_graph.edge_between(2, 3).edge_id, 0.0))
        assert maintainer.ranking() == [(60, 1.0), (40, 3.0)]


def disconnected_instance():
    """Two components: the query lives in one, edge B sits unreachable in the other."""
    graph = MultiCostGraph(num_cost_types=2)
    for node_id in range(4):
        graph.add_node(node_id, float(node_id), 0.0)
    edge_a = graph.add_edge(0, 1, (2.0, 3.0))
    edge_b = graph.add_edge(2, 3, (1.0, 1.0))
    facilities = FacilitySet(graph)
    facilities.add(Facility(0, edge_a.edge_id, 0.5))
    return graph, facilities, NetworkLocation.at_node(0), edge_b.edge_id


class TestAtomicUpdates:
    """A rejected update must leave the facility set and the result untouched
    — the regression the mid-batch validation fix guards (previously an
    unreachable insert mutated the set before raising)."""

    @pytest.mark.parametrize("kind", ["skyline", "topk"])
    def test_unreachable_insert_leaves_everything_unchanged(self, kind):
        graph, facilities, query, unreachable_edge = disconnected_instance()
        if kind == "skyline":
            maintainer = SkylineMaintainer(graph, facilities, query)
            result_before = maintainer.skyline_ids()
        else:
            maintainer = TopKMaintainer(graph, facilities, query, WeightedSum((0.5, 0.5)), 2)
            result_before = maintainer.ranking()
        ids_before = set(facilities.facility_ids())
        stats_before = maintainer.statistics.snapshot()
        with pytest.raises(QueryError):
            maintainer.insert(Facility(99, unreachable_edge, 0.5))
        assert set(facilities.facility_ids()) == ids_before
        assert 99 not in facilities
        if kind == "skyline":
            assert maintainer.skyline_ids() == result_before
        else:
            assert maintainer.ranking() == result_before
        assert maintainer.statistics.since(stats_before) == MaintenanceStatistics()

    def test_invalid_offset_insert_leaves_everything_unchanged(
        self, tiny_graph, tiny_facilities, tiny_query
    ):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        before = maintainer.skyline_ids()
        edge = tiny_graph.edge_between(0, 1)
        with pytest.raises(FacilityError):
            maintainer.insert(Facility(99, edge.edge_id, edge.length + 10.0))
        assert 99 not in tiny_facilities
        assert maintainer.skyline_ids() == before

    def test_duplicate_id_insert_leaves_everything_unchanged(
        self, tiny_graph, tiny_facilities, tiny_query
    ):
        maintainer = TopKMaintainer(
            tiny_graph, tiny_facilities, tiny_query, WeightedSum((0.5, 0.5)), 2
        )
        before = maintainer.ranking()
        edge = tiny_graph.edge_between(0, 1)
        with pytest.raises(FacilityError):
            maintainer.insert(Facility(1, edge.edge_id, 0.5))
        assert maintainer.ranking() == before


class TestDeferredMaintenance:
    """The defer/refresh protocol used by the monitoring service."""

    def test_deferred_delete_marks_stale_and_guards_reads(
        self, tiny_graph, tiny_facilities, tiny_query
    ):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        member = next(iter(maintainer.skyline_ids()))
        recomputations = maintainer.statistics.recomputations
        changed = maintainer.delete(member, defer_recompute=True)
        assert changed
        assert maintainer.stale
        assert maintainer.statistics.recomputations == recomputations
        with pytest.raises(QueryError):
            maintainer.skyline_ids()
        maintainer.refresh()
        assert not maintainer.stale
        assert maintainer.skyline_ids() == exact_skyline(
            facility_vectors(tiny_graph, tiny_facilities, tiny_query)
        )

    def test_deferred_move_then_refresh_matches_oracle(
        self, tiny_graph, tiny_facilities, tiny_query
    ):
        aggregate = WeightedSum((0.5, 0.5))
        maintainer = TopKMaintainer(tiny_graph, tiny_facilities, tiny_query, aggregate, 2)
        target = NetworkLocation.at_node(8)
        maintainer.move_query(target, defer_recompute=True)
        assert maintainer.stale
        with pytest.raises(QueryError):
            maintainer.ranking()
        maintainer.refresh()
        expected = exact_top_k(
            facility_vectors(tiny_graph, tiny_facilities, target), aggregate, 2
        )
        assert [(fid, pytest.approx(score)) for fid, score in maintainer.ranking()] == [
            (fid, pytest.approx(score)) for fid, score in expected
        ]

    def test_refresh_with_external_result(self, tiny_graph, tiny_facilities, tiny_query):
        from repro.core.engine import MCNQueryEngine

        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        member = next(iter(maintainer.skyline_ids()))
        maintainer.delete(member, defer_recompute=True)
        engine = MCNQueryEngine(tiny_graph, tiny_facilities)
        recomputations = maintainer.statistics.recomputations
        maintainer.refresh(engine.skyline(tiny_query, algorithm="cea"))
        assert maintainer.statistics.recomputations == recomputations + 1
        assert maintainer.skyline_ids() == exact_skyline(
            facility_vectors(tiny_graph, tiny_facilities, tiny_query)
        )

    def test_note_hooks_over_a_shared_set(self, tiny_graph, tiny_facilities, tiny_query):
        """Two maintainers over one set: the caller mutates once and notifies
        both; results match independent maintenance."""
        accessor = InMemoryAccessor(tiny_graph, tiny_facilities)
        sky = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query, accessor=accessor)
        top = TopKMaintainer(
            tiny_graph, tiny_facilities, tiny_query, WeightedSum((0.5, 0.5)), 2, accessor=accessor
        )
        close_edge = tiny_graph.edge_between(3, 4)
        facility = Facility(99, close_edge.edge_id, 0.0)
        tiny_facilities.add(facility)
        sky.note_insert(facility)
        top.note_insert(facility)
        assert 99 in sky.skyline_ids()
        assert top.facility_ids()[0] == 99
        tiny_facilities.remove(99)
        sky.note_delete(99, defer_recompute=True)
        top.note_delete(99, defer_recompute=True)
        sky.refresh()
        top.refresh()
        vectors = facility_vectors(tiny_graph, tiny_facilities, tiny_query)
        assert sky.skyline_ids() == exact_skyline(vectors)
        assert [fid for fid, _score in top.ranking()] == [
            fid for fid, _score in exact_top_k(vectors, WeightedSum((0.5, 0.5)), 2)
        ]

    def test_stale_note_delete_of_non_member_reports_no_change(
        self, tiny_graph, tiny_facilities, tiny_query
    ):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        member = next(iter(maintainer.skyline_ids()))
        non_member = next(
            fid for fid in (0, 1, 2) if fid not in maintainer.skyline_ids()
        )
        maintainer.delete(member, defer_recompute=True)
        assert maintainer.stale
        # While stale, deleting a facility outside the cached result must not
        # claim the result changed.
        assert maintainer.delete(non_member, defer_recompute=True) is False

    def test_insert_with_precomputed_costs_matches_plain_insert(self):
        graph, facilities, query = build_dynamic_instance(seed=91)
        twin = FacilitySet(graph, iter(facilities))
        plain = SkylineMaintainer(graph, facilities, query)
        primed = SkylineMaintainer(graph, twin, query)
        edge = next(iter(graph.edges()))
        facility = Facility(700, edge.edge_id, 0.25 * edge.length)
        costs = primed.cost_vector(facility)
        plain.insert(Facility(700, edge.edge_id, 0.25 * edge.length))
        primed.insert(facility, costs=costs)
        assert plain.skyline == primed.skyline


def _maintainer(kind, graph, facilities, query, **kwargs):
    if kind == "skyline":
        return SkylineMaintainer(graph, facilities, query, **kwargs)
    aggregate = WeightedSum.uniform(graph.num_cost_types)
    return TopKMaintainer(graph, facilities, query, aggregate, 3, **kwargs)


@pytest.mark.parametrize("kind", ["skyline", "top-k"])
class TestMaintainerSnapshot:
    """A maintainer always prices on a compiled snapshot: its own, or the one
    it is handed (the monitoring service hands over its engine's)."""

    def test_without_a_snapshot_it_compiles_its_own(self, kind):
        graph, facilities, query = build_dynamic_instance(seed=61)
        maintainer = _maintainer(kind, graph, facilities, query)
        assert maintainer._compiled.graph is graph
        assert maintainer._compiled.facilities is facilities

    def test_a_snapshot_over_the_same_data_is_adopted(self, kind):
        graph, facilities, query = build_dynamic_instance(seed=62)
        snapshot = CompiledGraph(graph, facilities)
        adopted = _maintainer(kind, graph, facilities, query, compiled=snapshot)
        own = _maintainer(kind, graph, facilities, query)
        assert adopted._compiled is snapshot
        edge = next(iter(graph.edges()))
        probe = Facility(500, edge.edge_id, 0.5 * edge.length)
        assert adopted.cost_vector(probe) == own.cost_vector(probe)

    @pytest.mark.parametrize("foreign", ["graph", "facility set"])
    def test_a_snapshot_over_other_data_is_refused(self, kind, foreign):
        graph, facilities, query = build_dynamic_instance(seed=63)
        if foreign == "graph":
            other_graph, other_facilities = random_mcn(
                num_nodes=40, num_edges=75, num_cost_types=3, num_facilities=4, seed=64
            )
            snapshot = CompiledGraph(other_graph, other_facilities)
        else:
            snapshot = CompiledGraph(graph, FacilitySet(graph, iter(facilities)))
        with pytest.raises(QueryError, match=f"different {foreign}"):
            _maintainer(kind, graph, facilities, query, compiled=snapshot)


class TestCostVectorPricing:
    def test_cost_vector_matches_dijkstra_oracle(self):
        """The O(d) distance-map pricing must equal an independent Dijkstra."""
        graph, facilities, query = build_dynamic_instance(seed=92, num_facilities=10)
        maintainer = SkylineMaintainer(graph, facilities, query)
        rng = random.Random(4)
        edges = list(graph.edges())
        for index in range(12):
            edge = rng.choice(edges)
            facility = Facility(600 + index, edge.edge_id, rng.uniform(0, edge.length))
            priced = maintainer.cost_vector(facility)
            probe = FacilitySet(graph, iter(facilities))
            probe.add(facility)
            truth = facility_vectors(graph, probe, query)[facility.facility_id]
            assert priced == pytest.approx(truth, abs=1e-9)

    def test_end_node_keyed_just_below_the_best_path_is_settled(self):
        """Exact pricing stops on ``head key >= best path`` and not earlier:
        node 1's key sits 1e-7 below the path already found through node 2."""
        graph = MultiCostGraph(num_cost_types=1)
        for node_id in range(3):
            graph.add_node(node_id)
        graph.add_edge(0, 2, [1.0])
        facility_edge = graph.add_edge(1, 2, [1.0])
        graph.add_edge(0, 1, [2.0 - 1e-7])
        facilities = FacilitySet(graph)
        maintainer = SkylineMaintainer(graph, facilities, NetworkLocation.at_node(0))
        assert maintainer.cost_vector(Facility(9, facility_edge.edge_id, 0.0)) == (2.0 - 1e-7,)

    def test_cost_vector_on_query_edge_uses_direct_path(self, tiny_graph, tiny_facilities):
        edge = tiny_graph.edge_between(3, 4)
        query = NetworkLocation.on_edge(edge.edge_id, 0.5)
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, query)
        facility = Facility(99, edge.edge_id, 1.5)
        priced = maintainer.cost_vector(facility)
        probe = FacilitySet(tiny_graph, iter(tiny_facilities))
        probe.add(facility)
        truth = facility_vectors(tiny_graph, probe, query)[99]
        assert priced == pytest.approx(truth, abs=1e-12)

    def test_cost_vector_does_not_mutate(self, tiny_graph, tiny_facilities, tiny_query):
        maintainer = SkylineMaintainer(tiny_graph, tiny_facilities, tiny_query)
        edge = tiny_graph.edge_between(0, 1)
        maintainer.cost_vector(Facility(99, edge.edge_id, 0.5))
        assert 99 not in tiny_facilities
        assert 99 not in maintainer.skyline_ids()


class TestFacilitySetRemoval:
    def test_remove_returns_and_unindexes(self, tiny_graph, tiny_facilities):
        removed = tiny_facilities.remove(1)
        assert removed.facility_id == 1
        assert 1 not in tiny_facilities
        assert tiny_facilities.on_edge(removed.edge_id) == []

    def test_remove_unknown_rejected(self, tiny_graph, tiny_facilities):
        with pytest.raises(FacilityError):
            tiny_facilities.remove(55)

    def test_remove_keeps_other_facilities_on_same_edge(self, tiny_graph):
        facilities = FacilitySet(tiny_graph)
        facilities.add(Facility(0, 0, 1.0))
        facilities.add(Facility(1, 0, 2.0))
        facilities.remove(0)
        assert [f.facility_id for f in facilities.on_edge(0)] == [1]

    def test_accessor_reflects_removal(self, tiny_graph, tiny_facilities):
        accessor = InMemoryAccessor(tiny_graph, tiny_facilities)
        edge = tiny_facilities.facility(1).edge_id
        assert len(accessor.edge_facilities(edge)) == 1
        tiny_facilities.remove(1)
        assert accessor.edge_facilities(edge) == []
