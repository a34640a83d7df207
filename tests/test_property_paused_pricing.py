"""Property tests: pricing on paused expansions equals a whole-graph drain.

A maintainer keeps its d expansions paused and resumes one only as far as a
request needs.  These tests price facilities on random edges in random
order, so the expansions are paused at arbitrary depths, over small random
graphs that are sometimes directed, sometimes disconnected and sometimes
integer-costed (so that ties occur).  The reference is the arithmetic a
whole-graph drain gives: each expansion run in candidate mode with no
candidates until its heap is empty, then the facility priced from the
settled distances of its edge's end nodes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.aggregates import WeightedSum
from repro.core.expansion import ExpansionSeeds, NearestFacilityExpansion
from repro.core.maintenance import SkylineMaintainer, TopKMaintainer
from repro.errors import QueryError
from repro.network import (
    Facility,
    FacilitySet,
    InMemoryAccessor,
    MultiCostGraph,
    NetworkLocation,
)
from repro.network.accessor import FetchOnceCache
from repro.network.compiled import CompiledGraph
from repro.network.dijkstra import single_source_facility_costs

_SETTINGS = settings(
    max_examples=75,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

instance = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=100_000),
        "num_nodes": st.integers(min_value=4, max_value=24),
        "extra_edges": st.integers(min_value=0, max_value=24),
        "num_cost_types": st.integers(min_value=1, max_value=3),
        "components": st.integers(min_value=1, max_value=3),
        "directed": st.booleans(),
        "integer_costs": st.booleans(),
        "query_on_edge": st.booleans(),
        "num_facilities": st.integers(min_value=0, max_value=6),
    }
)


def build_instance(params):
    """A random graph split into ``components`` parts, a facility set and a query."""
    rng = random.Random(params["seed"])
    num_nodes = params["num_nodes"]
    directed = params["directed"]
    graph = MultiCostGraph(params["num_cost_types"], directed=directed)
    for node_id in range(num_nodes):
        graph.add_node(node_id)

    def draw_costs() -> list[float]:
        if params["integer_costs"]:
            return [float(rng.randint(1, 3)) for _ in range(params["num_cost_types"])]
        return [rng.uniform(0.5, 10.0) for _ in range(params["num_cost_types"])]

    def join(u: int, v: int) -> None:
        if directed and rng.random() < 0.5:
            u, v = v, u
        if graph.edge_between(u, v) is None and graph.edge_between(v, u) is None:
            length = float(rng.randint(1, 4)) if params["integer_costs"] else rng.uniform(1.0, 5.0)
            graph.add_edge(u, v, draw_costs(), length=length)

    groups = [list(range(part, num_nodes, params["components"])) for part in range(params["components"])]
    for group in groups:
        rng.shuffle(group)
        for index in range(1, len(group)):
            join(group[index], group[rng.randrange(index)])
    for _ in range(params["extra_edges"]):
        group = rng.choice(groups)
        if len(group) >= 2:
            join(*rng.sample(group, 2))

    edges = list(graph.edges())
    facilities = FacilitySet(graph)
    # Spread-out ids leave room below and between them: an insertion whose
    # score ties the k-th must sometimes win the tie on its smaller id.
    for index in range(params["num_facilities"]):
        facilities.add(random_facility(rng, edges, 10 * index + 5))
    if params["query_on_edge"]:
        edge = rng.choice(edges)
        query = NetworkLocation.on_edge(edge.edge_id, draw_offset(rng, edge))
    else:
        query = NetworkLocation.at_node(rng.randrange(num_nodes))
    return graph, facilities, query, rng


def draw_offset(rng: random.Random, edge) -> float:
    """An offset at either end node or strictly inside the edge."""
    return rng.choice([0.0, edge.length, rng.uniform(0.0, edge.length)])


def random_facility(rng: random.Random, edges, facility_id: int) -> Facility:
    edge = rng.choice(edges)
    return Facility(facility_id, edge.edge_id, draw_offset(rng, edge))


class DrainReference:
    """Whole-graph drains from the query, priced with the expansion's arithmetic."""

    def __init__(self, graph, facilities, query):
        self.graph = graph
        self.seeds = ExpansionSeeds.from_query(graph, query)
        shared = FetchOnceCache(InMemoryAccessor(graph, facilities))
        self.settled = []
        for cost_index in range(graph.num_cost_types):
            expansion = NearestFacilityExpansion(shared, self.seeds, cost_index)
            expansion.enter_candidate_mode({})
            while expansion.next_facility() is not None:
                pass
            self.settled.append(expansion.settled_costs)

    def cost_vector(self, facility: Facility) -> tuple[float, ...] | None:
        """The drained vector, or None when no path reaches the facility."""
        edge = self.graph.edge(facility.edge_id)
        fraction_u = facility.offset / edge.length
        fraction_v = (edge.length - facility.offset) / edge.length
        costs = []
        for cost_index, settled in enumerate(self.settled):
            edge_cost = edge.costs.values[cost_index]
            best = self.direct_cost(facility, cost_index)
            via_u = settled.get(edge.u)
            if via_u is not None:
                candidate = via_u + edge_cost * fraction_u
                if best is None or candidate < best:
                    best = candidate
            if not self.graph.directed:
                via_v = settled.get(edge.v)
                if via_v is not None:
                    candidate = via_v + edge_cost * fraction_v
                    if best is None or candidate < best:
                        best = candidate
            if best is None:
                return None
            costs.append(best)
        return tuple(costs)

    def direct_cost(self, facility: Facility, cost_index: int) -> float | None:
        seeds = self.seeds
        if seeds.query_edge != facility.edge_id:
            return None
        if seeds.directed and facility.offset < seeds.query_offset:
            return None
        fraction = abs(facility.offset - seeds.query_offset) / seeds.query_edge_length
        return seeds.query_edge_costs[cost_index] * fraction


def dijkstra_costs(graph, query, facility) -> list[float] | None:
    probe = FacilitySet(graph)
    probe.add(facility)
    costs = []
    for cost_index in range(graph.num_cost_types):
        found = single_source_facility_costs(graph, probe, query, cost_index)
        if facility.facility_id not in found:
            return None
        costs.append(found[facility.facility_id])
    return costs


def snapshot_for(facilities, graph_source: str) -> CompiledGraph | None:
    """The snapshot a maintainer is handed: none, so that it compiles its
    own, or one shared with a search, as a monitor shares its engine's."""
    if graph_source == "own-graph":
        return None
    return CompiledGraph(facilities.graph, facilities)


@pytest.mark.parametrize("graph_source", ["own-graph", "shared-graph"])
class TestPausedPricing:
    @_SETTINGS
    @given(instance, st.integers(min_value=1, max_value=12))
    def test_cost_vector_equals_the_drain(self, graph_source, params, probes):
        graph, facilities, query, rng = build_instance(params)
        reference = DrainReference(graph, facilities, query)
        snapshot = snapshot_for(facilities, graph_source)
        maintainer = SkylineMaintainer(
            graph,
            facilities,
            query,
            accessor=InMemoryAccessor(graph, facilities),
            compiled=snapshot,
        )
        assert snapshot is None or maintainer._compiled is snapshot
        edges = list(graph.edges())
        for index in range(probes):
            facility = random_facility(rng, edges, 1000 + index)
            expected = reference.cost_vector(facility)
            truth = dijkstra_costs(graph, query, facility)
            assert (expected is None) == (truth is None)
            if expected is None:
                with pytest.raises(QueryError):
                    maintainer.cost_vector(facility)
                continue
            priced = maintainer.cost_vector(facility)
            assert priced == expected
            assert priced == pytest.approx(truth, abs=1e-9)

    @_SETTINGS
    @given(instance, st.integers(min_value=1, max_value=16), st.booleans())
    def test_pruned_twin_agrees_with_exact_twin(
        self, graph_source, params, steps, top_k
    ):
        graph, facilities, query, rng = build_instance(params)
        reference = DrainReference(graph, facilities, query)
        twins = []
        snapshots = []
        for _ in range(2):
            live = FacilitySet(graph, iter(facilities))
            extra = {
                "accessor": InMemoryAccessor(graph, live),
                "compiled": snapshot_for(live, graph_source),
            }
            if top_k:
                aggregate = WeightedSum.uniform(graph.num_cost_types)
                maintainer = TopKMaintainer(graph, live, query, aggregate, 2, **extra)
            else:
                maintainer = SkylineMaintainer(graph, live, query, **extra)
            twins.append((live, maintainer))
            if extra["compiled"] is not None:
                snapshots.append(extra["compiled"])
        (_, pruned), (_, exact) = twins

        def result(maintainer):
            return maintainer.ranking() if top_k else maintainer.skyline

        edges = list(graph.edges())
        for step in range(steps):
            current = list(twins[0][0].facility_ids())
            if current and rng.random() < 0.35:
                victim = rng.choice(current)
                for live, maintainer in twins:
                    live.remove(victim)
                    maintainer.note_delete(victim)
            else:
                facility_id = rng.choice(
                    [fid for fid in range(100) if fid not in twins[0][0]]
                )
                facility = random_facility(rng, edges, facility_id)
                costs = reference.cost_vector(facility)
                if costs is None:
                    continue
                for live, _maintainer in twins:
                    live.add(facility)
                pruned.note_insert(facility)
                exact.note_insert(facility, costs=costs)
            assert result(pruned) == result(exact), f"step {step}"
            # A search on a shared snapshot refreshes its facility columns
            # between ticks; the paused expansions must not notice.
            for snapshot in snapshots:
                snapshot.ensure_fresh()
