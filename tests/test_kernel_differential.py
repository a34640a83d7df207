"""Differential tests: the compiled expansion kernel versus the accessor path.

The shared battery lives in :mod:`tests.expansion_conformance`; here it runs
over :class:`~repro.core.kernel.ExpansionKernel`, the one compiled kernel,
on generated networks and again with their edge costs rounded into ties.
Freshness semantics of the compiled snapshot stay here, as do any checks
that are not per-implementation.
"""

from __future__ import annotations

import pytest

from repro.api import ExecutionPolicy, Session
from repro.core.engine import MCNQueryEngine
from repro.core.expansion import ExpansionSeeds
from repro.core.kernel import ExpansionKernel, make_kernel_data_layer
from repro.datagen import WorkloadSpec, make_workload
from repro.monitor import FacilityDelete, UpdateTick
from repro.network.accessor import InMemoryAccessor
from repro.network.compiled import CompiledGraph
from repro.network.facilities import FacilitySet
from repro.service import SkylineRequest
from repro.storage.scheme import NetworkStorage
from tests.expansion_conformance import ExpansionConformanceSuite


class TestExpansionKernelConformance(ExpansionConformanceSuite):
    kernel_class = ExpansionKernel


def round_edge_costs(graph, step=50.0):
    """Round every edge cost of ``graph`` to a small positive integer."""
    for edge in list(graph.edges()):
        graph.update_edge_costs(
            edge.edge_id, [float(max(1, round(cost / step))) for cost in edge.costs]
        )


class TestTiedCostKernelConformance(ExpansionConformanceSuite):
    """The same battery on networks whose edge costs are small integers.

    Generated costs are distinct floats, so heap keys almost never tie.
    Here node distances collide all the time, and only the frontier's
    push-order tie counter fixes which of the tied entries pops first — the
    kernel must still pop, settle and report in the reference's order.
    """

    kernel_class = ExpansionKernel

    def build_workload(self, spec):
        workload = super().build_workload(spec)
        round_edge_costs(workload.graph)
        return workload

    def test_settled_distances_tie(self):
        workload = self.build_workload(
            WorkloadSpec(num_nodes=180, num_facilities=50, num_cost_types=2, num_queries=1, seed=11)
        )
        accessor = InMemoryAccessor(workload.graph, workload.facilities)
        seeds = ExpansionSeeds.from_query(workload.graph, workload.queries[0])
        kernel = self.make_kernel(
            make_kernel_data_layer(CompiledGraph.from_accessor(accessor), target=accessor),
            seeds,
            0,
        )
        while kernel.next_facility() is not None:
            pass
        distances = list(kernel.settled_costs.values())
        assert len(distances) == workload.graph.num_nodes
        assert len(set(distances)) < len(distances) // 4


class TestFreshness:
    """Facility mutations against a live compiled snapshot."""

    def test_mutations_are_visible_through_the_kernel(self):
        workload = make_workload(
            WorkloadSpec(num_nodes=120, num_facilities=30, num_cost_types=2, num_queries=1, seed=5)
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        fast = MCNQueryEngine(workload.graph, facilities, compiled=True)
        query = workload.queries[0]
        before = fast.skyline(query).facility_ids()
        # Plant a facility at the query's exact location — zero distance in
        # every cost type, so nothing can dominate it — and require it to
        # surface through the (refreshed) compiled snapshot.
        if query.edge_id is not None:
            edge_id, offset = query.edge_id, query.offset
        else:
            edge = workload.graph.neighbors(query.node_id)[0][1]
            edge_id = edge.edge_id
            offset = 0.0 if edge.u == query.node_id else edge.length
        facilities.add_on_edge(9_999, edge_id, offset=offset)
        after = fast.skyline(query).facility_ids()
        assert 9_999 in after
        assert 9_999 not in before
        facilities.remove(9_999)
        assert fast.skyline(query).facility_ids() == before

    def test_incremental_refresh_matches_full_rebuild(self):
        workload = make_workload(
            WorkloadSpec(num_nodes=100, num_facilities=25, num_cost_types=2, num_queries=1, seed=29)
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        accessor = InMemoryAccessor(workload.graph, facilities)
        compiled = CompiledGraph.from_accessor(accessor)
        edges = sorted(edge.edge_id for edge in workload.graph.edges())
        facilities.add_on_edge(700, edges[0], offset=0.0)
        facilities.add_on_edge(701, edges[1], offset=0.0)
        facilities.remove(700)
        compiled.ensure_fresh()  # patches only the two touched edges
        rebuilt = CompiledGraph.from_accessor(accessor)
        for cost_index in range(2):
            assert compiled.hot_facilities(cost_index) == rebuilt.hot_facilities(cost_index)
        assert compiled.facility_edge_of == rebuilt.facility_edge_of
        assert compiled.facilities_revision == facilities.revision

    def test_storage_backed_snapshot_rejects_mutation(self):
        workload = make_workload(
            WorkloadSpec(num_nodes=80, num_facilities=20, num_cost_types=2, num_queries=1, seed=7)
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        storage = NetworkStorage.build(workload.graph, facilities, page_size=1024)
        compiled = CompiledGraph.from_accessor(storage)
        facilities.add_on_edge(500, next(iter(workload.graph.edges())).edge_id, offset=0.0)
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            compiled.ensure_fresh()


# ---------------------------------------------------------------------- #
# Kernel selection at every entry point
# ---------------------------------------------------------------------- #
def _skylines(workload):
    return [SkylineRequest(query) for query in workload.queries]


def _run_query(session, policy, workload):
    session.query(SkylineRequest(workload.queries[0]), policy=policy)


def _run_batch(session, policy, workload):
    session.run_batch(_skylines(workload), policy=policy)


def _run_sharded_batch(session, policy, workload):
    session.run_batch(_skylines(workload), policy=policy.replace(workers=2, executor="thread"))


def _run_iter_top(session, policy, workload):
    next(session.engine_for(policy).iter_top(workload.queries[0], weights=[0.5, 0.5]))


def _run_monitor_tick(session, policy, workload):
    handle = session.monitor([SkylineRequest(workload.queries[0])], policy=policy)
    # Deleting a skyline member forces the tick's recompute pass.
    victim = min(handle.maintainer_of(handle.subscription_ids[0]).skyline_ids())
    handle.tick(UpdateTick((FacilityDelete(victim),)))


class TestPolicySelectsTheKernel:
    """``compiled="on"`` builds the kernel at every entry point, ``"off"`` never.

    Both paths return identical answers and counters, so no parity oracle
    notices an entry point that silently skips the kernel; this spies on the
    kernel's constructor instead.
    """

    @pytest.mark.parametrize("compiled", ["on", "off"])
    @pytest.mark.parametrize(
        "entry",
        [_run_query, _run_batch, _run_sharded_batch, _run_iter_top, _run_monitor_tick],
        ids=["query", "run_batch", "run_batch-sharded", "iter_top", "monitor-tick"],
    )
    def test_kernel_runs_only_where_the_policy_turns_it_on(self, monkeypatch, entry, compiled):
        built = []
        construct = ExpansionKernel.__init__

        def spy(kernel, *args, **kwargs):
            built.append(kernel)
            construct(kernel, *args, **kwargs)

        monkeypatch.setattr(ExpansionKernel, "__init__", spy)
        workload = make_workload(
            WorkloadSpec(num_nodes=80, num_facilities=20, num_cost_types=2, num_queries=4, seed=5)
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        with Session(workload.graph, facilities) as session:
            entry(session, ExecutionPolicy(compiled=compiled), workload)
        assert bool(built) == (compiled == "on")
