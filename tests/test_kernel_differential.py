"""Differential tests: the compiled expansion kernel versus the accessor path.

The shared battery lives in :mod:`tests.expansion_conformance`; here it runs
over :class:`~repro.core.kernel.ExpansionKernel`, the one compiled kernel,
on generated networks and again with their edge costs rounded into ties.
Freshness semantics of the compiled snapshot stay here, as do any checks
that are not per-implementation.
"""

from __future__ import annotations

import os
from collections.abc import MutableMapping

import pytest

from repro.api import ExecutionPolicy, Session
from repro.core.engine import MCNQueryEngine
from repro.core.expansion import ExpansionSeeds, NearestFacilityExpansion
from repro.core.kernel import (
    DirectChargeLayer,
    ExpansionKernel,
    FetchOnceChargeLayer,
    ForwardingLayer,
    make_expansions,
    make_kernel_data_layer,
)
from repro.datagen import EdgeCostStreamSpec, WorkloadSpec, make_profile_network, make_workload
from repro.datagen.road_network import PackedDatasetSpec, build_packed_dataset
from repro.monitor import FacilityDelete, UpdateTick
from repro.network.accessor import FetchOnceCache, InMemoryAccessor
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
        fast = MCNQueryEngine(workload.graph, facilities)
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
        assert compiled.facility_cells == rebuilt.facility_cells
        assert compiled.facility_node_flags == rebuilt.facility_node_flags
        assert compiled.facility_edge_of == rebuilt.facility_edge_of
        assert compiled.facilities_revision == facilities.revision

    def test_storage_backed_snapshot_stays_bulk_loaded(self):
        # The disk-resident files are bulk-loaded and the record path keeps
        # reading them as loaded after the set or the costs move, so a
        # snapshot with page plans keeps what it was compiled from: answers
        # and I/O stay those of the record path over the same storage.
        workload = make_workload(
            WorkloadSpec(num_nodes=80, num_facilities=20, num_cost_types=2, num_queries=3, seed=7)
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        storage = NetworkStorage.build(workload.graph, facilities, page_size=1024)
        compiled = CompiledGraph.from_accessor(storage)
        cells = list(compiled.facility_cells)
        costs = [list(column) for column in compiled.cell_costs]
        edge = next(iter(workload.graph.edges()))
        facilities.add_on_edge(500, edge.edge_id, offset=0.0)
        workload.graph.update_edge_costs(edge.edge_id, [cost * 3 for cost in edge.costs])
        assert compiled.ensure_fresh() is compiled
        assert compiled.facility_cells == cells
        assert compiled.cell_costs == costs
        fast = MCNQueryEngine(workload.graph, facilities, accessor=storage, compiled=compiled)
        slow = MCNQueryEngine(workload.graph, facilities, accessor=storage, compiled=False)
        for query in workload.queries:
            for algorithm in ("cea", "lsa"):
                storage.reset_statistics(clear_buffer=True)
                want = slow.skyline(query, algorithm=algorithm)
                storage.reset_statistics(clear_buffer=True)
                got = fast.skyline(query, algorithm=algorithm)
                assert got.facility_ids() == want.facility_ids()
                assert [f.costs for f in got] == [f.costs for f in want]
                assert got.statistics.io == want.statistics.io


# ---------------------------------------------------------------------- #
# Kernel selection at every entry point
# ---------------------------------------------------------------------- #
def _skylines(workload):
    return [SkylineRequest(query) for query in workload.queries]


def _run_query(session, workload):
    session.query(SkylineRequest(workload.queries[0]))


def _run_batch(session, workload):
    session.run_batch(_skylines(workload))


def _run_sharded_batch(session, workload):
    session.run_batch(
        _skylines(workload), policy=session.policy.replace(workers=2, executor="thread")
    )


def _run_iter_top(session, workload):
    next(session.engine_for().iter_top(workload.queries[0], weights=[0.5, 0.5]))


def _run_monitor_tick(session, workload):
    handle = session.monitor([SkylineRequest(workload.queries[0])])
    # Deleting a skyline member forces the tick's recompute pass.
    victim = min(handle.maintainer_of(handle.subscription_ids[0]).skyline_ids())
    handle.tick(UpdateTick((FacilityDelete(victim),)))


class _ReadRecorder(MutableMapping):
    """An environment that records every variable read through it."""

    def __init__(self, environ):
        self._environ = environ
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return self._environ[key]

    def __setitem__(self, key, value):
        self._environ[key] = value

    def __delitem__(self, key):
        del self._environ[key]

    def __iter__(self):
        return iter(self._environ)

    def __len__(self):
        return len(self._environ)


class TestDataLayerSelectsTheKernel:
    """The data layer alone picks the expansion.

    Both paths return identical answers and counters, so no parity oracle
    notices an entry point that silently skips the kernel; this spies on the
    kernel's constructor and the engines' snapshots instead.
    """

    @pytest.mark.parametrize(
        "policy",
        [ExecutionPolicy(), ExecutionPolicy(residency="disk", page_size=1024)],
        ids=["memory", "disk"],
    )
    @pytest.mark.parametrize(
        "entry",
        [_run_query, _run_batch, _run_sharded_batch, _run_iter_top, _run_monitor_tick],
        ids=["query", "run_batch", "run_batch-sharded", "iter_top", "monitor-tick"],
    )
    def test_kernel_runs_at_every_entry_point(self, monkeypatch, entry, policy):
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
        with Session(workload.graph, facilities, policy=policy) as session:
            entry(session, workload)
        assert built

    def test_no_environment_variable_picks_the_expansion(self, monkeypatch, tmp_path):
        """Every stack a graph can compile runs the kernel; a pack runs none.

        The stacks are built while ``os.environ`` records each read, and
        none may read it: no variable can turn the kernel off.
        """
        pack = tmp_path / "tiny.mcnpack"
        build_packed_dataset(
            PackedDatasetSpec(rows=4, cols=4, num_cost_types=2, num_facilities=5), str(pack)
        )
        workload = make_workload(
            WorkloadSpec(num_nodes=90, num_facilities=25, num_cost_types=2, num_queries=1, seed=71)
        )
        network = make_profile_network(
            workload.graph, EdgeCostStreamSpec(num_ticks=4, time_step=0.5, seed=72)
        )
        disk_policy = ExecutionPolicy(
            residency="disk", page_size=1024, temporal="profiles", profile_source="rush"
        )
        environ = _ReadRecorder(os.environ)
        with monkeypatch.context() as patch:
            patch.setattr(os, "environ", environ)
            memory = Session(workload.graph, workload.facilities)
            disk = Session(
                workload.graph, workload.facilities, policy=disk_policy, profiles={"rush": network}
            )
            handle = disk.monitor([SkylineRequest(workload.queries[0])])
            snapshot = disk._temporal_for(disk.policy).session_at(6.5)
            engines = [
                memory.engine_for(),
                disk.engine_for(),
                handle.service._engine,
                snapshot.engine_for(),
            ]
            with Session(dataset_path=str(pack)) as packed:
                pack_engine = packed.engine_for()
        assert environ.reads == []
        assert all(engine.compiled_graph is not None for engine in engines)
        assert disk.engine_for().storage is not None
        maintainer = handle.maintainer_of(handle.subscription_ids[0])
        assert maintainer._compiled is handle.service._engine.compiled_graph
        assert pack_engine.compiled_graph is None


# ---------------------------------------------------------------------- #
# make_expansions: the one kernel-or-record choice of the searches
# ---------------------------------------------------------------------- #
class TestMakeExpansions:
    """The skyline, top-k and incremental searches build their d expansions
    through :func:`make_expansions`; the snapshot alone decides which kind."""

    @pytest.fixture(scope="class")
    def workload(self):
        return make_workload(
            WorkloadSpec(num_nodes=60, num_facilities=15, num_cost_types=3, num_queries=1, seed=9)
        )

    @pytest.mark.parametrize(
        "compiled, fetch_once, external, layer_type, expansion_type",
        [
            (True, False, False, DirectChargeLayer, ExpansionKernel),
            (True, True, False, FetchOnceChargeLayer, ExpansionKernel),
            (True, True, True, ForwardingLayer, ExpansionKernel),
            (False, False, False, InMemoryAccessor, NearestFacilityExpansion),
            (False, True, False, FetchOnceCache, NearestFacilityExpansion),
            (False, True, True, InMemoryAccessor, NearestFacilityExpansion),
        ],
        ids=[
            "kernel-direct",
            "kernel-fetch-once",
            "kernel-external",
            "record-direct",
            "record-fetch-once",
            "record-external",
        ],
    )
    def test_the_snapshot_picks_the_expansion(
        self, workload, compiled, fetch_once, external, layer_type, expansion_type
    ):
        accessor = InMemoryAccessor(workload.graph, workload.facilities)
        snapshot = CompiledGraph(workload.graph, workload.facilities) if compiled else None
        injected = InMemoryAccessor(workload.graph, workload.facilities) if external else None
        seeds = ExpansionSeeds.from_query(workload.graph, workload.queries[0])
        layer, expansions = make_expansions(
            accessor, seeds, compiled=snapshot, data_layer=injected, fetch_once=fetch_once
        )
        assert type(layer) is layer_type
        # The record path reads through the injected layer as given, else
        # through the accessor, wrapped once per query under fetch_once.
        if not compiled and external:
            assert layer is injected
        elif not compiled and fetch_once:
            assert layer._accessor is accessor
        elif not compiled:
            assert layer is accessor
        assert [type(e) for e in expansions] == [expansion_type] * 3
        assert [e.cost_index for e in expansions] == [0, 1, 2]
