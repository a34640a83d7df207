"""Structure tests of the compiled snapshot (:mod:`repro.network.compiled`).

The differential suite proves the kernel behaves like the legacy expansion;
these tests pin the snapshot itself: the shared neighbour tuples and cost
lists mirror the accessor's record order and values, the facility table
reproduces the record path's arithmetic, page plans replay the exact
buffered reads a live request performs, and the charge-layer factory
rejects mismatched pairings.
"""

from __future__ import annotations

import asyncio
import gc
import random
import sys
import threading
import tracemalloc

import pytest

from repro.api import ExecutionPolicy, Session
from repro.core.engine import MCNQueryEngine
from repro.core.kernel import (
    DirectChargeLayer,
    FetchOnceChargeLayer,
    ForwardingLayer,
    make_kernel_data_layer,
)
from repro.datagen import (
    EdgeCostStreamSpec,
    UpdateStreamSpec,
    WorkloadSpec,
    make_profile_network,
    make_update_stream,
    make_workload,
)
from repro.errors import QueryError
from repro.monitor import EdgeCostUpdate, FacilityDelete, MonitoringService, UpdateTick
from repro.network.accessor import InMemoryAccessor
from repro.network.compiled import CompiledGraph
from repro.network.facilities import FacilitySet
from repro.serve import InProcessClient, ServeApp
from repro.service import (
    CrossQueryExpansionCache,
    QueryService,
    SharedCacheChargeLayer,
    SkylineRequest,
    TopKRequest,
)
from repro.service.requests import request_to_payload
from repro.storage.scheme import NetworkStorage


@pytest.fixture(scope="module")
def workload():
    return make_workload(
        WorkloadSpec(num_nodes=160, num_facilities=45, num_cost_types=3, num_queries=2, seed=13)
    )


@pytest.fixture(scope="module")
def accessor(workload):
    return InMemoryAccessor(workload.graph, workload.facilities)


@pytest.fixture(scope="module")
def compiled(accessor):
    return CompiledGraph.from_accessor(accessor)


class TestTopologyColumns:
    def test_arcs_mirror_accessor_adjacency_order(self, workload, compiled):
        probe = InMemoryAccessor(workload.graph, workload.facilities)
        for node_id in workload.graph.node_ids():
            node_idx = compiled.node_index[node_id]
            arcs = compiled.arcs[node_idx]
            records = probe.adjacency(node_id)
            assert len(arcs) == len(records)
            for (neighbor, cell), record in zip(arcs, records):
                assert compiled.node_ids[neighbor] == record.neighbor
                assert compiled.edge_ids[cell >> 1] == record.edge_id
                edge = workload.graph.edge(record.edge_id)
                for cost_index in range(compiled.num_cost_types):
                    # The cost lists hold the graph's own float objects.
                    assert compiled.cell_costs[cost_index][cell] is edge.costs.values[cost_index]
                assert bool(cell & 1) == (node_id == edge.u)
            assert compiled.adjacency_records(node_idx) == records

    def test_facility_buckets_mirror_edge_facilities(self, workload, compiled):
        probe = InMemoryAccessor(workload.graph, workload.facilities)
        for edge in workload.graph.edges():
            records = probe.edge_facilities(edge.edge_id)
            bucket = compiled.edge_facility_records(compiled.edge_index[edge.edge_id])
            assert list(bucket) == records

    def test_facility_keys_match_legacy_arithmetic(self, workload, compiled):
        # The kernel en-heaps key + edge_cost * fraction off the one
        # cost-independent table: that must be exactly the legacy
        # expansion's distance + edge_cost * fraction under every cost type
        # and in both traversal directions.
        key = 12.375
        table = compiled.facility_cells
        for edge in workload.graph.edges():
            edge_idx = compiled.edge_index[edge.edge_id]
            bucket = compiled.edge_facility_records(edge_idx)
            for forward in (0, 1):
                cell = edge_idx * 2 + forward
                assert [record for _fid, _fraction, record in table[cell]] == list(bucket)
                for fid, fraction, record in table[cell]:
                    assert fid == record.facility_id
                    if edge.length > 0:
                        legacy = (
                            record.offset / edge.length
                            if forward
                            else (edge.length - record.offset) / edge.length
                        )
                    else:
                        legacy = 0.0
                    for cost_index in range(compiled.num_cost_types):
                        cost = edge.costs.values[cost_index]
                        assert key + compiled.cell_costs[cost_index][cell] * fraction == (
                            key + cost * legacy
                        )

    def test_describe(self, compiled, workload):
        summary = compiled.describe()
        assert summary["nodes"] == workload.graph.num_nodes
        assert summary["edges"] == workload.graph.num_edges
        assert summary["arcs"] == 2 * workload.graph.num_edges
        assert summary["facilities"] == len(workload.facilities)
        assert summary["page_plans"] is False


class TestPagePlans:
    def test_plan_replay_equals_live_request_io(self, workload):
        storage = NetworkStorage.build(
            workload.graph, workload.facilities, page_size=1024, buffer_fraction=0.01
        )
        compiled = CompiledGraph.from_accessor(storage)
        assert compiled.has_page_plans
        # Two fresh snapshot views: one serves real requests, the other
        # replays the plans.  Buffer statistics must agree exactly.
        live = storage.snapshot_view()
        replay = storage.snapshot_view()
        some_nodes = list(workload.graph.node_ids())[:25]
        some_edges = [edge.edge_id for edge in workload.graph.edges()][:25]
        some_facilities = [facility.facility_id for facility in workload.facilities][:10]
        for node_id in some_nodes:
            live.adjacency(node_id)
            for page_id in compiled.adjacency_plans[compiled.node_index[node_id]]:
                replay.buffer.read(page_id)
        for edge_id in some_edges:
            live.edge_facilities(edge_id)
            for page_id in compiled.facility_plans[compiled.edge_index[edge_id]]:
                replay.buffer.read(page_id)
        for facility_id in some_facilities:
            live.facility_edge(facility_id)
            for page_id in compiled.facility_tree_plans[facility_id]:
                replay.buffer.read(page_id)
        assert replay.buffer.statistics.requests == live.buffer.statistics.requests
        assert replay.buffer.statistics.hits == live.buffer.statistics.hits
        assert replay.buffer.statistics.misses == live.buffer.statistics.misses

    def test_compiling_does_not_touch_counters(self, workload):
        storage = NetworkStorage.build(workload.graph, workload.facilities, page_size=1024)
        before_reads = storage.disk.statistics.page_reads
        before_stats = storage.statistics.snapshot()
        compiled = CompiledGraph.from_accessor(storage)
        # Plans are read on first use; reading every one moves no counter.
        for node_idx in range(compiled.num_nodes):
            compiled.adjacency_plans[node_idx]
        for edge_idx in range(compiled.num_edges):
            compiled.facility_plans[edge_idx]
        for facility_id in compiled.facility_edge_of:
            compiled.facility_tree_plans[facility_id]
        assert storage.disk.statistics.page_reads == before_reads
        after = storage.statistics
        assert after.adjacency_requests == before_stats.adjacency_requests
        assert after.page_reads == before_stats.page_reads
        assert after.buffer_hits == before_stats.buffer_hits

    def test_plans_filled_by_racing_threads_match_the_storage(self, workload):
        # Thread shard workers share one snapshot, so they fill its plans
        # concurrently; every plan must still be the storage's own.
        storage = NetworkStorage.build(workload.graph, workload.facilities, page_size=1024)
        compiled = CompiledGraph.from_accessor(storage)
        order = list(range(compiled.num_nodes))

        def fill(seed):
            shuffled = order[:]
            random.Random(seed).shuffle(shuffled)
            for node_idx in shuffled:
                compiled.adjacency_plans[node_idx]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=fill, args=(seed,)) for seed in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert dict(compiled.adjacency_plans) == {
            node_idx: storage.adjacency_page_plan(node_id)
            for node_idx, node_id in enumerate(compiled.node_ids)
        }


class TestLayerFactory:
    def test_layer_kinds(self, compiled, accessor):
        assert isinstance(
            make_kernel_data_layer(compiled, target=accessor), DirectChargeLayer
        )
        assert isinstance(
            make_kernel_data_layer(compiled, target=accessor, fetch_once=True),
            FetchOnceChargeLayer,
        )
        # The cross-query cache offers its own charge layer (no record
        # materialisation through the accessor chain)...
        cache = CrossQueryExpansionCache(accessor)
        assert isinstance(
            make_kernel_data_layer(compiled, target=accessor, external=cache),
            SharedCacheChargeLayer,
        )
        # ...while a plain external accessor still gets verbatim forwarding.
        assert isinstance(
            make_kernel_data_layer(compiled, target=accessor, external=accessor),
            ForwardingLayer,
        )

    def test_mismatched_storage_rejected(self, workload, compiled, accessor):
        storage = NetworkStorage.build(workload.graph, workload.facilities, page_size=1024)
        with pytest.raises(QueryError):
            make_kernel_data_layer(compiled, target=storage)
        disk_compiled = CompiledGraph.from_accessor(storage)
        with pytest.raises(QueryError):
            make_kernel_data_layer(disk_compiled, target=accessor)
        other = NetworkStorage.build(workload.graph, workload.facilities, page_size=1024)
        with pytest.raises(QueryError):
            make_kernel_data_layer(disk_compiled, target=other)

    def test_unsupported_source_rejected(self, accessor):
        cache = CrossQueryExpansionCache(accessor)
        with pytest.raises(QueryError):
            CompiledGraph.from_accessor(cache)

    def test_engine_rejects_foreign_snapshot(self, workload, compiled):
        other_facilities = FacilitySet(workload.graph, iter(workload.facilities))
        with pytest.raises(QueryError):
            MCNQueryEngine(workload.graph, other_facilities, compiled=compiled)
        # Same graph AND same facility set: adopted fine.
        engine = MCNQueryEngine(workload.graph, workload.facilities, compiled=compiled)
        assert engine.compiled_graph is compiled
        # The data layer decides whether to compile; True is not a choice.
        with pytest.raises(QueryError, match="True"):
            MCNQueryEngine(workload.graph, workload.facilities, compiled=True)


class TestFreshnessGuards:
    def test_topology_change_is_rejected(self):
        workload = make_workload(
            WorkloadSpec(num_nodes=60, num_facilities=15, num_cost_types=2, num_queries=1, seed=3)
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        compiled = CompiledGraph(workload.graph, facilities)
        nodes = list(workload.graph.node_ids())
        workload.graph.add_node(max(nodes) + 1)
        with pytest.raises(QueryError):
            compiled.ensure_fresh()

    def test_changelog_overflow_falls_back_to_full_rebuild(self):
        workload = make_workload(
            WorkloadSpec(num_nodes=60, num_facilities=15, num_cost_types=2, num_queries=1, seed=4)
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        compiled = CompiledGraph(workload.graph, facilities)
        edge_id = next(iter(workload.graph.edges())).edge_id
        # Blow straight past the bounded changelog.
        for index in range(1200):
            facilities.add_on_edge(10_000 + index, edge_id, offset=0.0)
            facilities.remove(10_000 + index)
        assert facilities.changed_facilities_since(compiled.facilities_revision) is None
        compiled.ensure_fresh()
        rebuilt = CompiledGraph(workload.graph, facilities)
        assert compiled.facility_edge_of == rebuilt.facility_edge_of
        assert compiled.facility_cells == rebuilt.facility_cells

    def test_overflow_rebuild_refreshes_every_stale_edge_bucket(self):
        # Regression: the bounded changelog can overflow while mutations are
        # scattered over MANY edges.  The full-refresh fallback must then
        # leave every edge bucket (and both hot tables) identical to a
        # from-scratch build — not just the buckets a partial log would have
        # named — and queries over the refreshed snapshot must match a fresh
        # one in both answers and I/O counters.
        workload = make_workload(
            WorkloadSpec(
                num_nodes=120, num_facilities=40, num_cost_types=2, num_queries=3, seed=9
            )
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        compiled = CompiledGraph(workload.graph, facilities)
        rng = random.Random(9)
        edge_ids = [edge.edge_id for edge in workload.graph.edges()]
        live: list[int] = []
        next_id = 50_000
        for _ in range(1100):
            if live and rng.random() < 0.45:
                facilities.remove(live.pop(rng.randrange(len(live))))
            else:
                edge = workload.graph.edge(rng.choice(edge_ids))
                facilities.add_on_edge(next_id, edge.edge_id, offset=0.5 * edge.length)
                live.append(next_id)
                next_id += 1
        assert facilities.changed_facilities_since(compiled.facilities_revision) is None
        compiled.ensure_fresh()
        fresh = CompiledGraph(workload.graph, facilities)
        assert compiled._edge_records == fresh._edge_records
        assert compiled.facility_edge_of == fresh.facility_edge_of
        assert compiled.facility_cells == fresh.facility_cells
        assert compiled.facility_node_flags == fresh.facility_node_flags
        stale_engine = MCNQueryEngine(workload.graph, facilities, compiled=compiled)
        fresh_engine = MCNQueryEngine(workload.graph, facilities, compiled=fresh)
        for query in workload.queries:
            got = stale_engine.skyline(query)
            want = fresh_engine.skyline(query)
            assert got.facility_ids() == want.facility_ids()
            assert got.statistics.io == want.statistics.io

    def test_overflow_mid_monitor_tick_matches_uncompiled_service(self):
        # A single monitoring tick larger than the changelog bound drives the
        # compiled path through the overflow fallback mid-tick.  Results must
        # stay identical to a record-path (compiled=False) search over the
        # mutated set, and the snapshot left behind must equal a
        # from-scratch compile of it.
        workload = make_workload(
            WorkloadSpec(
                num_nodes=150, num_facilities=50, num_cost_types=2, num_queries=4, seed=11
            )
        )
        stream = make_update_stream(
            workload.graph,
            workload.facilities,
            UpdateStreamSpec(num_ticks=1, updates_per_tick=1300, seed=5),
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        service = MonitoringService(workload.graph, facilities)
        revision_before = facilities.revision
        sids = [service.subscribe(SkylineRequest(query)) for query in workload.queries]
        for tick in stream:
            service.apply_tick(tick)
        # The tick genuinely overflowed the bounded changelog.
        assert facilities.changed_facilities_since(revision_before) is None
        reference = MCNQueryEngine(
            workload.graph, FacilitySet(workload.graph, iter(facilities)), compiled=False
        )
        for sid, query in zip(sids, workload.queries):
            expected = reference.skyline(query, algorithm="cea")
            held = service.maintainer_of(sid).skyline
            assert set(held) == expected.facility_ids()
            for member in expected:
                if None not in member.costs:
                    assert held[member.facility_id] == member.costs
        compiled = service._engine.compiled_graph
        assert compiled is not None
        compiled.ensure_fresh()
        fresh = CompiledGraph(workload.graph, facilities)
        assert compiled._edge_records == fresh._edge_records
        assert compiled.facility_edge_of == fresh.facility_edge_of
        assert compiled.facility_cells == fresh.facility_cells


def _fresh(workload):
    return FacilitySet(workload.graph, iter(workload.facilities))


class TestSharedTopology:
    """One topology per session: the monitor, snapshots and searches share it."""

    def test_memory_monitor_runs_on_the_session_snapshot(self, workload):
        with Session(workload.graph, _fresh(workload)) as session:
            handle = session.monitor([SkylineRequest(workload.queries[0])])
            compiled = session.engine_for().compiled_graph
            assert handle.service._engine.compiled_graph is compiled
            maintainer = handle.maintainer_of(handle.subscription_ids[0])
            assert maintainer._compiled is compiled

    @pytest.mark.parametrize("first", ["monitor", "query"])
    def test_disk_monitor_runs_on_a_plan_free_twin(self, workload, first):
        policy = ExecutionPolicy(residency="disk", page_size=1024)
        with Session(workload.graph, _fresh(workload), policy=policy) as session:
            if first == "query":
                session.query(SkylineRequest(workload.queries[1]))
            handle = session.monitor([SkylineRequest(workload.queries[0])])
            # A monitor opened before any query compiles its plan-free
            # snapshot straight from the graph and bulk-loads no storage.
            assert (session._storage is None) == (first == "monitor")
            disk = session.engine_for().compiled_graph
            twin = handle.service._engine.compiled_graph
            assert disk.has_page_plans and not twin.has_page_plans
            assert twin.arcs is disk.arcs and twin.node_ids is disk.node_ids
            assert twin.cell_costs is not disk.cell_costs
            assert twin.facility_cells is not disk.facility_cells
            # A tick moves the twin (the monitor's live view) and leaves the
            # disk snapshot as its bulk-loaded storage was built.
            victim = min(handle.maintainer_of(handle.subscription_ids[0]).skyline_ids())
            handle.tick(UpdateTick((FacilityDelete(victim),)))
            twin.ensure_fresh()
            disk.ensure_fresh()
            assert victim not in twin.facility_edge_of
            assert victim in disk.facility_edge_of

    def test_snapshot_sessions_share_the_base_topology(self):
        workload = make_workload(
            WorkloadSpec(num_nodes=90, num_facilities=25, num_cost_types=2, num_queries=1, seed=71)
        )
        network = make_profile_network(
            workload.graph,
            EdgeCostStreamSpec(
                num_ticks=4, start_time=6.0, time_step=0.5, affected_fraction=0.3, seed=72
            ),
        )
        policy = ExecutionPolicy(temporal="profiles", profile_source="rush")
        request = SkylineRequest(workload.queries[0], departure_time=8.0)
        with Session(
            workload.graph, workload.facilities, policy=policy, profiles={"rush": network}
        ) as session:
            handle = session.monitor(())
            base = session.engine_for().compiled_graph
            executor = session._temporal_for(session.policy)
            session.query(request)
            snapshot = executor.session_at(8.0)
            derived = snapshot.engine_for().compiled_graph
            assert derived.graph is snapshot.graph
            assert derived.arcs is base.arcs
            assert derived.facility_cells is base.facility_cells
            assert all(
                own is not shared for own, shared in zip(derived.cell_costs, base.cell_costs)
            )
            assert derived.cell_costs == CompiledGraph(
                snapshot.graph, snapshot.facilities
            ).cell_costs
            # An edge tick on the base shows in a snapshot only once rebuilt.
            profiled = set(network.profiled_edges)
            edge = next(e for e in workload.graph.edges() if e.edge_id not in profiled)
            cell = derived.edge_index[edge.edge_id] * 2
            before = derived.cell_costs[0][cell]
            handle.tick(UpdateTick((EdgeCostUpdate(edge.edge_id, [c * 3 for c in edge.costs]),)))
            assert derived.ensure_fresh().cell_costs[0][cell] == before
            session.query(request)
            rebuilt = executor.session_at(8.0).engine_for().compiled_graph
            assert executor.statistics.rebuilds == 1
            assert rebuilt is not derived and rebuilt.arcs is base.arcs
            assert rebuilt.cell_costs[0][cell] == 3 * edge.costs[0]
            # A facility tick patches the base's table; a snapshot still
            # holding it builds its own table from its own (unchanged) set.
            victim = min(session.facilities.facility_ids())
            handle.tick(UpdateTick((FacilityDelete(victim),)))
            assert victim not in base.ensure_fresh().facility_edge_of
            assert victim in rebuilt.ensure_fresh().facility_edge_of
            assert rebuilt.facility_cells is not base.facility_cells

    def test_a_disk_temporal_session_loads_no_base_storage(self):
        workload = make_workload(
            WorkloadSpec(num_nodes=90, num_facilities=25, num_cost_types=2, num_queries=1, seed=71)
        )
        network = make_profile_network(
            workload.graph, EdgeCostStreamSpec(num_ticks=4, time_step=0.5, seed=72)
        )
        policy = ExecutionPolicy(
            residency="disk",
            page_size=1024,
            temporal="profiles",
            profile_source="rush",
        )
        with Session(
            workload.graph, workload.facilities, policy=policy, profiles={"rush": network}
        ) as session:
            handle = session.monitor(())
            response = session.query(SkylineRequest(workload.queries[0], departure_time=6.5))
            assert response.io.page_reads > 0
            assert session._storage is None and session._engine is None
            shared = handle.service._engine.compiled_graph
            snapshot = session._temporal_for(session.policy).session_at(6.5)
            derived = snapshot.engine_for().compiled_graph
            assert derived.has_page_plans and derived.storage is snapshot.storage_for()
            assert derived.arcs is shared.arcs

    def test_a_served_session_with_subscriptions_holds_one_compiled_graph(self, workload):
        edge = next(iter(workload.graph.edges()))

        def query(index):
            return {"request": request_to_payload(SkylineRequest(workload.queries[index]))}

        async def scenario():
            app = ServeApp(Session(workload.graph, _fresh(workload)))
            client = InProcessClient(app)
            async with app:
                for index in (0, 1):
                    assert (await client.post("/v1/subscriptions", query(index))).status == 201
                assert (await client.post("/v1/query", query(0))).status == 200
                insert = {"type": "insert", "facility": 9000, "edge": edge.edge_id, "offset": 0.0}
                assert (await client.patch("/v1/facilities", {"updates": [insert]})).status == 200
                assert (await client.post("/v1/query", query(1))).status == 200
                gc.collect()
                return sum(isinstance(obj, CompiledGraph) for obj in gc.get_objects())

        gc.collect()
        before = sum(isinstance(obj, CompiledGraph) for obj in gc.get_objects())
        assert asyncio.run(scenario()) - before == 1

    def test_compiled_size_stays_under_five_mib(self):
        workload = make_workload(
            WorkloadSpec(num_nodes=5000, num_facilities=400, num_cost_types=3, seed=2010)
        )
        tracemalloc.start()
        try:
            compiled = CompiledGraph(workload.graph, workload.facilities)
            traced, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert compiled.num_nodes >= 5000
        assert traced < 5 * 2**20


class TestKernelFilledCache:
    """Record-path requests read entries the kernel filled as membership only."""

    @pytest.mark.parametrize("residency", ["memory", "disk"])
    def test_record_path_reads_match_across_modes(self, workload, residency):
        locations = list(workload.queries) + [workload.queries[0]]
        requests = []
        for location in locations:
            for algorithm in ("cea", "baseline", "lsa"):
                requests.append(SkylineRequest(location, algorithm=algorithm))
                requests.append(
                    TopKRequest(location, 3, weights=(0.5, 0.3, 0.2), algorithm=algorithm)
                )
        policy = ExecutionPolicy(residency=residency, page_size=1024, memoize_results=False)
        # The reference runs the record path on the data layer a session
        # of this policy compiles.
        facilities = _fresh(workload)
        storage = None
        if residency == "disk":
            storage = NetworkStorage.build(
                workload.graph,
                facilities,
                page_size=policy.page_size,
                buffer_fraction=policy.buffer_fraction,
            )
        reference = QueryService(
            MCNQueryEngine(workload.graph, facilities, accessor=storage, compiled=False),
            policy=policy,
        )
        runs = {}
        with Session(workload.graph, _fresh(workload), policy=policy) as session:
            legs = {
                "on": (session._service_for(), session.query),
                "off": (reference, reference.execute),
            }
            for compiled, (service, execute) in legs.items():
                responses = []
                membership_only = 0
                for request in requests:
                    if request.algorithm == "baseline":
                        membership_only += sum(
                            isinstance(value, CompiledGraph)
                            for value in service.cache._adjacency.values()
                        )
                    response = execute(request)
                    if isinstance(request, SkylineRequest):
                        answer = [(item.facility_id, item.costs) for item in response.result]
                    else:
                        answer = [(item.facility_id, item.score) for item in response.result]
                    responses.append((answer, response.io))
                runs[compiled] = (responses, service.cache_statistics.snapshot())
                # The kernel run really left membership-only entries for the
                # baseline to read; the record path never does.
                assert (membership_only > 0) == (compiled == "on")
        assert runs["on"] == runs["off"]
