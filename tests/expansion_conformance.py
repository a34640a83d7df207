"""Conformance suite: the compiled expansion kernel versus the accessor path.

The columnar fast path promises *bit-identical* behaviour: same facility
streams, same settled maps, same results, same heap pops, and exactly the
same logical and physical I/O accounting.  :class:`ExpansionConformanceSuite`
pins that promise for the kernel a subclass names in :attr:`kernel_class`,
checked pop by pop against the reference
:class:`~repro.core.expansion.NearestFacilityExpansion` and through the
engine, batch-service and monitor wiring.  If the kernel ever drifts from
the reference expansion in any observable way, something here fails.

The suite class is deliberately not named ``Test*`` so pytest only collects
the concrete subclasses (see ``test_kernel_differential.py``).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import MCNQueryEngine
from repro.core.expansion import ExpansionSeeds, NearestFacilityExpansion
from repro.core.kernel import make_kernel_data_layer
from repro.datagen import WorkloadSpec, make_workload
from repro.datagen.updates import UpdateStreamSpec, make_update_stream
from repro.monitor import MonitoringService
from repro.network.accessor import FacilityRecord, FetchOnceCache, InMemoryAccessor
from repro.network.compiled import CompiledGraph
from repro.network.facilities import FacilitySet
from repro.service import (
    CrossQueryExpansionCache,
    QueryService,
    SkylineRequest,
    TopKRequest,
)
from repro.storage.scheme import NetworkStorage


def io_tuple(stats):
    return (
        stats.adjacency_requests,
        stats.facility_requests,
        stats.facility_tree_requests,
        stats.page_reads,
        stats.buffer_hits,
    )


def make_accessor(workload, *, use_disk):
    """A fresh data layer over ``workload``: in memory or on the simulated disk.

    The disk layer's buffer holds a few pages, so replaying page plans sees
    hits and evictions alike; its layers charge synchronously per request,
    the in-memory ones charge a call's settles through their exit hook.
    """
    if use_disk:
        return NetworkStorage.build(
            workload.graph, workload.facilities, page_size=512, buffer_fraction=0.1
        )
    return InMemoryAccessor(workload.graph, workload.facilities)


# Every sharing regime the searches hand a kernel, over both residencies.
LAYER_CASES = pytest.mark.parametrize(
    "share, use_disk",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["direct", "fetch-once", "disk-direct", "disk-fetch-once"],
)


# Every charge regime a kernel can meet: the four layers above; a
# cross-query cache, charged through its exit hook when unbounded and per
# settle when bounded (20 entries, so it evicts); and an external accessor
# without a charge layer of its own, which gets a ForwardingLayer.
CHARGE_REGIMES = pytest.mark.parametrize(
    "regime",
    [
        "direct",
        "fetch-once",
        "disk-direct",
        "disk-fetch-once",
        "cache",
        "bounded-cache",
        "forwarding",
    ],
)


def regime_layers(workload, regime):
    """``(reference layer, kernel layer, counters)`` for one charge regime.

    ``counters()`` returns the reference side's and the kernel side's
    counters (base I/O, plus the cache's hits and misses where there is a
    cache), so a test can compare them after any call.
    """
    use_disk = regime.startswith("disk")
    accessor_a = make_accessor(workload, use_disk=use_disk)
    accessor_b = make_accessor(workload, use_disk=use_disk)
    compiled = CompiledGraph.from_accessor(accessor_b)
    caches = ()
    if regime in ("cache", "bounded-cache"):
        bound = 20 if regime == "bounded-cache" else None
        caches = (
            CrossQueryExpansionCache(accessor_a, max_entries=bound),
            CrossQueryExpansionCache(accessor_b, max_entries=bound),
        )
        reference = caches[0]
        layer = make_kernel_data_layer(compiled, target=accessor_b, external=caches[1])
    elif regime == "forwarding":
        reference = FetchOnceCache(accessor_a)
        layer = make_kernel_data_layer(
            compiled, target=accessor_b, external=FetchOnceCache(accessor_b)
        )
    else:
        share = regime.endswith("fetch-once")
        reference = FetchOnceCache(accessor_a) if share else accessor_a
        layer = make_kernel_data_layer(compiled, target=accessor_b, fetch_once=share)

    def counters():
        sides = [io_tuple(accessor_a.statistics), io_tuple(accessor_b.statistics)]
        if caches:
            sides = [
                (io, cache.cache_statistics.snapshot()) for io, cache in zip(sides, caches)
            ]
        return tuple(sides)

    return reference, layer, counters


def drain(expansion):
    hits = []
    while True:
        hit = expansion.next_facility()
        if hit is None:
            break
        hits.append((hit.facility_id, hit.cost, hit.cost_index, hit.record))
    return hits


class ExpansionConformanceSuite:
    """Bit-identity battery for one kernel implementation.

    Subclasses set :attr:`kernel_class` (constructed as
    ``kernel_class(layer, seeds, cost_index)``); the engine / service /
    monitor tests run the same kernel through the real wiring rather than a
    hand-built instance.
    """

    #: The kernel implementation under test.
    kernel_class: type | None = None

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def make_kernel(self, layer, seeds, cost_index):
        assert self.kernel_class is not None, "subclass must set kernel_class"
        return self.kernel_class(layer, seeds, cost_index)

    def build_workload(self, spec):
        """The workload every test of the battery runs on."""
        return make_workload(spec)

    def make_engines(self, workload, *, use_disk, page_size=1024, buffer_fraction=0.01):
        """A (legacy, fast) engine pair over the same workload."""
        def engine(compiled):
            storage = None
            if use_disk:
                storage = NetworkStorage.build(
                    workload.graph,
                    workload.facilities,
                    page_size=page_size,
                    buffer_fraction=buffer_fraction,
                )
            return MCNQueryEngine(
                workload.graph, workload.facilities, accessor=storage, compiled=compiled
            )

        # The default compiles either residency; False is the reference.
        return engine(False), engine(None)

    @staticmethod
    def reset(engine):
        if engine.storage is not None:
            engine.storage.reset_statistics(clear_buffer=True)

    def test_engine_selects_this_kernel(self):
        """Default engines run every search on the kernel under test.

        In both residencies, LSA and CEA, skyline and top-k alike; the
        ``compiled=False`` engine's searches run the reference expansion.
        """
        workload = self.build_workload(
            WorkloadSpec(num_nodes=60, num_facilities=15, num_cost_types=2, num_queries=1, seed=5)
        )
        query = workload.queries[0]
        for use_disk in (False, True):
            legacy, fast = self.make_engines(workload, use_disk=use_disk)
            for engine, expected in ((legacy, NearestFacilityExpansion), (fast, self.kernel_class)):
                for search in (
                    engine.skyline_search(query, algorithm="lsa"),
                    engine.top_k_search(query, 2, weights=[0.5, 0.5], algorithm="cea"),
                ):
                    assert {type(expansion) for expansion in search.expansions} == {expected}

    # ------------------------------------------------------------------ #
    # Raw expansion parity (kernel drained facility by facility)
    # ------------------------------------------------------------------ #
    @LAYER_CASES
    def test_full_drain_is_bit_identical(self, share, use_disk):
        workload = self.build_workload(
            WorkloadSpec(num_nodes=180, num_facilities=50, num_cost_types=2, num_queries=4, seed=11)
        )
        accessor_a = make_accessor(workload, use_disk=use_disk)
        accessor_b = make_accessor(workload, use_disk=use_disk)
        compiled = CompiledGraph.from_accessor(accessor_b)
        for query in workload.queries:
            seeds = ExpansionSeeds.from_query(workload.graph, query)
            legacy_layer = FetchOnceCache(accessor_a) if share else accessor_a
            kernel_layer = make_kernel_data_layer(
                compiled, target=accessor_b, fetch_once=share
            )
            for cost_index in range(workload.graph.num_cost_types):
                legacy = NearestFacilityExpansion(legacy_layer, seeds, cost_index)
                kernel = self.make_kernel(kernel_layer, seeds, cost_index)
                while True:
                    assert kernel.head_key() == legacy.head_key()
                    legacy_hit = legacy.next_facility()
                    kernel_hit = kernel.next_facility()
                    assert kernel_hit == legacy_hit
                    assert kernel.heap_pops == legacy.heap_pops
                    if legacy_hit is None:
                        break
                assert dict(kernel.settled_costs) == dict(legacy.settled_costs)
                assert dict(kernel.reported_costs) == dict(legacy.reported_costs)
                assert kernel.facilities_retrieved == legacy.facilities_retrieved
        assert io_tuple(accessor_a.statistics) == io_tuple(accessor_b.statistics)
        if use_disk:
            assert accessor_b.statistics.page_reads > 0
            assert accessor_b.statistics.buffer_hits > 0

    @LAYER_CASES
    def test_mixed_pop_step_drain_is_bit_identical(self, share, use_disk):
        """``pop_step`` and ``next_facility`` interleaved, compared after every call.

        ``pop_step`` charges synchronously while ``next_facility`` charges
        an in-memory layer's settles through its exit hook; counters must agree
        with the reference after each call either way.  On the disk layers
        every request replays its page plan through the LRU buffer, so the
        page-read/buffer-hit split pins the request order as well.
        """
        workload = self.build_workload(
            WorkloadSpec(num_nodes=150, num_facilities=30, num_cost_types=2, num_queries=2, seed=41)
        )
        accessor_a = make_accessor(workload, use_disk=use_disk)
        accessor_b = make_accessor(workload, use_disk=use_disk)
        compiled = CompiledGraph.from_accessor(accessor_b)
        for query in workload.queries:
            seeds = ExpansionSeeds.from_query(workload.graph, query)
            legacy_layer = FetchOnceCache(accessor_a) if share else accessor_a
            kernel_layer = make_kernel_data_layer(compiled, target=accessor_b, fetch_once=share)
            pairs = [
                (
                    NearestFacilityExpansion(legacy_layer, seeds, cost_index),
                    self.make_kernel(kernel_layer, seeds, cost_index),
                )
                for cost_index in range(workload.graph.num_cost_types)
            ]
            step = 0
            while not all(legacy.exhausted for legacy, _kernel in pairs):
                legacy, kernel = pairs[step % len(pairs)]
                if step % 3:
                    assert kernel.pop_step() == legacy.pop_step()
                else:
                    assert kernel.next_facility() == legacy.next_facility()
                assert kernel.head_key() == legacy.head_key()
                assert kernel.heap_pops == legacy.heap_pops
                assert kernel.exhausted == legacy.exhausted
                assert io_tuple(accessor_a.statistics) == io_tuple(accessor_b.statistics)
                step += 1
            for legacy, kernel in pairs:
                assert dict(kernel.settled_costs) == dict(legacy.settled_costs)
                assert dict(kernel.reported_costs) == dict(legacy.reported_costs)
        if use_disk:
            assert accessor_b.statistics.page_reads > 0
            assert accessor_b.statistics.buffer_hits > 0

    @CHARGE_REGIMES
    def test_settled_maps_match_in_order_and_stay_live(self, regime):
        """``settled_costs`` equals the reference's item by item, in settle order.

        The kernel builds the map when it is first read and writes every
        later settle through, so each round first reads it at another
        point: before the first call, in the growing stage, after
        ``enter_candidate_mode`` or after ``pop_step`` calls.  From then on
        it is read at every checkpoint, and the views of the first read are
        compared again after every call, as are the counters.
        """
        workload = self.build_workload(
            WorkloadSpec(num_nodes=150, num_facilities=30, num_cost_types=2, num_queries=1, seed=41)
        )
        seeds = ExpansionSeeds.from_query(workload.graph, workload.queries[0])
        for first_read in range(4):
            reference_layer, kernel_layer, counters = regime_layers(workload, regime)
            pairs = [
                (
                    NearestFacilityExpansion(reference_layer, seeds, cost_index),
                    self.make_kernel(kernel_layer, seeds, cost_index),
                )
                for cost_index in range(workload.graph.num_cost_types)
            ]
            held = []

            def checkpoint(number):
                if number < first_read:
                    return
                for reference, kernel in pairs:
                    assert list(kernel.settled_costs.items()) == list(
                        reference.settled_costs.items()
                    )
                if not held:
                    held.extend(
                        (reference.settled_costs, kernel.settled_costs)
                        for reference, kernel in pairs
                    )

            def call(method):
                for reference, kernel in pairs:
                    assert getattr(kernel, method)() == getattr(reference, method)()
                    expected, actual = counters()
                    assert actual == expected
                    for reference_view, kernel_view in held:
                        assert list(kernel_view.items()) == list(reference_view.items())

            checkpoint(0)
            for _ in range(2):
                call("next_facility")
            checkpoint(1)
            for reference, kernel in pairs:
                candidates = {}
                remaining = [
                    facility
                    for facility in workload.facilities
                    if facility.facility_id not in reference.reported_costs
                ]
                for facility in remaining[:5]:
                    candidates.setdefault(facility.edge_id, []).append(
                        FacilityRecord(facility.facility_id, facility.edge_id, facility.offset)
                    )
                reference.enter_candidate_mode(candidates)
                kernel.enter_candidate_mode(candidates)
            checkpoint(2)
            for _ in range(6):
                call("pop_step")
            checkpoint(3)
            while not all(reference.exhausted for reference, _kernel in pairs):
                call("next_facility")
            checkpoint(4)
            assert all(len(view) > 6 for _reference_view, view in held)

    @pytest.mark.parametrize("use_disk", [False, True], ids=["memory", "disk"])
    def test_candidate_mode_restriction_parity(self, use_disk):
        workload = self.build_workload(
            WorkloadSpec(num_nodes=150, num_facilities=40, num_cost_types=2, num_queries=2, seed=23)
        )
        accessor_a = make_accessor(workload, use_disk=use_disk)
        accessor_b = make_accessor(workload, use_disk=use_disk)
        compiled = CompiledGraph.from_accessor(accessor_b)
        query = workload.queries[0]
        seeds = ExpansionSeeds.from_query(workload.graph, query)
        legacy = NearestFacilityExpansion(accessor_a, seeds, 0)
        kernel = self.make_kernel(
            make_kernel_data_layer(compiled, target=accessor_b), seeds, 0
        )
        # Report two facilities, then restrict both to the records of the
        # first few remaining facilities and drain.
        for _ in range(2):
            assert kernel.next_facility() == legacy.next_facility()
        remaining = [
            facility
            for facility in workload.facilities
            if facility.facility_id not in dict(legacy.reported_costs)
        ][:5]
        candidates = {}
        for facility in remaining:
            record_list = accessor_a.edge_facilities(facility.edge_id)
            accessor_b.edge_facilities(facility.edge_id)  # keep counters aligned
            for record in record_list:
                if record.facility_id == facility.facility_id:
                    candidates.setdefault(facility.edge_id, []).append(record)
        legacy.enter_candidate_mode(candidates)
        kernel.enter_candidate_mode(candidates)
        assert drain(kernel) == drain(legacy)
        assert kernel.heap_pops == legacy.heap_pops
        assert io_tuple(accessor_a.statistics) == io_tuple(accessor_b.statistics)

    def test_settled_views_are_read_only(self):
        workload = self.build_workload(
            WorkloadSpec(num_nodes=60, num_facilities=15, num_cost_types=2, num_queries=1, seed=3)
        )
        accessor = InMemoryAccessor(workload.graph, workload.facilities)
        compiled = CompiledGraph.from_accessor(accessor)
        seeds = ExpansionSeeds.from_query(workload.graph, workload.queries[0])
        for expansion in (
            NearestFacilityExpansion(accessor, seeds, 0),
            self.make_kernel(make_kernel_data_layer(compiled, target=accessor), seeds, 0),
        ):
            expansion.next_facility()
            with pytest.raises(TypeError):
                expansion.settled_costs[0] = 0.0  # type: ignore[index]
            with pytest.raises(TypeError):
                expansion.reported_costs[0] = 0.0  # type: ignore[index]

    def test_searches_share_settled_key_objects(self):
        """Two runs of one search key their settled maps on the same objects.

        A harvested settled map holds its keys for the cache's lifetime, so
        keys boxed afresh per settle would cost one int object per node per
        query.  Node ids past the interpreter's small-int cache make the
        identity observable; the top-k search's shrinking stage settles
        through ``pop_step``.
        """
        workload = self.build_workload(
            WorkloadSpec(num_nodes=400, num_facilities=5, num_cost_types=2, num_queries=1, seed=13)
        )
        _legacy, fast = self.make_engines(workload, use_disk=False)
        query = workload.queries[0]
        shared = 0
        for make in (
            lambda: fast.skyline_search(query, algorithm="lsa"),
            lambda: fast.top_k_search(query, 3, weights=[0.5, 0.5], algorithm="cea"),
        ):
            first, second = make(), make()
            first.run()
            second.run()
            keys = {
                node: node for expansion in first.expansions for node in expansion.settled_costs
            }
            for expansion in second.expansions:
                for node in expansion.settled_costs:
                    if node > 256:
                        assert keys[node] is node
                        shared += 1
        assert shared > 0

    # ------------------------------------------------------------------ #
    # Full searches through the engine toggle
    # ------------------------------------------------------------------ #
    # One @given-decorated method is intentionally shared by every
    # implementation subclass, which hypothesis's differing-executors health
    # check would otherwise flag.
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.differing_executors],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        dims=st.integers(min_value=1, max_value=4),
        use_disk=st.booleans(),
        buffer_fraction=st.sampled_from([0.0, 0.01, 0.02]),
        algorithm=st.sampled_from(["lsa", "cea"]),
    )
    def test_query_results_and_counters_identical(
        self, seed, dims, use_disk, buffer_fraction, algorithm
    ):
        workload = self.build_workload(
            WorkloadSpec(
                num_nodes=90,
                num_facilities=25,
                num_cost_types=dims,
                num_queries=2,
                seed=seed,
            )
        )
        legacy, fast = self.make_engines(
            workload, use_disk=use_disk, buffer_fraction=buffer_fraction
        )
        weights = [1.0 / dims] * dims
        for query in workload.queries:
            self.reset(legacy), self.reset(fast)
            legacy_result = legacy.skyline(query, algorithm=algorithm)
            fast_result = fast.skyline(query, algorithm=algorithm)
            assert [(f.facility_id, f.costs) for f in fast_result] == [
                (f.facility_id, f.costs) for f in legacy_result
            ]
            assert fast_result.statistics.heap_pops == legacy_result.statistics.heap_pops
            assert fast_result.statistics.nn_retrievals == legacy_result.statistics.nn_retrievals
            assert io_tuple(fast_result.statistics.io) == io_tuple(legacy_result.statistics.io)
            self.reset(legacy), self.reset(fast)
            legacy_top = legacy.top_k(query, 3, weights=weights, algorithm=algorithm)
            fast_top = fast.top_k(query, 3, weights=weights, algorithm=algorithm)
            assert [(f.facility_id, f.score, f.costs) for f in fast_top] == [
                (f.facility_id, f.score, f.costs) for f in legacy_top
            ]
            assert fast_top.statistics.heap_pops == legacy_top.statistics.heap_pops
            assert io_tuple(fast_top.statistics.io) == io_tuple(legacy_top.statistics.io)

    def test_incremental_top_k_parity(self):
        workload = self.build_workload(
            WorkloadSpec(num_nodes=160, num_facilities=45, num_cost_types=3, num_queries=2, seed=9)
        )
        legacy, fast = self.make_engines(workload, use_disk=False)
        for query in workload.queries:
            legacy_stream = legacy.iter_top(query, weights=[0.5, 0.3, 0.2])
            fast_stream = fast.iter_top(query, weights=[0.5, 0.3, 0.2])
            legacy_items = legacy_stream.take(10)
            fast_items = fast_stream.take(10)
            assert [(i.facility_id, i.score) for i in fast_items] == [
                (i.facility_id, i.score) for i in legacy_items
            ]

    def test_batched_service_reports_identical(self):
        workload = self.build_workload(
            WorkloadSpec(num_nodes=200, num_facilities=70, num_cost_types=2, num_queries=12, seed=31)
        )
        legacy, fast = self.make_engines(workload, use_disk=True, page_size=1024)
        requests = []
        for index, query in enumerate(workload.queries):
            if index % 2 == 0:
                requests.append(SkylineRequest(query))
            else:
                requests.append(TopKRequest(query, k=3, weights=[0.6, 0.4]))
        legacy_report = QueryService(legacy).run_batch(requests)
        fast_report = QueryService(fast).run_batch(requests)
        for legacy_outcome, fast_outcome in zip(legacy_report.outcomes, fast_report.outcomes):
            assert fast_outcome.result.facility_ids() == legacy_outcome.result.facility_ids()
            assert io_tuple(fast_outcome.io) == io_tuple(legacy_outcome.io)
        assert io_tuple(fast_report.io) == io_tuple(legacy_report.io)
        # The cross-query cache sees the identical request stream, so every
        # hit/miss counter matches too.
        assert vars(fast_report.cache) == vars(legacy_report.cache)

    def test_monitor_ticks_identical(self):
        """After every tick each subscription holds the reference's answer.

        The monitor runs the kernel; the reference is a fresh
        ``compiled=False`` engine's CEA skyline over a copy of the
        post-tick facility set.
        """
        workload = self.build_workload(
            WorkloadSpec(num_nodes=150, num_facilities=45, num_cost_types=2, num_queries=4, seed=17)
        )
        stream = make_update_stream(
            workload.graph,
            workload.facilities,
            UpdateStreamSpec(num_ticks=6, updates_per_tick=4, seed=18),
        )
        facilities = FacilitySet(workload.graph, iter(workload.facilities))
        service = MonitoringService(workload.graph, facilities)
        queries = {service.subscribe(SkylineRequest(query)): query for query in workload.queries}
        for tick in stream:
            service.apply_tick(tick)
            reference = MCNQueryEngine(
                workload.graph,
                FacilitySet(workload.graph, iter(facilities)),
                compiled=False,
            )
            for subscription_id, query in queries.items():
                expected = reference.skyline(query, algorithm="cea")
                held = service.maintainer_of(subscription_id).skyline
                assert set(held) == expected.facility_ids()
                for member in expected:
                    if None not in member.costs:
                        assert held[member.facility_id] == member.costs
