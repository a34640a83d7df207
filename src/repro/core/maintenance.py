"""Incremental maintenance of skyline and top-k results under facility updates.

Section VII of the paper lists, as future work, "incrementally updating the
skyline or top-k set in the presence of facility/query location updates".
This module implements that extension for the common update mix of
location-based services — frequent insertions and deletions of facilities,
occasional query relocation:

* **Insertion** is handled incrementally.  Node distances depend only on
  the graph and the query, never on the facility set, so each maintainer
  keeps its d expansions paused between insertions and resumes one only as
  far as an insertion needs.  The stopping rule is the bound the paper's
  own searches stop on: the facility is rejected as soon as a skyline
  member dominates its lower-bound vector (or, for a full top-k, the
  bound's aggregate scores worse than the k-th), and priced exactly only
  when it may enter.  The cached result is then patched.
* **Deletion of a facility outside the current result** is free: an excluded
  facility is always dominated by (respectively scored worse than) a result
  member, so removing it cannot change the result.
* **Deletion of a result member** (and query relocation) falls back to a
  fresh CEA computation — the cases the paper leaves open.  The maintainers
  count how often each path is taken so applications can see the saving.

Updates are *atomic*: an insertion validates its placement and its
reachability from the query **before** touching the
:class:`~repro.network.facilities.FacilitySet`, so a rejected update (bad
edge, bad offset, unreachable facility) leaves both the set and the
maintained result exactly as they were.

The continuous :class:`~repro.monitor.MonitoringService` layers many
maintainers over one *shared* facility set.  For that use the mutation is
split from the maintenance: the caller mutates the set once and notifies
every maintainer through :meth:`~SkylineMaintainer.note_insert` /
:meth:`~SkylineMaintainer.note_delete`, and the expensive fallback can be
deferred (``defer_recompute=True``) so one batched — optionally sharded —
CEA pass at the end of an update tick refreshes every stale maintainer via
:meth:`~SkylineMaintainer.refresh`.

Both maintainers evaluate against the in-memory accessor (the disk-resident
layout of Figure 2 is bulk-loaded and static; rebuilding it belongs to a
load pipeline, not to query maintenance), and run the
:class:`~repro.core.kernel.ExpansionKernel` on a
:class:`~repro.network.compiled.CompiledGraph`: the one passed as
``compiled`` (the monitoring service shares its engine's), or else one the
maintainer compiles itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregates import AggregateFunction
from repro.core.expansion import ExpansionSeeds
from repro.core.kernel import ExpansionKernel, KernelDataLayer, make_kernel_data_layer
from repro.core.results import SkylineResult, TopKResult
from repro.core.skyline import MCNSkylineSearch
from repro.core.topk import MCNTopKSearch
from repro.errors import FacilityError, QueryError
from repro.network.accessor import InMemoryAccessor
from repro.network.compiled import CompiledGraph
from repro.network.costs import dominates
from repro.network.facilities import Facility, FacilityId, FacilitySet
from repro.network.graph import MultiCostGraph
from repro.network.location import NetworkLocation

__all__ = ["MaintenanceStatistics", "SkylineMaintainer", "TopKMaintainer"]

_INF = float("inf")


@dataclass
class MaintenanceStatistics:
    """How often each maintenance path was taken."""

    insertions: int = 0
    deletions: int = 0
    incremental_updates: int = 0
    recomputations: int = 0
    query_moves: int = 0
    edge_cost_refreshes: int = 0

    def snapshot(self) -> "MaintenanceStatistics":
        """A copy of the current counters (used to diff before/after a tick)."""
        return MaintenanceStatistics(
            insertions=self.insertions,
            deletions=self.deletions,
            incremental_updates=self.incremental_updates,
            recomputations=self.recomputations,
            query_moves=self.query_moves,
            edge_cost_refreshes=self.edge_cost_refreshes,
        )

    def since(self, earlier: "MaintenanceStatistics") -> "MaintenanceStatistics":
        """The counter deltas accumulated since ``earlier`` was snapshotted."""
        return MaintenanceStatistics(
            insertions=self.insertions - earlier.insertions,
            deletions=self.deletions - earlier.deletions,
            incremental_updates=self.incremental_updates - earlier.incremental_updates,
            recomputations=self.recomputations - earlier.recomputations,
            query_moves=self.query_moves - earlier.query_moves,
            edge_cost_refreshes=self.edge_cost_refreshes - earlier.edge_cost_refreshes,
        )

    def accumulate(self, other: "MaintenanceStatistics") -> None:
        """Add ``other``'s counters into this one (summing across subscriptions)."""
        self.insertions += other.insertions
        self.deletions += other.deletions
        self.incremental_updates += other.incremental_updates
        self.recomputations += other.recomputations
        self.query_moves += other.query_moves
        self.edge_cost_refreshes += other.edge_cost_refreshes


def _unreachable(facility: Facility) -> QueryError:
    return QueryError(
        f"facility {facility.facility_id} is unreachable from the query location"
    )


class _QueryDistanceMaps:
    """The query's d expansions, paused between requests.

    Node-to-query network distances depend only on the graph and the query,
    never on the facility set.  So a maintainer keeps one expansion per cost
    type alive, created at the first request that needs it, and resumes it
    with ``pop_step`` only as far as a request needs:

    * :meth:`cost_vector` prices a facility exactly.  Cost type i resumes
      until the end nodes of the facility's edge are settled (only ``u`` on a
      directed graph), the head key is at least the best path found so far,
      or the heap is empty.  An unsettled node lies at least the head key
      away and float addition is monotone, so the vector holds the same
      doubles as a whole-graph expansion.
    * :meth:`bound` is one step of that: the exact value once exact pricing
      would stop, the head key (a lower bound) before.  The maintainers'
      pruned pricing resumes only until their result's bound decides.

    The pricing arithmetic is the expansion's own (settled end-node distance
    plus the pro-rated partial edge weight, the direct along-edge path for a
    facility on the query's own edge, forward traversal only on directed
    graphs).

    The expansions are :class:`~repro.core.kernel.ExpansionKernel`\\ s over
    the maintainer's :class:`~repro.network.compiled.CompiledGraph`.  They
    run in candidate mode with no candidates and share one ``fetch_once``
    charge layer, as CEA shares one within a query.  The layer outlives the
    facility updates of many ticks.  That is sound only because candidate
    mode with no candidates never reads an adjacency record's
    ``facility_count`` or an edge's facility list: the query-edge list a
    seed reads is discarded unread.  What the expansions do read,
    neighbours and edge costs, changes only with the query or the edge
    costs, and those replace this object.

    Reachability comes from the graph's component labels
    (:meth:`~repro.network.graph.MultiCostGraph.component_of`).  They read the
    topology the way :class:`ExpansionSeeds` and the pricing read
    ``graph.edge()``, so they are not charged as accessor requests.
    """

    def __init__(
        self,
        accessor: InMemoryAccessor,
        graph: MultiCostGraph,
        query: NetworkLocation,
        compiled: CompiledGraph,
    ):
        self._accessor = accessor
        self._graph = graph
        self._compiled = compiled
        self._seeds = ExpansionSeeds.from_query(graph, query)
        self._component = graph.component_of(self._seeds.anchors[0][0])
        self._shared: KernelDataLayer | None = None
        self._expansions: list[ExpansionKernel | None] = [None] * graph.num_cost_types

    def _expansion(self, cost_index: int) -> ExpansionKernel:
        expansion = self._expansions[cost_index]
        if expansion is not None:
            return expansion
        # No blanket ensure_fresh(): candidate mode never reads the facility
        # columns, so skipping the refresh keeps insertion pricing from
        # rebuilding them on every monitoring tick.  Arc columns *are*
        # cost-dependent, so a cost-revision drift alone forces the refresh.
        if self._compiled.costs_revision != self._graph.costs_revision:
            self._compiled.ensure_fresh()
        if self._shared is None:
            self._shared = make_kernel_data_layer(
                self._compiled, target=self._accessor, fetch_once=True
            )
        expansion = ExpansionKernel(self._shared, self._seeds, cost_index)
        expansion.enter_candidate_mode({})
        self._expansions[cost_index] = expansion
        return expansion

    def check_component(self, facility: Facility) -> None:
        """Raise :class:`QueryError` unless ``facility``'s edge has the query's label."""
        edge = self._graph.edge(facility.edge_id)
        if self._graph.component_of(edge.u) != self._component:
            raise _unreachable(facility)

    def check_reachable(self, facility: Facility) -> None:
        """Raise :class:`QueryError` if the query cannot reach ``facility``.

        A different component label refuses at once.  On an undirected graph
        the same label means reachable; on a directed graph it does not, so
        the facility is priced exactly, which raises when no path exists.
        """
        if self._graph.directed:
            self.cost_vector(facility)
        else:
            self.check_component(facility)

    def cost_vector(self, facility: Facility) -> tuple[float, ...]:
        """The d-dimensional cost vector of ``facility`` from the query."""
        self.check_component(facility)
        costs = []
        for cost_index in range(self._graph.num_cost_types):
            value, _exact = self.bound(facility, cost_index, exact=True)
            if value is None:
                raise _unreachable(facility)
            costs.append(value)
        return tuple(costs)

    def bound(
        self, facility: Facility, cost_index: int, *, exact: bool = False
    ) -> tuple[float | None, bool]:
        """Price ``facility`` under one cost type as far as its expansion got.

        Returns ``(value, True)`` once exact pricing would stop (``None``
        then means no path), else ``(head key, False)``: any path not yet
        found costs at least the head key.  With ``exact`` the expansion is
        resumed until the value is exact.
        """
        expansion = self._expansion(cost_index)
        edge = self._graph.edge(facility.edge_id)
        if edge.length > 0:
            fraction_u = facility.offset / edge.length
            fraction_v = (edge.length - facility.offset) / edge.length
        else:
            fraction_u = fraction_v = 0.0
        ends = ((edge.u, fraction_u),)
        if not self._graph.directed:
            ends += ((edge.v, fraction_v),)
        edge_cost = edge.costs.values[cost_index]
        direct = self._direct_cost(facility, cost_index)
        settled = expansion.settled_costs
        while True:
            best = direct
            complete = True
            for node, fraction in ends:
                distance = settled.get(node)
                if distance is None:
                    complete = False
                    continue
                candidate = distance + edge_cost * fraction
                if best is None or candidate < best:
                    best = candidate
            if complete:
                return best, True
            head = expansion.head_key()
            if head >= (_INF if best is None else best):
                return best, True
            if not exact:
                return head, False
            expansion.pop_step()

    def step(self, cost_index: int) -> None:
        """Resume one cost type's expansion by a single heap pop."""
        self._expansion(cost_index).pop_step()

    def _direct_cost(self, facility: Facility, cost_index: int) -> float | None:
        """The along-edge cost for a facility on the query's own edge, if any."""
        seeds = self._seeds
        if seeds.query_edge != facility.edge_id or seeds.query_edge_costs is None:
            return None
        if seeds.directed and facility.offset < seeds.query_offset:
            return None
        length = seeds.query_edge_length
        fraction = abs(facility.offset - seeds.query_offset) / length if length else 0.0
        return seeds.query_edge_costs[cost_index] * fraction


class _MaintainerBase:
    """State and update plumbing shared by the two maintainers."""

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        query: NetworkLocation,
        accessor: InMemoryAccessor | None = None,
        compiled: CompiledGraph | None = None,
    ):
        self._graph = graph
        self._facilities = facilities
        self._query = query
        if accessor is None:
            accessor = InMemoryAccessor(graph, facilities)
        elif accessor.graph is not graph:
            raise QueryError("the accessor was built over a different graph")
        if compiled is None:
            compiled = CompiledGraph(graph, facilities)
        elif compiled.graph is not graph:
            raise QueryError("the compiled graph was built over a different graph")
        elif compiled.facilities is not facilities:
            raise QueryError(
                "the compiled graph was built over a different facility set"
            )
        self._accessor = accessor
        self._compiled = compiled
        self._distances = _QueryDistanceMaps(accessor, graph, query, compiled)
        self._statistics = MaintenanceStatistics()
        self._stale = False

    def _search_compiled(self) -> CompiledGraph:
        """The compiled snapshot for a fallback search, refreshed."""
        return self._compiled.ensure_fresh()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def query(self) -> NetworkLocation:
        return self._query

    @property
    def statistics(self) -> MaintenanceStatistics:
        return self._statistics

    @property
    def stale(self) -> bool:
        """True when a deferred fallback is pending; call :meth:`refresh`."""
        return self._stale

    # ------------------------------------------------------------------ #
    # Updates (mutating flavour: the maintainer owns the facility set)
    # ------------------------------------------------------------------ #
    def cost_vector(self, facility: Facility) -> tuple[float, ...]:
        """The cost vector ``facility`` would have, without mutating anything.

        Validates the placement and reachability of a prospective insertion
        (id uniqueness is the set's concern, checked when the facility is
        actually added — so this also prices delete-then-reinsert chains);
        the returned tuple can be passed back to :meth:`insert` /
        :meth:`note_insert` so the work is not repeated.
        """
        self._facilities.validate_placement(facility)
        return self._distances.cost_vector(facility)

    def check_reachable(self, facility: Facility) -> None:
        """Raise :class:`QueryError` if the query cannot reach ``facility``.

        Prices nothing on an undirected graph, where the component labels
        decide.  On a directed graph a shared label proves nothing, so the
        facility is then priced exactly.
        """
        self._distances.check_reachable(facility)

    def insert(self, facility: Facility, *, costs: tuple[float, ...] | None = None) -> bool:
        """Insert a facility; return True when the result changed.

        The insertion is atomic: placement and reachability are validated
        *before* the facility set is touched, so a rejected insert leaves
        both the set and the result unchanged.  Without ``costs`` the
        facility is priced only as far as the result's bound needs.
        """
        if costs is None and not self._stale:
            self._facilities.validate_placement(facility)
            self.check_reachable(facility)
        self._facilities.add(facility)
        return self.note_insert(facility, costs=costs)

    def delete(self, facility_id: FacilityId, *, defer_recompute: bool = False) -> bool:
        """Delete a facility; return True when the result changed."""
        if facility_id not in self._facilities:
            raise FacilityError(f"unknown facility {facility_id}")
        self._facilities.remove(facility_id)
        return self.note_delete(facility_id, defer_recompute=defer_recompute)

    # ------------------------------------------------------------------ #
    # Updates (notification flavour: the caller already mutated the set)
    # ------------------------------------------------------------------ #
    def note_insert(self, facility: Facility, *, costs: tuple[float, ...] | None = None) -> bool:
        """Patch the result for a facility the caller already added to the set.

        Without ``costs`` the facility is priced only until the result's
        bound decides it.  An unreachable facility raises
        :class:`QueryError` or, since it can never enter the result, may be
        rejected by the bound first.

        While the maintainer is stale (a deferred fallback is pending) the
        patch is skipped — the pending :meth:`refresh` sees the final set
        anyway, so incremental work in between would be thrown away.
        """
        self._statistics.insertions += 1
        if self._stale:
            return False
        if costs is None:
            costs = self._price_insert(facility)
        self._statistics.incremental_updates += 1
        if costs is None:
            return False
        return self._patch_insert(facility.facility_id, costs)

    def note_delete(self, facility_id: FacilityId, *, defer_recompute: bool = False) -> bool:
        """Patch the result for a facility the caller already removed from the set.

        Deleting a non-member is free (the cheap path).  Deleting a result
        member either recomputes immediately or, with ``defer_recompute``,
        marks the maintainer :attr:`stale` so the caller can batch one
        :meth:`refresh` for a whole update tick.
        """
        self._statistics.deletions += 1
        if self._stale:
            # The pending refresh resolves the final result either way; only
            # report a change when the facility was actually dropped from the
            # (partial) cached result.
            return self._drop_member(facility_id)
        if not self._drop_member(facility_id):
            # An excluded facility is dominated by (scored no better than) a
            # result member, so its removal can never promote anything.
            self._statistics.incremental_updates += 1
            return False
        if defer_recompute:
            self._stale = True
        else:
            self._recompute()
        return True

    def move_query(self, query: NetworkLocation, *, defer_recompute: bool = False) -> None:
        """Relocate the query point (always a fallback recomputation)."""
        query.validate(self._graph)
        self._query = query
        self._distances = _QueryDistanceMaps(
            self._accessor, self._graph, query, self._compiled
        )
        self._statistics.query_moves += 1
        if defer_recompute:
            self._stale = True
        else:
            self._recompute()

    def note_edge_costs_changed(self, *, defer_recompute: bool = False) -> None:
        """React to edge cost-vector changes (always a fallback recomputation).

        The paused expansions (and their fetch-once cache) embed the edge
        costs they were expanded over, so any re-profiled edge invalidates
        them wholesale — there is no cheap incremental patch analogous to
        the facility cases.  They are dropped (nothing is expanded until the
        next read) and the result is recomputed, immediately or deferred
        like the other hooks.
        """
        self._distances = _QueryDistanceMaps(
            self._accessor, self._graph, self._query, self._compiled
        )
        self._statistics.edge_cost_refreshes += 1
        if defer_recompute:
            self._stale = True
        else:
            self._recompute()

    def refresh(self, result: SkylineResult | TopKResult | None = None) -> None:
        """Resolve a deferred fallback (or force a fresh computation).

        With ``result`` the maintainer installs an externally computed answer
        — this is how the monitoring service feeds one batched (optionally
        sharded) CEA pass back into many maintainers; the external pass still
        counts as a recomputation.  Without it the maintainer recomputes
        itself.
        """
        if result is None:
            self._recompute()
            return
        self._statistics.recomputations += 1
        self._install(result)
        self._stale = False

    def _price_insert(self, facility: Facility) -> tuple[float, ...] | None:
        """``facility``'s exact cost vector, or ``None`` once the bound rejects it.

        The bound holds, per cost type, the exact value once exact pricing
        would stop and the head key before.  Until every component is exact
        or the result rejects the bound, the undecided cost type with the
        smallest head key is resumed by one pop.  Checking after every pop
        is a choice of frequency, not a condition of correctness: every
        component only grows towards the exact value.
        """
        distances = self._distances
        if not self._bound_can_reject():
            return distances.cost_vector(facility)
        distances.check_component(facility)
        bound: list[float | None] = []
        open_types: list[int] = []
        for cost_index in range(self._graph.num_cost_types):
            value, exact = distances.bound(facility, cost_index)
            bound.append(value)
            if not exact:
                open_types.append(cost_index)
        while True:
            if None in bound:
                raise _unreachable(facility)
            if not open_types:
                return tuple(bound)
            if self._rejects(bound, facility.facility_id):
                return None
            cost_index = min(open_types, key=bound.__getitem__)
            distances.step(cost_index)
            bound[cost_index], exact = distances.bound(facility, cost_index)
            if exact:
                open_types.remove(cost_index)

    # ------------------------------------------------------------------ #
    # Hooks implemented by the concrete maintainers
    # ------------------------------------------------------------------ #
    def _patch_insert(self, facility_id: FacilityId, costs: tuple[float, ...]) -> bool:
        raise NotImplementedError

    def _bound_can_reject(self) -> bool:
        """Whether some bound could reject an insertion (else price exactly)."""
        raise NotImplementedError

    def _rejects(self, bound: list[float], facility_id: FacilityId) -> bool:
        """True when a facility whose costs are at least ``bound`` cannot enter."""
        raise NotImplementedError

    def _drop_member(self, facility_id: FacilityId) -> bool:
        """Remove ``facility_id`` from the result; True if it was a member."""
        raise NotImplementedError

    def _recompute(self) -> None:
        raise NotImplementedError

    def _install(self, result: SkylineResult | TopKResult) -> None:
        raise NotImplementedError

    def _guard_fresh(self) -> None:
        if self._stale:
            raise QueryError(
                "the maintained result is stale (a deferred fallback is pending); "
                "call refresh() before reading it"
            )


class SkylineMaintainer(_MaintainerBase):
    """Maintains ``sky(q)`` while facilities are inserted and deleted."""

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        query: NetworkLocation,
        *,
        accessor: InMemoryAccessor | None = None,
        compiled: CompiledGraph | None = None,
    ):
        super().__init__(graph, facilities, query, accessor, compiled)
        self._skyline: dict[FacilityId, tuple[float, ...]] = {}
        self._recompute()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def skyline(self) -> dict[FacilityId, tuple[float, ...]]:
        """The current skyline: facility id -> complete cost vector."""
        self._guard_fresh()
        return dict(self._skyline)

    def skyline_ids(self) -> set[FacilityId]:
        self._guard_fresh()
        return set(self._skyline)

    # ------------------------------------------------------------------ #
    # Maintenance hooks
    # ------------------------------------------------------------------ #
    def _patch_insert(self, facility_id: FacilityId, costs: tuple[float, ...]) -> bool:
        if any(dominates(existing, costs) for existing in self._skyline.values()):
            return False
        dominated = [
            fid for fid, existing in self._skyline.items() if dominates(costs, existing)
        ]
        for fid in dominated:
            del self._skyline[fid]
        self._skyline[facility_id] = costs
        return True

    def _bound_can_reject(self) -> bool:
        return bool(self._skyline)

    def _rejects(self, bound: list[float], facility_id: FacilityId) -> bool:
        return any(dominates(member, bound) for member in self._skyline.values())

    def _drop_member(self, facility_id: FacilityId) -> bool:
        if facility_id not in self._skyline:
            return False
        del self._skyline[facility_id]
        return True

    def _recompute(self) -> None:
        self._statistics.recomputations += 1
        search = MCNSkylineSearch(
            self._accessor,
            self._graph,
            self._query,
            share_accesses=True,
            compiled=self._search_compiled(),
        )
        self._install(search.run())

    def _install(self, result: SkylineResult) -> None:
        self._skyline = {}
        for member in result:
            if all(value is not None for value in member.costs):
                self._skyline[member.facility_id] = member.complete_costs
            else:
                facility = self._facilities.facility(member.facility_id)
                self._skyline[member.facility_id] = self._distances.cost_vector(facility)
        self._stale = False


class TopKMaintainer(_MaintainerBase):
    """Maintains ``top(q)`` (k best facilities) while facilities are inserted and deleted."""

    def __init__(
        self,
        graph: MultiCostGraph,
        facilities: FacilitySet,
        query: NetworkLocation,
        aggregate: AggregateFunction,
        k: int,
        *,
        accessor: InMemoryAccessor | None = None,
        compiled: CompiledGraph | None = None,
    ):
        if k < 1:
            raise QueryError("k must be a positive integer")
        super().__init__(graph, facilities, query, accessor, compiled)
        self._aggregate = aggregate
        self._k = k
        self._top: list[tuple[float, FacilityId, tuple[float, ...]]] = []
        self._recompute()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def k(self) -> int:
        return self._k

    @property
    def aggregate(self) -> AggregateFunction:
        """The aggregate function the ranking is maintained under."""
        return self._aggregate

    def ranking(self) -> list[tuple[FacilityId, float]]:
        """The current top-k as ``(facility id, aggregate cost)`` pairs, best first."""
        self._guard_fresh()
        return [(facility_id, score) for score, facility_id, _costs in self._top]

    def facility_ids(self) -> list[FacilityId]:
        self._guard_fresh()
        return [facility_id for _score, facility_id, _costs in self._top]

    # ------------------------------------------------------------------ #
    # Maintenance hooks
    # ------------------------------------------------------------------ #
    def _patch_insert(self, facility_id: FacilityId, costs: tuple[float, ...]) -> bool:
        score = self._aggregate(costs)
        entry = (score, facility_id, costs)
        if len(self._top) < self._k:
            self._top.append(entry)
            self._top.sort(key=lambda item: (item[0], item[1]))
            return True
        worst_score, worst_id, _ = self._top[-1]
        if (score, facility_id) < (worst_score, worst_id):
            self._top[-1] = entry
            self._top.sort(key=lambda item: (item[0], item[1]))
            return True
        return False

    def _bound_can_reject(self) -> bool:
        return len(self._top) >= self._k

    def _rejects(self, bound: list[float], facility_id: FacilityId) -> bool:
        # A monotone aggregate of the bound is at most the facility's score.
        worst_score, worst_id, _ = self._top[-1]
        return (self._aggregate(tuple(bound)), facility_id) > (worst_score, worst_id)

    def _drop_member(self, facility_id: FacilityId) -> bool:
        for index, (_score, member_id, _costs) in enumerate(self._top):
            if member_id == facility_id:
                del self._top[index]
                return True
        return False

    def _recompute(self) -> None:
        self._statistics.recomputations += 1
        result = MCNTopKSearch(
            self._accessor,
            self._graph,
            self._query,
            self._aggregate,
            self._k,
            share_accesses=True,
            compiled=self._search_compiled(),
        ).run()
        self._install(result)

    def _install(self, result: TopKResult) -> None:
        self._top = [
            (item.score, item.facility_id, item.costs) for item in result
        ]
        self._top.sort(key=lambda item: (item[0], item[1]))
        self._stale = False
