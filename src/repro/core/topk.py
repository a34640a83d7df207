"""MCN top-k processing (Section V, known ``k``).

The search reuses the growing/shrinking framework of the skyline algorithms:

* **Growing** — expansions are probed in round-robin order until ``k``
  facilities are pinned.  Every encountered facility is a candidate; every
  pinned facility enters the tentative top-k set.  Once ``k`` facilities are
  pinned, any facility not yet encountered is dominated by all of them and
  therefore cannot have a smaller aggregate cost under any increasingly
  monotone function.
* **Shrinking** — expansions advance one heap pop at a time (candidate-only
  mode, no new facilities are admitted).  A candidate that gets pinned
  replaces the current k-th best facility if its aggregate cost is smaller;
  candidates whose aggregate-cost *lower bound* (unknown costs replaced by
  the expansion frontiers ``t_i``) already reaches the k-th best score are
  eliminated without being pinned.

Like the skyline algorithms, the search runs over either independent
expansions (LSA flavour) or a shared fetch-once cache (CEA flavour).
"""

from __future__ import annotations

import time

from repro.core.aggregates import AggregateFunction
from repro.core.candidates import CandidateEntry, CandidatePool
from repro.core.expansion import ExpansionSeeds, NearestFacilityExpansion
from repro.core.kernel import make_expansions
from repro.core.results import QueryStatistics, RankedFacility, TopKResult
from repro.errors import QueryError
from repro.network.accessor import GraphAccessor
from repro.network.compiled import CompiledGraph
from repro.network.graph import MultiCostGraph
from repro.network.location import NetworkLocation

__all__ = ["MCNTopKSearch", "lsa_top_k", "cea_top_k"]


class MCNTopKSearch:
    """Top-k search over a multi-cost network for a known ``k``."""

    def __init__(
        self,
        accessor: GraphAccessor,
        graph: MultiCostGraph,
        query: NetworkLocation,
        aggregate: AggregateFunction,
        k: int,
        *,
        share_accesses: bool = False,
        data_layer: GraphAccessor | None = None,
        seeds: ExpansionSeeds | None = None,
        compiled: CompiledGraph | None = None,
    ):
        if k < 1:
            raise QueryError("k must be a positive integer")
        if graph.num_cost_types != accessor.num_cost_types:
            raise QueryError("graph and accessor disagree on the number of cost types")
        self._graph = graph
        self._query = query
        self._aggregate = aggregate
        self._k = k
        self._base_accessor = accessor
        # Taken before the expansions seed: seeding reads the query edge's
        # facility list, and run() reports that request too.
        self._io_before = accessor.statistics.snapshot()
        if seeds is None:
            seeds = ExpansionSeeds.from_query(graph, query)
        self._data_layer, self._expansions = make_expansions(
            accessor,
            seeds,
            compiled=compiled,
            data_layer=data_layer,
            fetch_once=share_accesses,
        )
        self._pool = CandidatePool(accessor.num_cost_types)
        self._statistics = QueryStatistics()
        # Tentative result: facility id -> RankedFacility.
        self._top: dict[int, RankedFacility] = {}

    @property
    def statistics(self) -> QueryStatistics:
        return self._statistics

    @property
    def expansions(self) -> tuple[NearestFacilityExpansion, ...]:
        """The per-cost-type expansions, exposing reusable state (settle costs)."""
        return tuple(self._expansions)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(self) -> TopKResult:
        """Execute the query and return the k facilities with smallest aggregate cost."""
        start = time.perf_counter()
        self._growing_stage()
        self._shrinking_stage()
        ranked = sorted(self._top.values(), key=lambda item: (item.score, item.facility_id))
        ranked = ranked[: self._k]
        self._statistics.elapsed_seconds = time.perf_counter() - start
        self._statistics.io = self._base_accessor.statistics.since(self._io_before)
        self._statistics.dominance_checks = self._pool.dominance_checks
        self._statistics.candidates_considered = len(self._pool)
        self._statistics.heap_pops = sum(exp.heap_pops for exp in self._expansions)
        return TopKResult(facilities=ranked, statistics=self._statistics)

    # ------------------------------------------------------------------ #
    # Growing
    # ------------------------------------------------------------------ #
    def _growing_stage(self) -> None:
        pinned = 0
        while pinned < self._k:
            index = self._next_round_robin_expansion()
            if index is None:
                break  # fewer than k facilities exist; everything reachable is pinned
            hit = self._expansions[index].next_facility()
            if hit is None:
                continue
            self._statistics.nn_retrievals += 1
            entry = self._pool.observe(hit.facility_id, hit.cost_index, hit.cost, hit.record)
            if entry.is_pinned and entry.facility_id not in self._top:
                self._statistics.facilities_pinned += 1
                self._admit(entry)
                pinned += 1

    def _next_round_robin_expansion(self) -> int | None:
        active = [index for index, exp in enumerate(self._expansions) if not exp.exhausted]
        if not active:
            return None
        return min(active, key=lambda i: (self._expansions[i].facilities_retrieved, i))

    # ------------------------------------------------------------------ #
    # Shrinking
    # ------------------------------------------------------------------ #
    def _shrinking_stage(self) -> None:
        candidates = self._pool.unpinned_tracked()
        for entry in candidates:
            entry_id = entry.facility_id
            self._data_layer.facility_edge(entry_id)
        candidate_edges = self._pool.candidate_edges(candidates)
        expansions = self._expansions
        for expansion in expansions:
            expansion.enter_candidate_mode(candidate_edges)
        dimensions = range(len(expansions))
        active = [not expansion.exhausted for expansion in expansions]
        aggregate = self._aggregate
        inf = float("inf")
        threshold = self._kth_score()
        # The pool cannot gain entries during shrinking (candidate mode only
        # re-reports facilities already tracked), and an open candidate
        # changes only on a hit or an elimination.  So the open list, which
        # dimensions it still misses and the k-th score are recomputed only
        # after one; every decision sees what a fresh scan would.
        open_candidates = candidates
        missing: list[bool] = []
        changed = True
        while open_candidates:
            if changed:
                missing = [
                    any(entry.costs[index] is None for entry in open_candidates)
                    for index in dimensions
                ]
                changed = False
            for index in dimensions:
                if active[index] and (expansions[index].exhausted or not missing[index]):
                    active[index] = False
            if not any(active):
                break
            for index in dimensions:
                if not active[index]:
                    continue
                expansion = expansions[index]
                hit = expansion.pop_step()
                if hit is None:
                    if expansion.exhausted:
                        active[index] = False
                    continue
                changed = True
                self._statistics.nn_retrievals += 1
                entry = self._pool.observe(hit.facility_id, hit.cost_index, hit.cost, hit.record)
                if entry.is_pinned and not entry.eliminated:
                    self._statistics.facilities_pinned += 1
                    self._admit(entry)
                    threshold = self._kth_score()
            if changed:
                open_candidates = [
                    entry
                    for entry in open_candidates
                    if not entry.eliminated and not entry.is_pinned
                ]
            if threshold == inf:
                continue
            # Lower-bound pruning: unknown costs are at least the frontiers.
            # An exhausted expansion (frontier inf) can never report the
            # candidate, so it is unreachable under that cost type and cannot
            # beat any pinned facility.
            frontiers = [expansion.head_key() for expansion in expansions]
            survivors = []
            for entry in open_candidates:
                bound = [
                    frontiers[index] if value is None else value
                    for index, value in enumerate(entry.costs)
                ]
                if inf in bound or aggregate(bound) >= threshold:
                    entry.eliminated = True
                else:
                    survivors.append(entry)
            if len(survivors) < len(open_candidates):
                open_candidates = survivors
                changed = True

    def _kth_score(self) -> float:
        if len(self._top) < self._k:
            return float("inf")
        return max(item.score for item in self._top.values())

    def _admit(self, entry: CandidateEntry) -> None:
        """Place a pinned facility into the tentative top-k, evicting the worst if full."""
        costs = entry.known_costs
        score = self._aggregate(costs)
        ranked = RankedFacility(entry.facility_id, costs, score)
        if len(self._top) < self._k:
            self._top[entry.facility_id] = ranked
            return
        worst_id = max(self._top, key=lambda fid: (self._top[fid].score, fid))
        if score < self._top[worst_id].score:
            evicted = self._top.pop(worst_id)
            self._pool.entry(evicted.facility_id).eliminated = True
            self._top[entry.facility_id] = ranked
        else:
            entry.eliminated = True


def lsa_top_k(
    accessor: GraphAccessor,
    graph: MultiCostGraph,
    query: NetworkLocation,
    aggregate: AggregateFunction,
    k: int,
) -> TopKResult:
    """Top-k query processed with independent expansions (LSA flavour)."""
    return MCNTopKSearch(accessor, graph, query, aggregate, k, share_accesses=False).run()


def cea_top_k(
    accessor: GraphAccessor,
    graph: MultiCostGraph,
    query: NetworkLocation,
    aggregate: AggregateFunction,
    k: int,
) -> TopKResult:
    """Top-k query processed with shared (fetch-once) expansions (CEA flavour)."""
    return MCNTopKSearch(accessor, graph, query, aggregate, k, share_accesses=True).run()
