"""Incremental top-k: report facilities one by one without knowing ``k``.

This implements the incremental variant of Section V.  There is no shrinking
stage and nothing is ever eliminated: invoked ``|P|`` times the iterator
enumerates the whole facility set in increasing aggregate-cost order.  A
facility ``p`` is safe to report when

1. it is pinned (its complete cost vector is known),
2. it has the smallest aggregate cost among pinned, unreported facilities, and
3. every candidate encountered before ``p`` was pinned has an aggregate-cost
   lower bound (unknown costs replaced by the expansion frontiers) no smaller
   than ``f(p)``.
"""

from __future__ import annotations

import time
from collections.abc import Iterator

from repro.core.aggregates import AggregateFunction
from repro.core.candidates import CandidateEntry, CandidatePool
from repro.core.expansion import ExpansionSeeds
from repro.core.kernel import make_expansions
from repro.core.results import QueryStatistics, RankedFacility
from repro.errors import QueryError
from repro.network.accessor import GraphAccessor
from repro.network.compiled import CompiledGraph
from repro.network.graph import MultiCostGraph
from repro.network.location import NetworkLocation

__all__ = ["IncrementalTopK"]


class IncrementalTopK(Iterator[RankedFacility]):
    """An iterator over facilities in increasing aggregate-cost order."""

    def __init__(
        self,
        accessor: GraphAccessor,
        graph: MultiCostGraph,
        query: NetworkLocation,
        aggregate: AggregateFunction,
        *,
        share_accesses: bool = True,
        compiled: CompiledGraph | None = None,
    ):
        if graph.num_cost_types != accessor.num_cost_types:
            raise QueryError("graph and accessor disagree on the number of cost types")
        self._aggregate = aggregate
        self._base_accessor = accessor
        io_before = accessor.statistics.snapshot()
        seeds = ExpansionSeeds.from_query(graph, query)
        _, self._expansions = make_expansions(
            accessor, seeds, compiled=compiled, fetch_once=share_accesses
        )
        self._pool = CandidatePool(accessor.num_cost_types)
        self._scores: dict[int, float] = {}
        self._reported: set[int] = set()
        self._statistics = QueryStatistics()
        # Seeding reads the query edge's facility list; the statistics
        # count that request before every retrieval's.
        self._statistics.io = accessor.statistics.since(io_before)

    @property
    def statistics(self) -> QueryStatistics:
        return self._statistics

    def __iter__(self) -> "IncrementalTopK":
        return self

    def __next__(self) -> RankedFacility:
        start = time.perf_counter()
        io_before = self._base_accessor.statistics.snapshot()
        try:
            result = self._advance_until_reportable()
        finally:
            self._statistics.elapsed_seconds += time.perf_counter() - start
            io_delta = self._base_accessor.statistics.since(io_before)
            self._statistics.io.adjacency_requests += io_delta.adjacency_requests
            self._statistics.io.facility_requests += io_delta.facility_requests
            self._statistics.io.facility_tree_requests += io_delta.facility_tree_requests
            self._statistics.io.page_reads += io_delta.page_reads
            self._statistics.io.buffer_hits += io_delta.buffer_hits
        return result

    def take(self, count: int) -> list[RankedFacility]:
        """Convenience: the next ``count`` facilities (fewer if the set is exhausted)."""
        results = []
        for _ in range(count):
            try:
                results.append(next(self))
            except StopIteration:
                break
        return results

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _advance_until_reportable(self) -> RankedFacility:
        while True:
            candidate = self._best_reportable()
            if candidate is not None:
                entry, score = candidate
                self._reported.add(entry.facility_id)
                return RankedFacility(entry.facility_id, entry.known_costs, score)
            if not self._advance_one_step():
                remaining = self._best_pinned_unreported()
                if remaining is not None:
                    entry, score = remaining
                    self._reported.add(entry.facility_id)
                    return RankedFacility(entry.facility_id, entry.known_costs, score)
                raise StopIteration

    def _advance_one_step(self) -> bool:
        """Probe the next expansion (round-robin); return False when all are exhausted."""
        active = [index for index, exp in enumerate(self._expansions) if not exp.exhausted]
        if not active:
            return False
        index = min(active, key=lambda i: (self._expansions[i].facilities_retrieved, i))
        hit = self._expansions[index].next_facility()
        if hit is None:
            return True
        self._statistics.nn_retrievals += 1
        entry = self._pool.observe(hit.facility_id, hit.cost_index, hit.cost, hit.record)
        if entry.is_pinned and entry.facility_id not in self._scores:
            self._statistics.facilities_pinned += 1
            self._scores[entry.facility_id] = self._aggregate(entry.known_costs)
        return True

    def _best_pinned_unreported(self) -> tuple[CandidateEntry, float] | None:
        best: tuple[CandidateEntry, float] | None = None
        for facility_id, score in self._scores.items():
            if facility_id in self._reported:
                continue
            entry = self._pool.entry(facility_id)
            if best is None or score < best[1] or (score == best[1] and facility_id < best[0].facility_id):
                best = (entry, score)
        return best

    def _best_reportable(self) -> tuple[CandidateEntry, float] | None:
        """The best pinned, unreported facility — if it is provably the next result.

        The paper's condition (iii) only involves candidates encountered
        before the facility was pinned; checking *every* unpinned candidate
        (as done here) is slightly more conservative but equally correct —
        candidates encountered later are dominated by the pinned facility and
        therefore cannot have a smaller aggregate cost, so at worst the
        report is delayed by a few extra expansion steps.
        """
        best = self._best_pinned_unreported()
        if best is None:
            return None
        entry, score = best
        frontiers = [expansion.head_key() for expansion in self._expansions]
        for other in self._pool.entries():
            if other.is_pinned or other.facility_id == entry.facility_id:
                continue
            bound_vector = [
                value if value is not None else frontiers[index]
                for index, value in enumerate(other.costs)
            ]
            if any(value == float("inf") for value in bound_vector):
                continue
            if self._aggregate(bound_vector) < score:
                return None
        return entry, score
