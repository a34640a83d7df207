"""MCN skyline processing: the Local Search Algorithm and Combined Expansion Algorithm.

Both algorithms follow the growing/shrinking framework of Section IV:

* **Growing** — one incremental nearest-facility expansion per cost type is
  probed in round-robin order; every facility encountered becomes a
  candidate.  Growing ends when the first facility is *pinned* (reported by
  all ``d`` expansions), at which point every possible skyline member has
  already been encountered.
* **Shrinking** — expansions keep running but ignore newly encountered
  facilities; candidates are either pinned (and reported as skyline members)
  or eliminated by dominance.  The stage ends when the candidate set empties.

LSA and CEA share this control flow; they differ only in how expansions hit
the data layer.  LSA lets every expansion read the accessor independently
(the same node's adjacency may be fetched up to ``d`` times), while CEA
routes all expansions through a fetch-once cache so each node/edge is read
from disk at most once — the information-sharing idea of Section IV-B.

Both algorithms are *progressive*: iterate over :class:`MCNSkylineSearch` to
receive skyline facilities as soon as they are confirmed.
"""

from __future__ import annotations

import time
from enum import Enum
from collections.abc import Iterator

from repro.core.candidates import CandidateEntry, CandidatePool
from repro.core.expansion import ExpansionSeeds, NearestFacilityExpansion
from repro.core.kernel import make_expansions
from repro.core.results import QueryStatistics, SkylineFacility, SkylineResult
from repro.errors import QueryError
from repro.network.accessor import GraphAccessor
from repro.network.compiled import CompiledGraph
from repro.network.graph import MultiCostGraph
from repro.network.location import NetworkLocation

__all__ = [
    "ProbingPolicy",
    "MCNSkylineSearch",
    "lsa_skyline",
    "cea_skyline",
]


class ProbingPolicy(Enum):
    """How the next expansion to probe is chosen.

    The paper argues for round-robin (no cost type is favoured, so a facility
    is pinned early); the other two policies are provided for the ablation
    discussed around Figure 4.
    """

    ROUND_ROBIN = "round-robin"
    SMALLEST_FIRST = "smallest-first"
    LARGEST_FIRST = "largest-first"


class _Stage(Enum):
    GROWING = "growing"
    SHRINKING = "shrinking"


class MCNSkylineSearch:
    """Progressive skyline search over a multi-cost network.

    Parameters
    ----------
    accessor:
        Data layer (in-memory accessor or disk-resident storage).
    graph:
        The multi-cost graph the query location refers to (used only to seed
        the expansions with the query's edge / partial weights).
    query:
        The query location ``q``.
    share_accesses:
        ``False`` → LSA behaviour (independent expansions);
        ``True`` → CEA behaviour (fetch-once information sharing).
    first_nn_shortcut:
        Report the first nearest facility of every cost type immediately
        (they can never be dominated) — the enhancement of Section IV-A.
    probing:
        Expansion probing policy; round-robin is the paper's choice.
    data_layer:
        Optional accessor the expansions read through *instead of* the
        per-query choice implied by ``share_accesses``.  The batch service
        injects its cross-query :class:`~repro.service.CrossQueryExpansionCache`
        here so that fetched records survive from one query to the next;
        ``accessor`` remains the base data layer whose I/O counters are
        diffed for the query statistics.
    seeds:
        Optional precomputed :class:`~repro.core.expansion.ExpansionSeeds`
        for ``query`` (memoised by the service); computed on the fly when
        omitted.
    compiled:
        Optional :class:`~repro.network.compiled.CompiledGraph` snapshot.
        When given, the search runs its expansions on the columnar
        :class:`~repro.core.kernel.ExpansionKernel` fast path instead of the
        record-walking expansion — results and all I/O accounting are
        bit-identical, only wall-clock changes.
    """

    def __init__(
        self,
        accessor: GraphAccessor,
        graph: MultiCostGraph,
        query: NetworkLocation,
        *,
        share_accesses: bool = False,
        first_nn_shortcut: bool = True,
        probing: ProbingPolicy = ProbingPolicy.ROUND_ROBIN,
        data_layer: GraphAccessor | None = None,
        seeds: ExpansionSeeds | None = None,
        compiled: CompiledGraph | None = None,
    ):
        if graph.num_cost_types != accessor.num_cost_types:
            raise QueryError("graph and accessor disagree on the number of cost types")
        self._graph = graph
        self._query = query
        self._probing = probing
        self._first_nn_shortcut = first_nn_shortcut
        self._share_accesses = share_accesses
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
        self._stage = _Stage.GROWING
        self._active = [True] * accessor.num_cost_types
        self._saw_first_nn = [False] * accessor.num_cost_types
        self._statistics = QueryStatistics()
        self._finished = False
        self._reported: list[SkylineFacility] = []
        # Pinned entries whose reporting is deferred because an unpinned
        # candidate with (partially tied) smaller known costs might still
        # dominate them.  Empty whenever cost ties are absent.
        self._deferred: list[CandidateEntry] = []
        # All pinned entries, in pin order (used by the growing-stage exit test).
        self._pinned_entries: list[CandidateEntry] = []

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def statistics(self) -> QueryStatistics:
        return self._statistics

    @property
    def stage(self) -> str:
        """The current stage name ("growing" or "shrinking")."""
        return self._stage.value

    @property
    def expansions(self) -> tuple[NearestFacilityExpansion, ...]:
        """The per-cost-type expansions, exposing reusable state (settle costs)."""
        return tuple(self._expansions)

    def run(self) -> SkylineResult:
        """Execute the search to completion and return the full skyline."""
        start = time.perf_counter()
        facilities = list(self._progressive())
        self._statistics.elapsed_seconds = time.perf_counter() - start
        self._statistics.io = self._base_accessor.statistics.since(self._io_before)
        self._statistics.dominance_checks = self._pool.dominance_checks
        self._statistics.candidates_considered = len(self._pool)
        self._statistics.heap_pops = sum(exp.heap_pops for exp in self._expansions)
        return SkylineResult(facilities=facilities, statistics=self._statistics)

    def __iter__(self) -> Iterator[SkylineFacility]:
        """Progressively yield skyline facilities as soon as they are confirmed."""
        return self._progressive()

    # ------------------------------------------------------------------ #
    # Control flow
    # ------------------------------------------------------------------ #
    def _progressive(self) -> Iterator[SkylineFacility]:
        if self._finished:
            yield from self._reported
            return
        while not self._finished:
            index = self._choose_expansion()
            if index is None:
                # Every expansion is exhausted or deactivated: whatever is
                # still unresolved can never be pinned, which (on a connected
                # network) only happens when there are no facilities at all.
                self._finished = True
                break
            yield from self._probe(index)
            if self._stage is _Stage.SHRINKING and self._pool.unresolved_count() == 0:
                self._finished = True
        yield from self._finalize_deferred()
        return

    def _choose_expansion(self) -> int | None:
        candidates = [
            index
            for index, expansion in enumerate(self._expansions)
            if self._active[index] and not expansion.exhausted
        ]
        if not candidates:
            return None
        if self._probing is ProbingPolicy.ROUND_ROBIN:
            # Probe the active expansion that has retrieved the fewest NNs so
            # far; with all expansions active this cycles 1..d like the paper.
            return min(candidates, key=lambda i: (self._expansions[i].facilities_retrieved, i))
        keys = {i: self._expansions[i].head_key() for i in candidates}
        if self._probing is ProbingPolicy.SMALLEST_FIRST:
            return min(candidates, key=lambda i: (keys[i], i))
        return max(candidates, key=lambda i: (keys[i], -i))

    def _probe(self, index: int) -> Iterator[SkylineFacility]:
        expansion = self._expansions[index]
        while True:
            hit = expansion.next_facility()
            if hit is None:
                self._active[index] = False
                return
            self._statistics.nn_retrievals += 1
            entry = self._pool.entry(hit.facility_id) if hit.facility_id in self._pool else None
            if entry is not None and entry.eliminated:
                # An eliminated candidate surfaced in another expansion's heap;
                # record nothing and keep probing for a useful NN.
                continue
            entry = self._pool.observe(hit.facility_id, hit.cost_index, hit.cost, hit.record)
            yield from self._after_observation(entry, index)
            return

    def _after_observation(self, entry: CandidateEntry, index: int) -> Iterator[SkylineFacility]:
        if (
            self._stage is _Stage.GROWING
            and self._first_nn_shortcut
            and not self._saw_first_nn[index]
        ):
            self._saw_first_nn[index] = True
            cost = entry.costs[index]
            # The first NN of a cost type cannot be dominated (nothing is
            # cheaper under that cost).  With exact ties another facility at
            # the very same distance could dominate it, so the shortcut is
            # only taken when the expansion frontier has strictly passed it.
            if not entry.reported and self._expansions[index].head_key() > cost:
                entry.reported = True
                yield self._emit(entry)
        if entry.is_pinned:
            yield from self._handle_pinned(entry)
        yield from self._flush_deferred()
        if self._stage is _Stage.GROWING:
            self._maybe_enter_shrinking()
        if self._stage is _Stage.SHRINKING:
            self._deactivate_finished_expansions()

    def _maybe_enter_shrinking(self) -> None:
        """End the growing stage once it is safe to stop admitting new candidates.

        The paper ends growing at the first pinned facility.  With exact cost
        ties a facility whose vector ties the pinned one in *every* dimension
        might not have been encountered yet, so we additionally wait until
        every expansion frontier has strictly passed the costs of some pinned
        facility — at that point any facility never encountered is strictly
        more expensive in all dimensions and therefore dominated.  Without
        ties this condition holds at the very next heap pop, so the behaviour
        matches the paper.
        """
        frontiers = self._frontiers()
        for entry in self._pinned_entries:
            costs = entry.known_costs
            if all(frontier > cost for frontier, cost in zip(frontiers, costs)):
                self._enter_shrinking()
                return

    def _handle_pinned(self, entry: CandidateEntry) -> Iterator[SkylineFacility]:
        self._statistics.facilities_pinned += 1
        self._pinned_entries.append(entry)
        if not entry.reported:
            if self._pool.dominated_by_reported(entry):
                entry.eliminated = True
            elif self._pool.potential_dominators(entry, self._frontiers()):
                self._deferred.append(entry)
            else:
                entry.reported = True
                yield self._emit(entry)
        if entry.reported:
            self._pool.eliminate_dominated(entry)

    def _frontiers(self) -> list[float]:
        return [expansion.head_key() for expansion in self._expansions]

    def _flush_deferred(self) -> Iterator[SkylineFacility]:
        """Retry deferred pinned entries until no further progress is possible."""
        progressed = True
        while progressed and self._deferred:
            progressed = False
            still_deferred: list[CandidateEntry] = []
            frontiers = self._frontiers()
            for entry in self._deferred:
                if entry.eliminated:
                    progressed = True
                    continue
                if self._pool.dominated_by_reported(entry):
                    entry.eliminated = True
                    progressed = True
                    continue
                if self._pool.potential_dominators(entry, frontiers):
                    still_deferred.append(entry)
                    continue
                entry.reported = True
                yield self._emit(entry)
                self._pool.eliminate_dominated(entry)
                progressed = True
            self._deferred = still_deferred

    def _finalize_deferred(self) -> Iterator[SkylineFacility]:
        """Resolve any entries still deferred when the expansions ran dry.

        Once no expansion can advance, every reachable facility's costs are
        final, so a deferred entry is either dominated by a pinned facility
        (eliminate it) or a genuine skyline member (report it).
        """
        yield from self._flush_deferred()
        for entry in self._deferred:
            if entry.eliminated or entry.reported:
                continue
            if self._pool.dominated_by_reported(entry):
                entry.eliminated = True
            else:
                entry.reported = True
                yield self._emit(entry)
        self._deferred = []

    def _enter_shrinking(self) -> None:
        self._stage = _Stage.SHRINKING
        tracked = self._pool.unpinned_tracked()
        # Probe the facility tree once per tracked facility to learn its edge
        # (the paper's shrinking-stage preparation), then switch every
        # expansion to candidate-only mode so facility pages of other edges
        # are no longer read.
        for entry in tracked:
            self._data_layer.facility_edge(entry.facility_id)
        candidate_edges = self._pool.candidate_edges(tracked)
        for expansion in self._expansions:
            expansion.enter_candidate_mode(candidate_edges)
        self._deactivate_finished_expansions()

    def _deactivate_finished_expansions(self) -> None:
        needed = self._deferred_dominator_dims()
        for index, expansion in enumerate(self._expansions):
            if index in needed:
                # A dimension required to resolve a deferred entry must keep
                # (or resume) expanding even if every unresolved entry has it.
                if not expansion.exhausted:
                    self._active[index] = True
                continue
            if self._active[index] and not self._pool.any_unresolved_missing_cost(index):
                self._active[index] = False

    def _deferred_dominator_dims(self) -> set[int]:
        """Cost dimensions still unknown for potential dominators of deferred entries.

        A deferred pinned entry waits on unpinned candidates that might still
        dominate it.  Such a candidate can be *reported* already (via the
        first-NN shortcut) and therefore invisible to
        ``any_unresolved_missing_cost`` — but its missing costs must still be
        expanded, or the deferred entry can never be resolved exactly and
        would be mis-reported at finalisation.  Only exact cost ties ever
        populate ``_deferred``, so this is empty (and free) otherwise.
        """
        pending = [e for e in self._deferred if not e.eliminated and not e.reported]
        if not pending:
            return set()
        frontiers = self._frontiers()
        needed: set[int] = set()
        for entry in pending:
            for dominator in self._pool.potential_dominators(entry, frontiers):
                needed.update(dominator.missing_indices())
        return needed

    def _emit(self, entry: CandidateEntry) -> SkylineFacility:
        facility = SkylineFacility(
            facility_id=entry.facility_id,
            costs=entry.cost_tuple(),
            pinned=entry.is_pinned,
        )
        self._reported.append(facility)
        return facility


def lsa_skyline(
    accessor: GraphAccessor,
    graph: MultiCostGraph,
    query: NetworkLocation,
    *,
    first_nn_shortcut: bool = True,
    probing: ProbingPolicy = ProbingPolicy.ROUND_ROBIN,
) -> SkylineResult:
    """Compute the MCN skyline with the Local Search Algorithm (Section IV-A)."""
    search = MCNSkylineSearch(
        accessor,
        graph,
        query,
        share_accesses=False,
        first_nn_shortcut=first_nn_shortcut,
        probing=probing,
    )
    return search.run()


def cea_skyline(
    accessor: GraphAccessor,
    graph: MultiCostGraph,
    query: NetworkLocation,
    *,
    first_nn_shortcut: bool = True,
    probing: ProbingPolicy = ProbingPolicy.ROUND_ROBIN,
) -> SkylineResult:
    """Compute the MCN skyline with the Combined Expansion Algorithm (Section IV-B)."""
    search = MCNSkylineSearch(
        accessor,
        graph,
        query,
        share_accesses=True,
        first_nn_shortcut=first_nn_shortcut,
        probing=probing,
    )
    return search.run()
