"""Facilities (points of interest) located on the edges of an MCN.

Every facility lies on an edge at a given distance (``offset``) from the
edge's first end-node.  Its partial weight towards either end-node is
pro-rated by the offset, exactly as described in Section III of the paper.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Mapping

from repro.errors import FacilityError, GraphError
from repro.network.graph import EdgeId, MultiCostGraph

__all__ = ["Facility", "FacilitySet"]

FacilityId = int

# How many recent mutations a set remembers for incremental snapshot
# refreshes; a consumer further behind than this falls back to a full
# rebuild.  Bounds the log's memory on unbounded update streams.
_CHANGELOG_LIMIT = 1024


@dataclass(frozen=True)
class Facility:
    """A point of interest on an MCN edge.

    ``offset`` is the distance from the edge's first end-node (``edge.u``),
    matching the ``|v_i p_m|`` field of the facility file in Figure 2 of the
    paper.  ``attributes`` holds optional non-spatial data (capacity, owner,
    price...), which the preference queries never look at but applications may.
    """

    facility_id: FacilityId
    edge_id: EdgeId
    offset: float
    attributes: Mapping[str, object] = field(default_factory=dict)


class FacilitySet:
    """The facility set ``P``: all points of interest, indexed by edge.

    The set validates each facility against the graph it belongs to (the edge
    must exist and the offset must lie within the edge length).
    """

    def __init__(self, graph: MultiCostGraph, facilities: Iterable[Facility] = ()):
        self._graph = graph
        self._facilities: dict[FacilityId, Facility] = {}
        self._by_edge: dict[EdgeId, list[FacilityId]] = {}
        self._revision = 0
        self._log: deque[Facility] = deque(maxlen=_CHANGELOG_LIMIT)
        for facility in facilities:
            self.add(facility)

    @property
    def graph(self) -> MultiCostGraph:
        """The graph these facilities live on."""
        return self._graph

    @property
    def revision(self) -> int:
        """Monotone mutation counter (bumped by every :meth:`add` / :meth:`remove`).

        Snapshot consumers — the compiled-graph fast path — record the
        revision they were derived from and rebuild their facility columns
        when it moved, so a mutated set can never be queried through a stale
        snapshot.
        """
        return self._revision

    def changed_facilities_since(self, revision: int) -> list[Facility] | None:
        """The facilities touched by every mutation after ``revision``.

        Each :meth:`add` / :meth:`remove` logs the facility it touched
        (revisions advance by exactly one per mutation).  Returns the
        touched facilities in mutation order, or ``None`` when ``revision``
        is further behind than the bounded changelog reaches — the caller
        must then rebuild from scratch.  Used by
        :meth:`repro.network.compiled.CompiledGraph.ensure_fresh` to refresh
        only the edges a tick actually mutated.
        """
        if revision > self._revision:
            raise FacilityError(
                f"revision {revision} is ahead of the set's revision {self._revision}"
            )
        needed = self._revision - revision
        if needed == 0:
            return []
        if needed > len(self._log):
            return None
        return list(self._log)[-needed:]

    def validate_placement(self, facility: Facility) -> None:
        """Raise :class:`FacilityError` when the placement is invalid.

        Checks that the edge exists and the offset lies within the edge
        length, ignoring the facility id — callers that simulate their own
        view of which ids are live (tick validation in the monitoring
        service) combine this with their own uniqueness check.
        """
        try:
            edge = self._graph.edge(facility.edge_id)
        except GraphError as exc:
            raise FacilityError(str(exc)) from exc
        if not 0.0 <= facility.offset <= edge.length + 1e-12:
            raise FacilityError(
                f"facility {facility.facility_id} offset {facility.offset} outside edge "
                f"{facility.edge_id} of length {edge.length}"
            )

    def validate_new(self, facility: Facility) -> None:
        """Raise :class:`FacilityError` if ``facility`` could not be added.

        Checks id uniqueness and placement without mutating the set — the
        maintenance layer validates whole update batches up front so a
        rejected update never leaves the set half-applied.
        """
        if facility.facility_id in self._facilities:
            raise FacilityError(f"facility id {facility.facility_id} already exists")
        self.validate_placement(facility)

    def add(self, facility: Facility) -> None:
        """Add a facility, validating its placement."""
        self.validate_new(facility)
        self._facilities[facility.facility_id] = facility
        self._by_edge.setdefault(facility.edge_id, []).append(facility.facility_id)
        self._revision += 1
        self._log.append(facility)

    def add_on_edge(
        self,
        facility_id: FacilityId,
        edge_id: EdgeId,
        offset: float,
        attributes: Mapping[str, object] | None = None,
    ) -> Facility:
        """Convenience constructor + :meth:`add` in one call."""
        facility = Facility(facility_id, edge_id, float(offset), dict(attributes or {}))
        self.add(facility)
        return facility

    def remove(self, facility_id: FacilityId) -> Facility:
        """Remove a facility and return it.

        Used by the incremental-maintenance extension; raises
        :class:`FacilityError` when the facility does not exist.
        """
        facility = self.facility(facility_id)
        del self._facilities[facility_id]
        remaining = [fid for fid in self._by_edge[facility.edge_id] if fid != facility_id]
        if remaining:
            self._by_edge[facility.edge_id] = remaining
        else:
            del self._by_edge[facility.edge_id]
        self._revision += 1
        self._log.append(facility)
        return facility

    def _rebound(self, graph: MultiCostGraph) -> "FacilitySet":
        """The body of :func:`repro.timedep.rebind_facilities`.

        The copy starts at revision 0 with an empty changelog.
        """
        rebound = FacilitySet(graph)
        for facility in self._facilities.values():
            rebound.validate_placement(facility)
        rebound._facilities = dict(self._facilities)
        rebound._by_edge = {edge_id: list(ids) for edge_id, ids in self._by_edge.items()}
        return rebound

    def __len__(self) -> int:
        return len(self._facilities)

    def __iter__(self) -> Iterator[Facility]:
        return iter(self._facilities.values())

    def __contains__(self, facility_id: FacilityId) -> bool:
        return facility_id in self._facilities

    def facility(self, facility_id: FacilityId) -> Facility:
        try:
            return self._facilities[facility_id]
        except KeyError:
            raise FacilityError(f"unknown facility {facility_id}") from None

    def facility_ids(self) -> Iterator[FacilityId]:
        return iter(self._facilities.keys())

    def on_edge(self, edge_id: EdgeId) -> list[Facility]:
        """Facilities lying on the given edge, in insertion order."""
        return [self._facilities[fid] for fid in self._by_edge.get(edge_id, [])]

    def edge_of(self, facility_id: FacilityId) -> EdgeId:
        """The edge a facility lies on (the lookup served by the facility tree)."""
        return self.facility(facility_id).edge_id

    def edges_with_facilities(self) -> Iterator[EdgeId]:
        """Edges that host at least one facility."""
        return iter(self._by_edge.keys())

    def density(self) -> float:
        """Average number of facilities per edge (a sparsity measure used in reporting)."""
        if self._graph.num_edges == 0:
            return 0.0
        return len(self._facilities) / self._graph.num_edges
