"""Time-varying multi-cost networks: per-edge, per-cost-type profiles."""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.errors import GraphError
from repro.network.costs import CostVector
from repro.network.facilities import FacilitySet
from repro.network.graph import EdgeId, MultiCostGraph
from repro.timedep.profiles import ConstantProfile, CostProfile

__all__ = ["TimeVaryingMCN", "rebind_facilities"]


class TimeVaryingMCN:
    """A multi-cost network whose edge costs vary with time.

    The network is a static :class:`MultiCostGraph` (the *base* costs, e.g.
    free-flow travel times) plus, for any edge and cost type, an optional
    :class:`~repro.timedep.profiles.CostProfile` multiplier.  The key
    operation is :meth:`snapshot`, which materialises the ordinary static MCN
    valid at one time instant; all of the paper's (static) machinery then
    applies to the snapshot.
    """

    def __init__(
        self,
        base_graph: MultiCostGraph,
        profiles: Mapping[EdgeId, Sequence[CostProfile | None]] | None = None,
    ):
        self._base = base_graph
        self._profiles: dict[EdgeId, list[CostProfile]] = {}
        self._revision = 0
        default = ConstantProfile(1.0)
        for edge_id, edge_profiles in (profiles or {}).items():
            if not base_graph.has_edge(edge_id):
                raise GraphError(f"unknown edge {edge_id} in profile map")
            if len(edge_profiles) != base_graph.num_cost_types:
                raise GraphError(
                    f"edge {edge_id} needs {base_graph.num_cost_types} profiles, "
                    f"got {len(edge_profiles)}"
                )
            self._profiles[edge_id] = [
                profile if profile is not None else default for profile in edge_profiles
            ]

    @property
    def base_graph(self) -> MultiCostGraph:
        return self._base

    @property
    def num_cost_types(self) -> int:
        return self._base.num_cost_types

    @property
    def profiled_edges(self) -> tuple[EdgeId, ...]:
        """The edges carrying a profile: the only ones a snapshot re-costs."""
        return tuple(self._profiles)

    @property
    def revision(self) -> int:
        """A counter bumped by every :meth:`set_profile` call.

        A snapshot taken at an earlier revision was evaluated under other
        profiles, possibly over fewer profiled edges.
        """
        return self._revision

    def set_profile(self, edge_id: EdgeId, cost_index: int, profile: CostProfile) -> None:
        """Attach (or replace) the profile of one edge cost."""
        if not self._base.has_edge(edge_id):
            raise GraphError(f"unknown edge {edge_id}")
        if not 0 <= cost_index < self._base.num_cost_types:
            raise GraphError(f"cost index {cost_index} out of range")
        entry = self._profiles.setdefault(
            edge_id, [ConstantProfile(1.0)] * self._base.num_cost_types
        )
        entry = list(entry)
        entry[cost_index] = profile
        self._profiles[edge_id] = entry
        self._revision += 1

    def cost_at(self, edge_id: EdgeId, time: float) -> CostVector:
        """The cost vector of one edge at the given time instant."""
        edge = self._base.edge(edge_id)
        profiles = self._profiles.get(edge_id)
        if profiles is None:
            return edge.costs
        return CostVector(
            base * profile.value_at(time) for base, profile in zip(edge.costs, profiles)
        )

    def snapshot(self, time: float) -> MultiCostGraph:
        """The static MCN whose edge costs are the time-varying costs at ``time``.

        Only the profiled edges are re-costed; the snapshot shares the base
        graph's topology and refuses ``add_node``/``add_edge`` (see
        :meth:`MultiCostGraph.recosted`).
        """
        return self._base.recosted(
            {edge_id: self.cost_at(edge_id, time) for edge_id in self._profiles}
        )


def rebind_facilities(snapshot: MultiCostGraph, facilities: FacilitySet) -> FacilitySet:
    """Bind an existing facility placement to a snapshot of the same network.

    Snapshots preserve edge identifiers and lengths, so the placement carries
    over unchanged; only the owning graph object differs.  The result reuses
    the frozen facilities but owns its indexes, so it can be mutated without
    touching ``facilities``; each placement is still checked against
    ``snapshot`` (:class:`~repro.errors.FacilityError` if an edge is missing
    or too short).
    """
    return facilities._rebound(snapshot)
