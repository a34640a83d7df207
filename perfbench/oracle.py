"""An independent oracle: stdlib Dijkstra, brute-force skyline and top-k.

Nothing here imports the program.  The oracle reads a plain-data copy of
the network (:class:`Network`: edges with their cost vectors and lengths,
facilities with their edge and offset) and recomputes every answer from
scratch:

* one multi-source Dijkstra per cost type from the query location -- a
  location on an edge seeds both end-nodes with pro-rated partial costs;
* every facility's cost vector -- a facility on an edge is reached through
  either end-node plus the pro-rated part of the edge, or directly along
  the query's own edge;
* the skyline by pairwise dominance, the top-k by sorting weighted sums.

The checks compare the program's answer with these vectors under a small
relative tolerance, so they never depend on which of two tied facilities
the program happened to report.  The same module holds the property checks
every answer must pass on its own (skyline members mutually
non-dominating; top-k of the right length with non-decreasing scores).
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field

__all__ = [
    "Location",
    "Network",
    "check_skyline",
    "check_topk",
    "facility_costs",
    "skyline_ids",
    "skyline_properties",
    "topk_properties",
    "weighted_score",
]

INF = math.inf
#: Relative tolerance of every cost and score comparison.
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Location:
    """A query location: a node, or a point ``offset`` along an edge."""

    node: int | None = None
    edge: int | None = None
    offset: float = 0.0


@dataclass
class Network:
    """Plain-data copy of an undirected multi-cost network and its facilities.

    ``edges`` maps edge id -> ``(u, v, costs, length)`` where offsets along
    the edge are measured from ``u``; ``facilities`` maps facility id ->
    ``(edge id, offset)``.
    """

    num_costs: int
    edges: dict[int, tuple[int, int, tuple[float, ...], float]]
    facilities: dict[int, tuple[int, float]]
    _adjacency: dict[int, list[tuple[int, int]]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        adjacency: dict[int, list[tuple[int, int]]] = {}
        for edge_id, (u, v, _costs, _length) in self.edges.items():
            adjacency.setdefault(u, []).append((v, edge_id))
            adjacency.setdefault(v, []).append((u, edge_id))
        self._adjacency = adjacency

    @functools.cached_property
    def node_ids(self) -> list[int]:
        return sorted(self._adjacency)

    @functools.cached_property
    def edge_ids(self) -> list[int]:
        return sorted(self.edges)

    def with_state(
        self,
        *,
        facilities: dict[int, tuple[int, float]] | None = None,
        edge_costs: dict[int, tuple[float, ...]] | None = None,
    ) -> "Network":
        """The same topology with another facility set and/or edge costs."""
        edges = self.edges
        if edge_costs is not None:
            edges = {
                edge_id: (u, v, edge_costs.get(edge_id, costs), length)
                for edge_id, (u, v, costs, length) in self.edges.items()
            }
        return Network(
            self.num_costs,
            edges,
            dict(self.facilities if facilities is None else facilities),
        )

    def component_of(self) -> dict[int, int]:
        """Connected-component label of every node."""
        label: dict[int, int] = {}
        for start in self._adjacency:
            if start in label:
                continue
            label[start] = start
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbour, _edge in self._adjacency[node]:
                    if neighbour not in label:
                        label[neighbour] = start
                        stack.append(neighbour)
        return label

    def reachable_facilities(
        self,
        location: Location,
        components: dict[int, int],
        facilities: dict[int, tuple[int, float]] | None = None,
    ) -> int:
        """How many facilities (default: this network's) lie in the location's component."""
        anchor = location.node if location.node is not None else self.edges[location.edge][0]
        target = components[anchor]
        placed = self.facilities if facilities is None else facilities
        return sum(
            1 for edge_id, _offset in placed.values() if components[self.edges[edge_id][0]] == target
        )

    # ------------------------------------------------------------------ #
    def _seeds(self, location: Location, cost_index: int) -> list[tuple[float, int]]:
        if location.node is not None:
            return [(0.0, location.node)]
        u, v, costs, length = self.edges[location.edge]
        cost = costs[cost_index]
        if length == 0:
            return [(0.0, u), (0.0, v)]
        return [
            (cost * (location.offset / length), u),
            (cost * ((length - location.offset) / length), v),
        ]

    def distances(self, location: Location, cost_index: int) -> dict[int, float]:
        """Shortest-path cost from ``location`` to every reachable node."""
        best: dict[int, float] = {}
        heap = self._seeds(location, cost_index)
        heapq.heapify(heap)
        settled: dict[int, float] = {}
        for d, node in heap:
            if d < best.get(node, INF):
                best[node] = d
        while heap:
            d, node = heapq.heappop(heap)
            if node in settled:
                continue
            settled[node] = d
            for neighbour, edge_id in self._adjacency.get(node, ()):
                if neighbour in settled:
                    continue
                candidate = d + self.edges[edge_id][2][cost_index]
                if candidate < best.get(neighbour, INF):
                    best[neighbour] = candidate
                    heapq.heappush(heap, (candidate, neighbour))
        return settled


def facility_costs(network: Network, location: Location) -> dict[int, tuple[float, ...]]:
    """Every facility's cost vector from ``location`` (``inf`` if unreachable)."""
    per_cost = [network.distances(location, index) for index in range(network.num_costs)]
    vectors: dict[int, tuple[float, ...]] = {}
    for facility_id, (edge_id, offset) in network.facilities.items():
        u, v, costs, length = network.edges[edge_id]
        vector = []
        for index, settled in enumerate(per_cost):
            cost = costs[index]
            if length > 0:
                via_u = settled.get(u, INF) + cost * (offset / length)
                via_v = settled.get(v, INF) + cost * ((length - offset) / length)
            else:
                via_u = settled.get(u, INF)
                via_v = settled.get(v, INF)
            value = min(via_u, via_v)
            if location.edge == edge_id:
                direct = cost * (abs(offset - location.offset) / length) if length else 0.0
                value = min(value, direct)
            vector.append(value)
        vectors[facility_id] = tuple(vector)
    return vectors


def _dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def _clearly_dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    """``a`` dominates ``b`` by more than the tolerance in some component."""
    return all(x <= y or _close(x, y) for x, y in zip(a, b)) and any(
        x < y and not _close(x, y) for x, y in zip(a, b)
    )


def _weakly_dominates(a: tuple[float, ...], b: tuple[float, ...]) -> bool:
    return all(x <= y or _close(x, y) for x, y in zip(a, b))


def skyline_ids(vectors: dict[int, tuple[float, ...]]) -> set[int]:
    """The exact skyline of the reachable facilities (brute force)."""
    finite = {fid: vec for fid, vec in vectors.items() if all(x < INF for x in vec)}
    return {
        fid
        for fid, vec in finite.items()
        if not any(_dominates(other, vec) for ofid, other in finite.items() if ofid != fid)
    }


def weighted_score(weights: tuple[float, ...], costs: tuple[float, ...]) -> float:
    """The weighted-sum aggregate of one cost vector."""
    return sum(w * c for w, c in zip(weights, costs))


def check_skyline(
    members: dict[int, tuple[float | None, ...]],
    vectors: dict[int, tuple[float, ...]],
) -> list[str]:
    """Problems with a skyline answer, judged against the oracle's vectors.

    ``members`` maps each reported facility to the costs the program
    reported (``None`` for components it never computed).  Every member
    must be reachable, carry its true costs, and not be clearly dominated;
    every reachable non-member must be weakly dominated by some facility.
    """
    problems: list[str] = []
    finite = {fid: vec for fid, vec in vectors.items() if all(x < INF for x in vec)}
    for fid, reported in members.items():
        truth = finite.get(fid)
        if truth is None:
            problems.append(f"skyline member {fid} is not a reachable live facility")
            continue
        for index, value in enumerate(reported):
            if value is not None and not _close(value, truth[index]):
                problems.append(
                    f"skyline member {fid} cost[{index}] = {value!r}, oracle {truth[index]!r}"
                )
        for ofid, other in finite.items():
            if ofid != fid and _clearly_dominates(other, truth):
                problems.append(f"skyline member {fid} is dominated by facility {ofid}")
                break
    member_vectors = [finite[fid] for fid in members if fid in finite]
    for fid, vec in finite.items():
        if fid in members:
            continue
        if any(_weakly_dominates(other, vec) for other in member_vectors):
            continue
        if not any(
            _weakly_dominates(other, vec) for ofid, other in finite.items() if ofid != fid
        ):
            problems.append(f"facility {fid} belongs to the skyline but was not reported")
    return problems


def check_topk(
    ranking: list[tuple[int, float]],
    vectors: dict[int, tuple[float, ...]],
    weights: tuple[float, ...],
    k: int,
) -> list[str]:
    """Problems with a top-k answer, judged against the oracle's vectors.

    The reported scores must be the true scores of the reported facilities
    and, position by position, the k smallest true scores -- which facility
    wins a tie does not matter.
    """
    problems: list[str] = []
    scores = {
        fid: weighted_score(weights, vec)
        for fid, vec in vectors.items()
        if all(x < INF for x in vec)
    }
    expected = sorted(scores.values())[:k]
    if len(ranking) != len(expected):
        problems.append(f"top-k returned {len(ranking)} facilities, oracle {len(expected)}")
    if len({fid for fid, _score in ranking}) != len(ranking):
        problems.append("top-k reported a facility twice")
    for position, (fid, score) in enumerate(ranking):
        truth = scores.get(fid)
        if truth is None:
            problems.append(f"top-k facility {fid} is not a reachable live facility")
            continue
        if not _close(score, truth):
            problems.append(f"top-k facility {fid} score {score!r}, oracle {truth!r}")
        if position < len(expected) and not _close(score, expected[position]):
            problems.append(
                f"top-k position {position} score {score!r}, oracle {expected[position]!r}"
            )
    return problems


def skyline_properties(members: dict[int, tuple[float | None, ...]], reachable: int) -> list[str]:
    """Skyline members must be mutually non-dominating (on known components).

    A skyline over at least one reachable facility is never empty.
    """
    known = {
        fid: costs for fid, costs in members.items() if all(c is not None for c in costs)
    }
    problems = []
    for fid, costs in known.items():
        for ofid, other in known.items():
            if ofid != fid and _clearly_dominates(other, costs):
                problems.append(f"skyline member {fid} is dominated by member {ofid}")
    if not members and reachable:
        problems.append("empty skyline over a non-empty reachable facility set")
    return problems


def topk_properties(ranking: list[tuple[int, float]], k: int, reachable: int) -> list[str]:
    """Top-k must return min(k, reachable) facilities with non-decreasing scores."""
    problems = []
    if len(ranking) != min(k, reachable):
        problems.append(f"top-k returned {len(ranking)} facilities, expected {min(k, reachable)}")
    for (_a, first), (_b, second) in zip(ranking, ranking[1:]):
        if second < first and not _close(first, second):
            problems.append(f"top-k scores decrease: {first!r} then {second!r}")
            break
    return problems
