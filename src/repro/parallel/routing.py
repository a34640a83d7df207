"""Shard planning: how a batch of requests is split across parallel workers.

Two routing policies are offered:

* **round-robin** — request ``i`` goes to shard ``i mod workers``.  Shards
  are balanced to within one request and the policy needs no knowledge of
  the network, but co-located queries usually land on different shards, so
  each worker's cross-query cache re-fetches the same neighbourhood.
* **locality** — requests are ordered along a Z-order (Morton) space-filling
  curve over their network coordinates and cut into contiguous runs, one per
  shard.  Queries that are close on the network end up on the same worker,
  preserving the cross-query cache reuse that makes batching worthwhile in
  the first place (shards stay balanced to within one request too).

Routing is pure partitioning: it decides *where* a request runs, never *how*,
so both policies produce identical results for every request — a property the
test-suite asserts over randomized workloads.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.api.policy import ROUTINGS
from repro.errors import QueryError
from repro.network.graph import MultiCostGraph
from repro.network.location import NetworkLocation
from repro.service.requests import QueryRequest

__all__ = ["ROUTINGS", "Shard", "ShardPlan", "plan_shards"]

_MORTON_BITS = 16


@dataclass(frozen=True)
class Shard:
    """One worker's slice of the batch: the requests plus their batch positions."""

    index: int
    positions: tuple[int, ...]
    requests: tuple[QueryRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)


@dataclass(frozen=True)
class ShardPlan:
    """The full partition of one batch (only non-empty shards are kept)."""

    routing: str
    workers: int
    shards: tuple[Shard, ...]

    @property
    def total_requests(self) -> int:
        return sum(len(shard) for shard in self.shards)


def _location_point(graph: MultiCostGraph, location: NetworkLocation) -> tuple[float, float]:
    """The planar coordinates of a network location (edge points interpolated)."""
    if location.node_id is not None:
        node = graph.node(location.node_id)
        return (node.x, node.y)
    edge = graph.edge(location.edge_id)  # type: ignore[arg-type]
    u, v = graph.node(edge.u), graph.node(edge.v)
    fraction = location.offset / edge.length if edge.length else 0.0
    return (u.x + fraction * (v.x - u.x), u.y + fraction * (v.y - u.y))


def _interleave(value: int) -> int:
    """Spread the low 16 bits of ``value`` so a second coordinate can slot between."""
    value &= (1 << _MORTON_BITS) - 1
    value = (value | (value << 8)) & 0x00FF00FF
    value = (value | (value << 4)) & 0x0F0F0F0F
    value = (value | (value << 2)) & 0x33333333
    value = (value | (value << 1)) & 0x55555555
    return value


def _morton_keys(points: Sequence[tuple[float, float]]) -> list[int]:
    """Z-order key of every point, quantized to a 2^16 grid over the bounding box."""
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    span_x = max_x - min_x or 1.0
    span_y = max_y - min_y or 1.0
    scale = (1 << _MORTON_BITS) - 1
    keys = []
    for x, y in points:
        qx = int((x - min_x) / span_x * scale)
        qy = int((y - min_y) / span_y * scale)
        keys.append(_interleave(qx) | (_interleave(qy) << 1))
    return keys


def plan_shards(
    requests: Sequence[QueryRequest],
    workers: int,
    *,
    routing: str = "round_robin",
    graph: MultiCostGraph | None = None,
) -> ShardPlan:
    """Partition ``requests`` into at most ``workers`` shards.

    ``routing`` is ``"round_robin"`` or ``"locality"``; the latter requires
    the ``graph`` the request locations live on.  Both policies are
    deterministic per input and keep shard sizes balanced to within one
    request; with more workers than requests, each request gets a shard of
    its own and no empty shard is built.
    """
    if workers < 1:
        raise QueryError("the number of workers must be at least 1")
    if routing not in ROUTINGS:
        raise QueryError(f"unknown routing {routing!r}; expected one of {ROUTINGS}")

    if routing == "locality" and len(requests) > 1 and workers > 1:
        if graph is None:
            raise QueryError("locality routing needs the graph the queries live on")
        points = [_location_point(graph, request.location) for request in requests]
        keys = _morton_keys(points)
        # Stable order along the Z-curve; ties fall back to batch position.
        order = sorted(range(len(requests)), key=lambda i: (keys[i], i))
    else:
        order = list(range(len(requests)))

    # Workers beyond the number of requests could only get empty shards, so
    # no bucket is allocated for them (a wire policy picks ``workers``).
    count = max(1, min(workers, len(requests)))
    buckets: list[list[int]] = [[] for _ in range(count)]
    if routing == "locality":
        # Contiguous runs along the curve, sizes balanced to within one.
        base, extra = divmod(len(order), count)
        cursor = 0
        for index in range(count):
            size = base + (1 if index < extra else 0)
            buckets[index] = order[cursor : cursor + size]
            cursor += size
    else:
        for position in order:
            buckets[position % count].append(position)

    shards = tuple(
        Shard(
            index=index,
            positions=tuple(positions),
            requests=tuple(requests[position] for position in positions),
        )
        for index, positions in enumerate(buckets)
        if positions
    )
    return ShardPlan(routing=routing, workers=workers, shards=shards)
