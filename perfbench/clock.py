"""The benchmark's clock: wall-clock intervals rescaled by a frozen reference.

Raw timings on a small shared machine drift by tens of percent between
phases of the same minute.  The benchmark therefore owns a *reference
computation* -- a seeded, stdlib-only Dijkstra over a graph generated here,
sharing no code with the program -- and runs it between blocks of a few
operations.  Each measured interval is multiplied by

    NOMINAL_REFERENCE_S / mean(reference time just before, just after)

so an interval measured while the machine ran slow is scaled down by the
same factor that slowed the reference.  The reference runs with the garbage
collector paused and is timed on its own thread's CPU clock, so threads the
program leaves running cannot stretch it.

Do not edit the reference graph, the Dijkstra or the nominal constant: every
normalised figure ever recorded is expressed in their units.  A change that
slows the reference itself would flatter every normalised number, which is
why each run also prints the reference's raw times.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

__all__ = ["NOMINAL_REFERENCE_S", "ReferenceClock"]

#: The reference computation's nominal CPU time: about its median during
#: benchmark runs on the machine named in README.md, so a normalised second
#: is close to a wall-clock second there.  Normalised times are expressed in
#: units of this constant; it never changes.
NOMINAL_REFERENCE_S = 0.0050

_REFERENCE_NODES = 2000
_REFERENCE_SEED = 20100301


def _reference_graph() -> list[list[tuple[int, float]]]:
    """A fixed connected sparse graph: a random spanning tree plus chords."""
    rng = random.Random(_REFERENCE_SEED)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(_REFERENCE_NODES)]

    def link(u: int, v: int) -> None:
        weight = rng.uniform(1.0, 10.0)
        adjacency[u].append((v, weight))
        adjacency[v].append((u, weight))

    for v in range(1, _REFERENCE_NODES):
        link(rng.randrange(v), v)
    for _ in range(2 * _REFERENCE_NODES):
        link(rng.randrange(_REFERENCE_NODES), rng.randrange(_REFERENCE_NODES))
    return adjacency


def _reference_dijkstra(adjacency: list[list[tuple[int, float]]]) -> float:
    """Sum of shortest-path distances from node 0 (the reference's checksum)."""
    distance = [float("inf")] * len(adjacency)
    distance[0] = 0.0
    heap = [(0.0, 0)]
    settled = bytearray(len(adjacency))
    while heap:
        d, node = heapq.heappop(heap)
        if settled[node]:
            continue
        settled[node] = 1
        for neighbour, weight in adjacency[node]:
            candidate = d + weight
            if candidate < distance[neighbour]:
                distance[neighbour] = candidate
                heapq.heappush(heap, (candidate, neighbour))
    return sum(distance)


class ReferenceClock:
    """Runs the reference and turns raw intervals into normalised ones.

    Usage: call :meth:`start` once, then bracket every measured interval
    with :meth:`close_interval`, which runs the reference again and returns
    the interval's scale factor.  Consecutive intervals share the reference
    run between them.
    """

    def __init__(self) -> None:
        self._adjacency = _reference_graph()
        self._checksum = _reference_dijkstra(self._adjacency)
        self._last: float | None = None
        #: Every raw reference time measured, in seconds.
        self.samples: list[float] = []

    def measure(self) -> float:
        """One reference run's thread-CPU time in seconds (GC paused).

        An untimed pass runs first: the operations just measured evict the
        reference's data from the CPU caches, and a cold pass took a third
        longer by an amount that depended on the operations, not on the
        machine.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            _reference_dijkstra(self._adjacency)
            start = time.thread_time()
            checksum = _reference_dijkstra(self._adjacency)
            elapsed = time.thread_time() - start
        finally:
            if enabled:
                gc.enable()
        if checksum != self._checksum:
            raise RuntimeError("the reference computation changed its answer")
        self.samples.append(elapsed)
        return elapsed

    def start(self) -> None:
        """Take the reference reading that opens the first interval."""
        self._last = self.measure()

    def close_interval(self) -> float:
        """Close the current interval; returns its raw-to-normalised factor."""
        if self._last is None:
            raise RuntimeError("ReferenceClock.start() was not called")
        before = self._last
        after = self.measure()
        self._last = after
        return NOMINAL_REFERENCE_S / ((before + after) / 2.0)

    def median_ms(self) -> float:
        """Median raw reference time in milliseconds (0.0 before any run)."""
        return statistics.median(self.samples) * 1e3 if self.samples else 0.0
