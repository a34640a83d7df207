"""Cost vectors for multi-cost networks.

An edge of a multi-cost network (MCN) carries ``d`` non-negative costs, one
per *cost type* (Euclidean length, driving time, walking time, toll fee...).
This module provides a small immutable :class:`CostVector` value type plus
the dominance test used throughout the paper.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.errors import GraphError

__all__ = ["CostVector", "dominates", "dominates_or_equal"]

_INF = float("inf")


class CostVector(Sequence[float]):
    """An immutable vector of ``d`` finite, non-negative costs.

    The class behaves like a read-only sequence of floats and supports the
    arithmetic needed by the algorithms: component-wise addition, scaling
    (used to split an edge cost at a facility or query location) and the
    Pareto-dominance test.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float]):
        values = tuple(float(v) for v in values)
        if not values:
            raise GraphError("a cost vector needs at least one component")
        for value in values:
            # NaN fails both comparisons, so it is refused with the infinities.
            if not 0 <= value < _INF:
                raise GraphError(f"cost values must be finite and non-negative, got {value}")
        self._values = values

    @classmethod
    def zeros(cls, dimensions: int) -> "CostVector":
        """Return the all-zero vector with ``dimensions`` components."""
        return cls([0.0] * dimensions)

    @property
    def values(self) -> tuple[float, ...]:
        """The raw tuple of cost values."""
        return self._values

    @property
    def dimensions(self) -> int:
        """Number of cost types ``d``."""
        return len(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[float]:
        return iter(self._values)

    def __getitem__(self, index):  # type: ignore[override]
        return self._values[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CostVector):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v:g}" for v in self._values)
        return f"CostVector({inner})"

    def __add__(self, other: "CostVector | Sequence[float]") -> "CostVector":
        other_values = tuple(other)
        if len(other_values) != len(self._values):
            raise GraphError("cannot add cost vectors of different dimensionality")
        return CostVector(a + b for a, b in zip(self._values, other_values))

    def scale(self, factor: float) -> "CostVector":
        """Return the vector scaled by ``factor`` (used for partial edge weights)."""
        if factor < 0:
            raise GraphError("scale factor must be non-negative")
        return CostVector(v * factor for v in self._values)

    def dominates(self, other: "CostVector | Sequence[float]") -> bool:
        """True if this vector Pareto-dominates ``other`` (<= everywhere, < somewhere)."""
        return dominates(self._values, tuple(other))

    def dominates_or_equal(self, other: "CostVector | Sequence[float]") -> bool:
        """True if this vector is component-wise no larger than ``other``."""
        return dominates_or_equal(self._values, tuple(other))


def dominates(first: Sequence[float], second: Sequence[float]) -> bool:
    """Pareto dominance: ``first`` <= ``second`` everywhere and < somewhere.

    This is the dominance relation of Definition "MCN skyline" in the paper:
    a facility dominates another if it is no more expensive to reach under
    every cost type and strictly cheaper under at least one.
    """
    if len(first) != len(second):
        raise GraphError("cannot compare cost vectors of different dimensionality")
    strictly_smaller = False
    for a, b in zip(first, second):
        if a > b:
            return False
        if a < b:
            strictly_smaller = True
    return strictly_smaller


def dominates_or_equal(first: Sequence[float], second: Sequence[float]) -> bool:
    """True if ``first`` is component-wise no larger than ``second``."""
    if len(first) != len(second):
        raise GraphError("cannot compare cost vectors of different dimensionality")
    return all(a <= b for a, b in zip(first, second))
