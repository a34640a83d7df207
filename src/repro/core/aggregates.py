"""Aggregate cost functions for MCN top-k queries.

The paper requires an *increasingly monotone* function ``f`` over the
d-dimensional cost vector of a facility: if every cost of ``p`` is no larger
than the corresponding cost of ``p'`` then ``f(p) <= f(p')``.  The weighted
sum used in the experiments (random coefficients in ``[0, 1]``) is the
default, but any monotone callable can be supplied.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from operator import mul

from repro.errors import QueryError

__all__ = [
    "AggregateFunction",
    "WeightedSum",
    "WeightedLpNorm",
    "MaxCost",
    "check_monotone",
]

AggregateFunction = Callable[[Sequence[float]], float]

_INF = float("inf")


def _finite_non_negative(weights: tuple[float, ...]) -> bool:
    # NaN fails both comparisons, so it is refused with the infinities.
    return all(0 <= w < _INF for w in weights)


@dataclass(frozen=True)
class WeightedSum:
    """``f(p) = sum_i alpha_i * c_i(p)`` with non-negative coefficients.

    This is the aggregate cost function of Section VI; coefficients are the
    relative importance of the cost types (e.g. 0.9 travel time / 0.1 toll in
    the logistics example of the introduction).
    """

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise QueryError("a weighted sum needs at least one weight")
        if not _finite_non_negative(self.weights):
            raise QueryError("weights must be finite and non-negative")
        if all(w == 0 for w in self.weights):
            raise QueryError("at least one weight must be positive")

    def __call__(self, costs: Sequence[float]) -> float:
        if len(costs) != len(self.weights):
            raise QueryError(
                f"cost vector has {len(costs)} components, expected {len(self.weights)}"
            )
        return sum(map(mul, self.weights, costs))

    @classmethod
    def uniform(cls, dimensions: int) -> "WeightedSum":
        """Equal weights over ``dimensions`` cost types."""
        if dimensions < 1:
            raise QueryError("dimensions must be positive")
        return cls(tuple(1.0 / dimensions for _ in range(dimensions)))

    @classmethod
    def random(cls, dimensions: int, rng: random.Random | None = None) -> "WeightedSum":
        """Independently random coefficients in ``(0, 1]`` (the paper's setting)."""
        if dimensions < 1:
            raise QueryError("dimensions must be positive")
        rng = rng or random.Random()
        weights = tuple(max(rng.random(), 1e-6) for _ in range(dimensions))
        return cls(weights)


@dataclass(frozen=True)
class WeightedLpNorm:
    """``f(p) = (sum_i (alpha_i * c_i(p))^p)^(1/p)`` — monotone for p >= 1."""

    weights: tuple[float, ...]
    p: float = 2.0

    def __post_init__(self) -> None:
        if not 1 <= self.p < _INF:
            raise QueryError("the Lp exponent must be finite and >= 1 for monotonicity")
        if not self.weights or not _finite_non_negative(self.weights):
            raise QueryError("weights must be finite, non-negative and non-empty")

    def __call__(self, costs: Sequence[float]) -> float:
        if len(costs) != len(self.weights):
            raise QueryError(
                f"cost vector has {len(costs)} components, expected {len(self.weights)}"
            )
        return sum((w * c) ** self.p for w, c in zip(self.weights, costs)) ** (1.0 / self.p)


@dataclass(frozen=True)
class MaxCost:
    """``f(p) = max_i alpha_i * c_i(p)`` — the bottleneck aggregate (monotone)."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.weights or not _finite_non_negative(self.weights):
            raise QueryError("weights must be finite, non-negative and non-empty")

    def __call__(self, costs: Sequence[float]) -> float:
        if len(costs) != len(self.weights):
            raise QueryError(
                f"cost vector has {len(costs)} components, expected {len(self.weights)}"
            )
        return max(w * c for w, c in zip(self.weights, costs))


def check_monotone(
    function: AggregateFunction, dimensions: int, *, samples: int = 200, seed: int = 0
) -> bool:
    """Empirically check increasing monotonicity on random dominated pairs.

    Used by the engine to reject obviously non-monotone user functions and by
    the test suite; a ``True`` result is evidence, not proof.
    """
    rng = random.Random(seed)
    for _ in range(samples):
        lower = [rng.uniform(0, 100) for _ in range(dimensions)]
        higher = [value + rng.uniform(0, 10) for value in lower]
        if function(lower) > function(higher) + 1e-9:
            return False
    return True
