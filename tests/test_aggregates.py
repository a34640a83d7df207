"""Unit tests for aggregate cost functions."""

from __future__ import annotations

import random

import pytest

from repro.core.aggregates import MaxCost, WeightedLpNorm, WeightedSum, check_monotone
from repro.errors import QueryError

NON_FINITE = pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
)


class TestWeightedSum:
    def test_basic_evaluation(self):
        aggregate = WeightedSum((0.9, 0.1))
        assert aggregate((10.0, 20.0)) == pytest.approx(11.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(QueryError):
            WeightedSum((1.0, 1.0))((1.0,))

    def test_empty_weights_rejected(self):
        with pytest.raises(QueryError):
            WeightedSum(())

    def test_negative_weight_rejected(self):
        with pytest.raises(QueryError):
            WeightedSum((0.5, -0.1))

    def test_all_zero_weights_rejected(self):
        with pytest.raises(QueryError):
            WeightedSum((0.0, 0.0))

    @NON_FINITE
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(QueryError, match="finite"):
            WeightedSum((0.5, value))

    def test_uniform_weights_sum_to_one(self):
        aggregate = WeightedSum.uniform(4)
        assert sum(aggregate.weights) == pytest.approx(1.0)
        assert aggregate((1.0, 1.0, 1.0, 1.0)) == pytest.approx(1.0)

    def test_uniform_requires_positive_dimension(self):
        with pytest.raises(QueryError):
            WeightedSum.uniform(0)

    def test_random_weights_in_unit_interval(self):
        aggregate = WeightedSum.random(5, random.Random(3))
        assert len(aggregate.weights) == 5
        assert all(0 < weight <= 1 for weight in aggregate.weights)

    def test_random_weights_reproducible_with_seeded_rng(self):
        first = WeightedSum.random(3, random.Random(11))
        second = WeightedSum.random(3, random.Random(11))
        assert first.weights == second.weights

    def test_monotonicity(self):
        assert check_monotone(WeightedSum((0.3, 0.7)), 2)


class TestWeightedLpNorm:
    def test_l2_evaluation(self):
        aggregate = WeightedLpNorm((1.0, 1.0), p=2.0)
        assert aggregate((3.0, 4.0)) == pytest.approx(5.0)

    def test_l1_matches_weighted_sum(self):
        lp = WeightedLpNorm((0.5, 0.5), p=1.0)
        ws = WeightedSum((0.5, 0.5))
        assert lp((2.0, 4.0)) == pytest.approx(ws((2.0, 4.0)))

    def test_p_below_one_rejected(self):
        with pytest.raises(QueryError):
            WeightedLpNorm((1.0,), p=0.5)

    def test_negative_weights_rejected(self):
        with pytest.raises(QueryError):
            WeightedLpNorm((-1.0,), p=2.0)

    @NON_FINITE
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(QueryError, match="finite"):
            WeightedLpNorm((1.0, value), p=2.0)

    @NON_FINITE
    def test_non_finite_exponent_rejected(self, value):
        with pytest.raises(QueryError, match="finite"):
            WeightedLpNorm((1.0, 1.0), p=value)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(QueryError):
            WeightedLpNorm((1.0, 1.0))((1.0,))

    def test_monotonicity(self):
        assert check_monotone(WeightedLpNorm((0.4, 0.6), p=3.0), 2)


class TestMaxCost:
    def test_evaluation(self):
        assert MaxCost((1.0, 2.0))((5.0, 3.0)) == pytest.approx(6.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(QueryError):
            MaxCost((1.0,))((1.0, 2.0))

    def test_empty_weights_rejected(self):
        with pytest.raises(QueryError):
            MaxCost(())

    def test_negative_weights_rejected(self):
        with pytest.raises(QueryError):
            MaxCost((1.0, -1.0))

    @NON_FINITE
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(QueryError, match="finite"):
            MaxCost((1.0, value))

    def test_monotonicity(self):
        assert check_monotone(MaxCost((0.5, 0.5, 1.0)), 3)


class TestCheckMonotone:
    def test_detects_non_monotone_function(self):
        def decreasing(costs):
            return -sum(costs)

        assert not check_monotone(decreasing, 3)

    def test_accepts_constant_function(self):
        assert check_monotone(lambda costs: 1.0, 2)

    def test_accepts_min_function(self):
        assert check_monotone(lambda costs: min(costs), 4)
