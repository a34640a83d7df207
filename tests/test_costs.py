"""Unit tests for cost vectors and the dominance relation."""

from __future__ import annotations

import pytest

from repro.errors import GraphError
from repro.network.costs import CostVector, dominates, dominates_or_equal


class TestCostVectorConstruction:
    def test_values_are_stored_as_floats(self):
        vector = CostVector([1, 2, 3])
        assert vector.values == (1.0, 2.0, 3.0)

    def test_dimensions(self):
        assert CostVector([1.0, 2.0]).dimensions == 2

    def test_zeros_constructor(self):
        assert CostVector.zeros(3).values == (0.0, 0.0, 0.0)

    def test_empty_vector_rejected(self):
        with pytest.raises(GraphError):
            CostVector([])

    def test_negative_cost_rejected(self):
        with pytest.raises(GraphError):
            CostVector([1.0, -0.5])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cost_rejected(self, value):
        with pytest.raises(GraphError, match="finite"):
            CostVector([1.0, value])

    def test_zero_costs_allowed(self):
        assert CostVector([0.0, 0.0]).values == (0.0, 0.0)

    def test_accepts_any_iterable(self):
        assert CostVector(iter([1.0, 2.0])).values == (1.0, 2.0)


class TestCostVectorBehaviour:
    def test_sequence_protocol(self):
        vector = CostVector([5.0, 7.0, 9.0])
        assert len(vector) == 3
        assert vector[1] == 7.0
        assert list(vector) == [5.0, 7.0, 9.0]

    def test_equality_with_other_vector(self):
        assert CostVector([1.0, 2.0]) == CostVector([1.0, 2.0])
        assert CostVector([1.0, 2.0]) != CostVector([2.0, 1.0])

    def test_equality_with_tuple(self):
        assert CostVector([1.0, 2.0]) == (1.0, 2.0)

    def test_hashable(self):
        assert len({CostVector([1.0]), CostVector([1.0]), CostVector([2.0])}) == 2

    def test_repr_mentions_values(self):
        assert "1" in repr(CostVector([1.0, 2.0]))

    def test_addition(self):
        assert (CostVector([1.0, 2.0]) + CostVector([3.0, 4.0])).values == (4.0, 6.0)

    def test_addition_with_plain_sequence(self):
        assert (CostVector([1.0, 2.0]) + (1.0, 1.0)).values == (2.0, 3.0)

    def test_addition_dimension_mismatch(self):
        with pytest.raises(GraphError):
            CostVector([1.0]) + CostVector([1.0, 2.0])

    def test_scale(self):
        assert CostVector([2.0, 4.0]).scale(0.5).values == (1.0, 2.0)

    def test_scale_by_zero(self):
        assert CostVector([2.0, 4.0]).scale(0.0).values == (0.0, 0.0)

    def test_scale_negative_rejected(self):
        with pytest.raises(GraphError):
            CostVector([1.0]).scale(-1.0)


class TestDominance:
    def test_strictly_smaller_everywhere_dominates(self):
        assert dominates((1.0, 1.0), (2.0, 2.0))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_smaller_in_one_dimension_with_ties_dominates(self):
        assert dominates((1.0, 2.0), (1.0, 3.0))

    def test_incomparable_vectors(self):
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 3.0))

    def test_dominance_not_symmetric(self):
        assert dominates((0.0, 0.0), (1.0, 1.0))
        assert not dominates((1.0, 1.0), (0.0, 0.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(GraphError):
            dominates((1.0,), (1.0, 2.0))

    def test_dominates_or_equal_includes_equality(self):
        assert dominates_or_equal((1.0, 2.0), (1.0, 2.0))
        assert dominates_or_equal((1.0, 1.0), (1.0, 2.0))
        assert not dominates_or_equal((2.0, 1.0), (1.0, 2.0))

    def test_methods_match_functions(self):
        smaller = CostVector([1.0, 1.0])
        larger = CostVector([2.0, 2.0])
        assert smaller.dominates(larger)
        assert smaller.dominates_or_equal(larger)
        assert not larger.dominates(smaller)

    def test_single_dimension_dominance(self):
        assert dominates((1.0,), (2.0,))
        assert not dominates((2.0,), (2.0,))
