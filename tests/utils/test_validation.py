"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_positive,
    check_probability_matrix,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(3.5, "x") == 3.5

    def test_returns_float_for_integer_input(self):
        value = check_positive(np.int64(4), "x")
        assert value == 4.0 and isinstance(value, float)

    def test_rejects_negative_infinity(self):
        with pytest.raises(ValueError):
            check_positive(float("-inf"), "x")

    def test_message_names_the_parameter(self):
        with pytest.raises(ValueError, match="speed"):
            check_positive(0, "speed")

    @pytest.mark.parametrize("value", [0, -1, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite(self, value):
        with pytest.raises(ValueError):
            check_positive(value, "x")


class TestCheckProbabilityMatrix:
    def test_accepts_valid(self):
        matrix = np.array([[0.5, 0.5], [0.2, 0.8]])
        out = check_probability_matrix(matrix, "m")
        assert out.dtype == float

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            check_probability_matrix(np.array([[0.5, 0.4], [0.2, 0.8]]), "m")

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            check_probability_matrix(np.array([[-0.1, 1.1], [0.5, 0.5]]), "m")

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            check_probability_matrix(np.ones((2, 3)) / 3, "m")

    def test_size_enforced(self):
        with pytest.raises(ValueError):
            check_probability_matrix(np.eye(2), "m", size=3)

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            check_probability_matrix(np.array([0.5, 0.5]), "m")

    def test_converts_integer_matrix_to_float(self):
        out = check_probability_matrix(np.eye(3, dtype=int), "m", size=3)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.eye(3))

    def test_rounding_within_tolerance_is_kept_not_renormalised(self):
        matrix = np.array([[0.5, 0.5 + 1e-12], [0.2, 0.8]])
        out = check_probability_matrix(matrix, "m")
        assert out[0, 1] == matrix[0, 1]

    def test_atol_loosens_row_sum_check(self):
        matrix = np.array([[0.5, 0.49], [0.2, 0.8]])
        with pytest.raises(ValueError):
            check_probability_matrix(matrix, "m")
        assert check_probability_matrix(matrix, "m", atol=0.02).shape == (2, 2)
