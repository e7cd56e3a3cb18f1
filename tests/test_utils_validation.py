"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    check_fraction,
    check_nonnegative,
    check_positive,
    check_probability_matrix,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("value", [0.0, -1.0, -0.001])
    def test_rejects(self, value):
        with pytest.raises(ValidationError, match="x"):
            check_positive("x", value)


class TestCheckNonnegative:
    def test_accepts_zero(self):
        assert check_nonnegative("x", 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_nonnegative("x", -1e-9)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="x must be non-negative"):
            check_nonnegative("x", float("nan"))

    def test_accepts_inf(self):
        assert check_nonnegative("x", float("inf")) == float("inf")


class TestCheckFraction:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts(self, value):
        assert check_fraction("f", value) == value

    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_rejects(self, value):
        with pytest.raises(ValidationError):
            check_fraction("f", value)


class TestCheckProbabilityMatrix:
    def test_accepts_stochastic(self):
        matrix = np.array([[0.3, 0.7], [0.5, 0.5]])
        out = check_probability_matrix("m", matrix)
        assert np.allclose(out, matrix)

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            check_probability_matrix("m", np.array([[0.3, 0.3]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValidationError):
            check_probability_matrix("m", np.array([[-0.5, 1.5]]))

    def test_rejects_1d(self):
        with pytest.raises(ValidationError, match="2-D"):
            check_probability_matrix("m", np.array([0.5, 0.5]))
