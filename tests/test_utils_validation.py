"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.validation import (
    check_fraction,
    check_unique_ids,
    check_nonnegative,
    check_positive,
    check_probability_matrix,
    reject_first,
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


class TestColumnChecks:
    def test_reject_first_names_the_first_flagged_id(self):
        with pytest.raises(ValidationError, match=r"^task 30: bad 2$"):
            reject_first(
                "task", [10, 20, 30, 40], np.array([False, False, True, True]),
                "bad {}", np.array([0, 1, 2, 3]),
            )

    def test_reject_first_passes_when_nothing_is_flagged(self):
        reject_first("task", [1, 2], np.zeros(2, dtype=bool), "bad")

    def test_unique_ids_names_the_first_repeat(self):
        # Entry 3 repeats id 1 before entry 4 repeats id 3.
        with pytest.raises(ValidationError, match=r"^duplicate worker id 1$"):
            check_unique_ids("worker", [3, 1, 2, 1, 3, 3])

    @pytest.mark.parametrize("ids", [[], [0], [2, 0, 1]])
    def test_unique_ids_accept(self, ids):
        check_unique_ids("worker", ids)
