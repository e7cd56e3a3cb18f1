"""Tests for the auction algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConvergenceError, ValidationError
from repro.matching.auction import auction_assignment


class TestAuction:
    def test_simple(self):
        weights = np.array([[10.0, 1.0], [1.0, 10.0]])
        assignment, total = auction_assignment(weights)
        assert assignment == [0, 1]
        assert total == pytest.approx(20.0)

    def test_rectangular(self):
        weights = np.array([[1.0, 5.0, 2.0]])
        assignment, total = auction_assignment(weights)
        assert assignment == [1]
        assert total == pytest.approx(5.0)

    def test_all_zero(self):
        assignment, total = auction_assignment(np.zeros((3, 3)))
        assert total == 0.0
        assert sorted(assignment) == [0, 1, 2]

    def test_empty(self):
        assignment, total = auction_assignment(np.zeros((0, 2)))
        assert assignment == []

    def test_rejects_wide(self):
        with pytest.raises(ValidationError):
            auction_assignment(np.zeros((3, 2)))

    def test_rejects_infinite(self):
        with pytest.raises(ValidationError):
            auction_assignment(np.array([[np.inf]]))

    def test_round_budget(self):
        with pytest.raises(ConvergenceError):
            auction_assignment(
                np.array([[1.0, 2.0], [2.0, 1.0]]), max_rounds=1
            )

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 6)).filter(
                lambda s: s[0] <= s[1]
            ),
            elements=st.floats(min_value=-10, max_value=10),
        )
    )
    def test_agrees_with_scipy(self, weights):
        """Auction max-weight == scipy's assignment optimum."""
        optimize = pytest.importorskip("scipy.optimize")
        _a_assignment, a_total = auction_assignment(weights)
        rows, cols = optimize.linear_sum_assignment(weights, maximize=True)
        assert a_total == pytest.approx(weights[rows, cols].sum(), abs=1e-5)
