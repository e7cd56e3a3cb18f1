"""Tests for the Hungarian algorithm."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ValidationError
from repro.matching.b_matching import max_weight_b_matching
from repro.matching.hungarian import hungarian


def _brute_force_min(cost):
    n, m = cost.shape
    best = None
    for columns in itertools.permutations(range(m), n):
        total = sum(cost[i, columns[i]] for i in range(n))
        if best is None or total < best:
            best = total
    return best


class TestHungarian:
    def test_identity(self):
        cost = np.array([[1.0, 9.0], [9.0, 1.0]])
        assignment, total = hungarian(cost)
        assert assignment == [0, 1]
        assert total == pytest.approx(2.0)

    def test_anti_identity(self):
        cost = np.array([[9.0, 1.0], [1.0, 9.0]])
        assignment, total = hungarian(cost)
        assert assignment == [1, 0]
        assert total == pytest.approx(2.0)

    def test_rectangular(self):
        cost = np.array([[5.0, 1.0, 3.0]])
        assignment, total = hungarian(cost)
        assert assignment == [1]
        assert total == pytest.approx(1.0)

    def test_empty(self):
        assignment, total = hungarian(np.zeros((0, 3)))
        assert assignment == []
        assert total == 0.0

    def test_wide_required(self):
        with pytest.raises(ValidationError):
            hungarian(np.zeros((3, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            hungarian(np.array([[np.nan]]))

    def test_negative_costs(self):
        cost = np.array([[-5.0, 0.0], [0.0, -5.0]])
        _assignment, total = hungarian(cost)
        assert total == pytest.approx(-10.0)

    def test_assignment_is_injective(self):
        rng = np.random.default_rng(0)
        cost = rng.uniform(0, 10, (6, 9))
        assignment, _ = hungarian(cost)
        assert len(set(assignment)) == len(assignment)

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 6)).filter(
                lambda s: s[0] <= s[1]
            ),
            elements=st.floats(min_value=-20, max_value=20),
        )
    )
    def test_matches_brute_force(self, cost):
        _assignment, total = hungarian(cost)
        assert total == pytest.approx(_brute_force_min(cost), abs=1e-7)


class TestMaxWeightAssignment:
    """Maximum-weight assignment, where a row may stay unmatched, is
    the unit-capacity case of ``max_weight_b_matching``.  Each case
    also solves it by the Hungarian reduction: negate the weights and
    pad one zero column per row, so a row taking a pad stays
    unmatched."""

    @staticmethod
    def _solve(weights):
        n, m = weights.shape
        edges, total = max_weight_b_matching(
            weights, np.ones(n, dtype=int), np.ones(m, dtype=int)
        )
        padded = np.zeros((n, m + n))
        padded[:, :m] = -weights
        _assignment, padded_total = hungarian(padded)
        assert total == pytest.approx(-padded_total)
        return edges, total

    def test_prefers_heavy_edges(self):
        edges, total = self._solve(np.array([[10.0, 1.0], [1.0, 10.0]]))
        assert edges == [(0, 0), (1, 1)]
        assert total == pytest.approx(20.0)

    def test_negative_rows_stay_unassigned(self):
        edges, total = self._solve(np.array([[-1.0, -2.0], [5.0, 1.0]]))
        assert edges == [(1, 0)]
        assert total == pytest.approx(5.0)

    def test_empty_matrix(self):
        edges, total = self._solve(np.zeros((0, 0)))
        assert edges == []
        assert total == 0.0

    def test_more_rows_than_columns(self):
        edges, total = self._solve(np.array([[3.0], [5.0], [1.0]]))
        assert edges == [(1, 0)]
        assert total == pytest.approx(5.0)
