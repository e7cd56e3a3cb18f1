"""Cross-validation of the vectorized matching hot paths.

The ε-scaling auction (in two bidding modes), min-cost flow and the
unit-capacity b-matching kernel all compute an assignment optimum;
scipy's ``linear_sum_assignment`` is the independent oracle.  These
tests drive them over random and degenerate instances and require
agreement on the optimal *total* (assignments may differ when optima
tie).
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.matching.auction import auction_assignment
from repro.matching.b_matching import max_weight_b_matching
from repro.matching.mincost_flow import min_cost_flow
from repro.matching.graph import FlowNetwork
from repro.utils.rng import as_rng


def _flow_assignment_total(weights: np.ndarray) -> float:
    """Max-weight perfect-on-rows assignment via min-cost flow."""
    n, m = weights.shape
    network = FlowNetwork(n + m + 2)
    source, sink = n + m, n + m + 1
    for i in range(n):
        network.add_edge(source, i, 1.0, 0.0)
    for j in range(m):
        network.add_edge(n + j, sink, 1.0, 0.0)
    for i in range(n):
        for j in range(m):
            network.add_edge(i, n + j, 1.0, -float(weights[i, j]))
    result = min_cost_flow(network, source, sink)
    return -result.cost


def _scipy_optimum(weights: np.ndarray) -> float:
    """Max-weight perfect-on-rows assignment total from scipy."""
    optimize = pytest.importorskip("scipy.optimize")
    rows, cols = optimize.linear_sum_assignment(weights, maximize=True)
    return float(weights[rows, cols].sum())


def _scipy_padded_optimum(weights: np.ndarray) -> float:
    """Max-weight assignment total from scipy when a row may stay
    unmatched: one zero pad column per row stands for "unmatched"."""
    optimize = pytest.importorskip("scipy.optimize")
    padded = np.hstack([weights, np.zeros((weights.shape[0],) * 2)])
    rows, cols = optimize.linear_sum_assignment(padded, maximize=True)
    return float(padded[rows, cols].sum())


def _instances():
    rng = as_rng(20240806)
    cases = []
    for trial in range(12):
        n = int(rng.integers(1, 14))
        m = int(rng.integers(n, n + 9))
        cases.append((f"uniform-{trial}", rng.random((n, m))))
    for trial in range(6):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(n, n + 6))
        # Coarse integer weights force massive optimum ties.
        cases.append(
            (f"duplicates-{trial}", rng.integers(0, 4, (n, m)).astype(float))
        )
    for trial in range(6):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(n, n + 6))
        cases.append((f"negative-{trial}", rng.random((n, m)) * 4.0 - 2.0))
    cases.append(("constant", np.ones((5, 7))))
    cases.append(("single", np.asarray([[3.5]])))
    return cases


@pytest.mark.parametrize(
    "weights", [c[1] for c in _instances()], ids=[c[0] for c in _instances()]
)
class TestOptimaAgree:
    def test_auction_modes_agree_with_scipy(self, weights):
        optimum = _scipy_optimum(weights)
        for mode in ("gauss-seidel", "jacobi"):
            assignment, total = auction_assignment(weights, mode=mode)
            assert total == pytest.approx(optimum, abs=1e-6)
            # A valid perfect matching on the rows.
            assert len(assignment) == weights.shape[0]
            assert len(set(assignment)) == weights.shape[0]
            recomputed = sum(
                weights[i, j] for i, j in enumerate(assignment)
            )
            assert total == pytest.approx(recomputed, abs=1e-9)

    def test_b_matching_agrees_with_scipy(self, weights):
        n, m = weights.shape
        edges, total = max_weight_b_matching(
            weights, np.ones(n, dtype=int), np.ones(m, dtype=int)
        )
        assert total == pytest.approx(
            _scipy_padded_optimum(weights), abs=1e-9
        )
        # Each row and column at most once, positive edges only.
        assert len({i for i, _ in edges}) == len(edges)
        assert len({j for _, j in edges}) == len(edges)
        assert all(weights[i, j] > 0 for i, j in edges)
        assert total == pytest.approx(
            sum(weights[i, j] for i, j in edges), abs=1e-9
        )

    def test_flow_agrees(self, weights):
        if weights.size > 80:  # keep the O(n·m) flow builds cheap
            pytest.skip("flow cross-check runs on the small instances")
        assert _flow_assignment_total(weights) == pytest.approx(
            _scipy_optimum(weights), abs=1e-6
        )


class TestDegenerateInstances:
    def test_empty_rows(self):
        for mode in ("gauss-seidel", "jacobi"):
            assert auction_assignment(
                np.empty((0, 4)), mode=mode
            ) == ([], 0.0)

    def test_more_rows_than_columns_rejected(self):
        bad = np.ones((4, 2))
        for mode in ("gauss-seidel", "jacobi"):
            with pytest.raises(ValidationError):
                auction_assignment(bad, mode=mode)

    def test_non_finite_rejected(self):
        bad = np.asarray([[1.0, np.inf]])
        with pytest.raises(ValidationError):
            auction_assignment(bad)

    def test_unknown_auction_mode_rejected(self):
        with pytest.raises(ValidationError):
            auction_assignment(np.ones((2, 2)), mode="chaotic")

    def test_jacobi_is_deterministic(self):
        rng = as_rng(3)
        weights = rng.integers(0, 3, (9, 9)).astype(float)
        first = auction_assignment(weights, mode="jacobi")
        second = auction_assignment(weights, mode="jacobi")
        assert first == second

    def test_rectangular_rows_all_assigned_distinctly(self):
        rng = as_rng(4)
        weights = rng.random((6, 30))
        for mode in ("gauss-seidel", "jacobi"):
            assignment, _total = auction_assignment(weights, mode=mode)
            assert len(assignment) == 6
            assert len(set(assignment)) == 6
