"""Tests for the pruned-greedy and incremental-flow solvers."""

import numpy as np
import pytest

from repro.benefit.mutual import LinearCombiner
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.core.solvers.incremental import edge_ids, retention_overlap
from repro.core.solvers.pruned import top_k_edge_mask
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError


def _problem(seed=0, **kwargs):
    defaults = dict(n_workers=30, n_tasks=15)
    defaults.update(kwargs)
    market = generate_market(SyntheticConfig(**defaults), seed=seed)
    return MBAProblem(market, combiner=LinearCombiner(0.5))


class TestTopKMask:
    def test_row_and_column_tops_survive(self):
        matrix = np.array([[9.0, 1.0, 2.0], [3.0, 8.0, 1.0]])
        mask = top_k_edge_mask(matrix, 1)
        assert mask[0, 0]
        assert mask[1, 1]
        # (0, 2): not row-0's top-1 (that's col 0) but IS column 2's
        # top-1 (2.0 > 1.0).
        assert mask[0, 2]
        assert not mask[1, 2]

    def test_k_larger_than_dims_keeps_all(self):
        matrix = np.arange(6, dtype=float).reshape(2, 3)
        assert top_k_edge_mask(matrix, 10).all()

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            top_k_edge_mask(np.zeros((2, 2)), 0)

    def test_empty(self):
        assert top_k_edge_mask(np.zeros((0, 3)), 2).shape == (0, 3)

    def test_mask_grows_with_k(self):
        rng = np.random.default_rng(0)
        matrix = rng.uniform(0, 1, (20, 15))
        small = top_k_edge_mask(matrix, 2)
        large = top_k_edge_mask(matrix, 5)
        assert (large | small == large).all()  # small subset of large


def _two_argpartition_mask(combined, k):
    """The mask as two full ``argpartition`` calls build it: the
    reference for the threshold form, whose tied rows and columns must
    keep the same entries."""
    n, m = combined.shape
    mask = np.zeros((n, m), dtype=bool)
    if n == 0 or m == 0:
        return mask
    k_row = min(k, m)
    row_top = np.argpartition(-combined, k_row - 1, axis=1)[:, :k_row]
    mask[np.arange(n)[:, np.newaxis], row_top] = True
    k_col = min(k, n)
    col_top = np.argpartition(-combined, k_col - 1, axis=0)[:k_col, :]
    mask[col_top, np.arange(m)[np.newaxis, :]] = True
    return mask


class TestTopKMaskOracle:
    def _check(self, matrix, k):
        np.testing.assert_array_equal(
            top_k_edge_mask(matrix, k), _two_argpartition_mask(matrix, k)
        )

    def test_tie_heavy_integer_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            n, m = (int(size) for size in rng.integers(1, 30, size=2))
            k = int(rng.integers(1, 35))
            self._check(rng.integers(-2, 3, size=(n, m)).astype(float), k)

    def test_constant_matrices(self):
        for n, m in [(1, 1), (5, 9), (40, 17), (64, 300)]:
            for k in (1, 2, 7, 50):
                self._check(np.full((n, m), 0.5), k)

    def test_signed_zero_ties(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n, m = (int(size) for size in rng.integers(1, 20, size=2))
            matrix = rng.choice([0.0, -0.0, 1.0, -1.0], size=(n, m))
            self._check(matrix, int(rng.integers(1, 6)))

    def test_k_one_and_k_at_or_past_each_side(self):
        rng = np.random.default_rng(13)
        matrix = rng.integers(-2, 3, size=(12, 7)).astype(float)
        for k in (1, 6, 7, 8, 12, 13, 40):
            self._check(matrix, k)

    def test_single_row_and_single_column_blocks(self):
        rng = np.random.default_rng(14)
        for shape in [(1, 25), (25, 1)]:
            for k in (1, 3, 25, 30):
                self._check(rng.integers(-2, 3, size=shape).astype(float), k)
                self._check(rng.uniform(-1, 1, size=shape), k)

    def test_untied_random_matrices(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            n, m = (int(size) for size in rng.integers(1, 60, size=2))
            self._check(rng.uniform(-1, 1, size=(n, m)), int(rng.integers(1, 12)))


class TestPrunedGreedy:
    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            get_solver("pruned-greedy", k=0)

    def test_value_monotone_in_k(self):
        problem = _problem(seed=1)
        values = [
            get_solver("pruned-greedy", k=k).solve(problem).combined_total()
            for k in (1, 3, 8, 15)
        ]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-6

    def test_large_k_matches_plain_greedy(self):
        problem = _problem(seed=2)
        pruned = get_solver("pruned-greedy", k=100).solve(problem)
        greedy = get_solver("greedy").solve(problem)
        assert pruned.combined_total() == pytest.approx(
            greedy.combined_total(), rel=1e-9
        )

    def test_respects_inactive_workers(self):
        problem = _problem(seed=3)
        problem.market.workers[0].active = False
        rebuilt = MBAProblem(problem.market, combiner=LinearCombiner(0.5))
        assignment = get_solver("pruned-greedy", k=5).solve(rebuilt)
        assert all(i != 0 for i, _j in assignment.edges)

    def test_reasonable_quality_at_moderate_k(self):
        problem = _problem(seed=4, n_workers=60, n_tasks=30)
        flow = get_solver("flow").solve(problem).combined_total()
        pruned = (
            get_solver("pruned-greedy", k=10).solve(problem).combined_total()
        )
        assert pruned >= 0.75 * flow


class TestIncrementalFlow:
    def test_zero_bonus_equals_flow(self):
        problem = _problem(seed=5)
        flow = get_solver("flow").solve(problem)
        incremental = get_solver(
            "incremental-flow", stability_bonus=0.0
        ).solve(problem)
        assert incremental.combined_total() == pytest.approx(
            flow.combined_total()
        )

    def test_no_history_equals_flow(self):
        problem = _problem(seed=6)
        flow = get_solver("flow").solve(problem)
        incremental = get_solver("incremental-flow").solve(problem)
        assert incremental.combined_total() == pytest.approx(
            flow.combined_total()
        )

    def test_negative_bonus_rejected(self):
        with pytest.raises(ValidationError):
            get_solver("incremental-flow", stability_bonus=-1.0)

    def test_nan_bonus_rejected(self):
        with pytest.raises(ValidationError, match="stability_bonus"):
            get_solver("incremental-flow", stability_bonus=float("nan"))

    def test_bonus_increases_retention(self):
        problem_a = _problem(seed=7)
        previous = get_solver("flow").solve(problem_a)
        previous_ids = edge_ids(problem_a, previous)
        problem_b = _problem(seed=8)  # different market, same id space
        overlaps = []
        for bonus in (0.0, 5.0):
            assignment = get_solver(
                "incremental-flow",
                previous_edge_ids=previous_ids,
                stability_bonus=bonus,
            ).solve(problem_b)
            overlaps.append(
                retention_overlap(previous_ids, problem_b, assignment)
            )
        assert overlaps[1] >= overlaps[0]

    def test_huge_bonus_keeps_feasible_previous_edges(self):
        problem = _problem(seed=9)
        previous = get_solver("flow").solve(problem)
        previous_ids = edge_ids(problem, previous)
        assignment = get_solver(
            "incremental-flow",
            previous_edge_ids=previous_ids,
            stability_bonus=1000.0,
        ).solve(problem)
        assert retention_overlap(
            previous_ids, problem, assignment
        ) == pytest.approx(1.0)

    def test_retention_overlap_empty_history(self):
        problem = _problem(seed=10)
        assignment = get_solver("flow").solve(problem)
        assert retention_overlap(set(), problem, assignment) == 1.0
