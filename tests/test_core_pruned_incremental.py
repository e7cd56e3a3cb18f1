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
