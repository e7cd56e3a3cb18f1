"""Tests for the sharded large-market solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.benefit.mutual import LinearCombiner
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.core.solvers.sharded import (
    ShardPlan,
    ShardedSolver,
    _capacity_bound,
    _capacity_bound_sparse,
    plan_shards,
)
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError
from tests.lp_oracle import lp_optimum


def _problem(
    seed: int = 7,
    n_workers: int = 60,
    n_tasks: int = 24,
    n_categories: int = 6,
):
    market = generate_market(
        SyntheticConfig(
            n_workers=n_workers,
            n_tasks=n_tasks,
            n_categories=n_categories,
        ),
        seed=seed,
    )
    return MBAProblem(market, combiner=LinearCombiner(0.5))


def _assert_partition(problem, shards):
    # Shards are disjoint, in-range, and non-empty on both sides.  A
    # cell whose workers (or tasks) all preferred other groups is
    # dropped, so multi-shard plans may not cover every index — only
    # the single-shard passthrough guarantees full coverage.
    all_workers = np.concatenate([s.worker_indices for s in shards])
    all_tasks = np.concatenate([s.task_indices for s in shards])
    assert len(set(all_workers.tolist())) == all_workers.size
    assert len(set(all_tasks.tolist())) == all_tasks.size
    assert all_workers.min() >= 0 and all_workers.max() < problem.n_workers
    assert all_tasks.min() >= 0 and all_tasks.max() < problem.n_tasks
    for shard in shards:
        assert shard.worker_indices.size > 0
        assert shard.task_indices.size > 0


class TestShardPlanning:
    @pytest.mark.parametrize("strategy", ["category", "balanced", "none"])
    def test_every_strategy_partitions(self, strategy):
        problem = _problem()
        shards = plan_shards(problem, ShardPlan(strategy=strategy))
        _assert_partition(problem, shards)

    def test_none_is_single_shard_with_full_coverage(self):
        problem = _problem()
        shards = plan_shards(problem, ShardPlan(strategy="none"))
        assert len(shards) == 1
        assert sorted(shards[0].worker_indices.tolist()) == list(
            range(problem.n_workers)
        )
        assert sorted(shards[0].task_indices.tolist()) == list(
            range(problem.n_tasks)
        )

    def test_category_yields_one_shard_per_populated_category(self):
        problem = _problem()
        shards = plan_shards(problem, ShardPlan(strategy="category"))
        categories = {t.category for t in problem.market.tasks}
        # Shards with no workers or no tasks are dropped, so at most
        # one shard per populated category.
        assert 1 <= len(shards) <= len(categories)

    def test_balanced_respects_shard_count(self):
        problem = _problem()
        shards = plan_shards(
            problem, ShardPlan(strategy="balanced", n_shards=3)
        )
        assert 1 <= len(shards) <= 3
        _assert_partition(problem, shards)

    def test_plan_is_deterministic(self):
        problem = _problem()
        plan = ShardPlan(strategy="balanced", n_shards=4)
        first = plan_shards(problem, plan)
        second = plan_shards(problem, plan)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert np.array_equal(a.worker_indices, b.worker_indices)
            assert np.array_equal(a.task_indices, b.task_indices)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError):
            ShardPlan(strategy="zodiac")

    def test_negative_shard_count_rejected(self):
        with pytest.raises(ValidationError):
            ShardPlan(strategy="balanced", n_shards=-1)


class TestShardedSolver:
    def test_none_strategy_is_exact_passthrough(self):
        problem = _problem()
        base = get_solver("pruned-greedy")
        sharded = get_solver(
            "sharded", base="pruned-greedy", strategy="none"
        )
        assert sharded.solve(problem, seed=0).edges == base.solve(
            problem, seed=0
        ).edges
        assert sharded.last_report.exact_passthrough is True
        assert sharded.last_report.n_shards == 1

    def test_report_achieved_within_upper_bound(self):
        problem = _problem()
        solver = get_solver(
            "sharded", base="pruned-greedy", strategy="balanced", n_shards=3
        )
        assignment = solver.solve(problem, seed=0)
        report = solver.last_report
        assert report.n_shards >= 1
        assert report.achieved == pytest.approx(
            assignment.combined_total()
        )
        assert report.achieved <= report.upper_bound + 1e-9
        assert 0.0 <= report.gap <= 1.0

    def test_refinement_is_monotone(self):
        problem = _problem()
        rough = get_solver(
            "sharded",
            base="pruned-greedy",
            strategy="balanced",
            n_shards=3,
            refine=False,
        )
        refined = get_solver(
            "sharded",
            base="pruned-greedy",
            strategy="balanced",
            n_shards=3,
            refine=True,
        )
        rough_total = rough.solve(problem, seed=0).combined_total()
        refined_total = refined.solve(problem, seed=0).combined_total()
        assert refined_total >= rough_total - 1e-9
        assert refined.last_report.refine_gain >= -1e-9

    def test_parallel_matches_serial(self):
        problem = _problem()
        serial = get_solver(
            "sharded",
            base="pruned-greedy",
            strategy="balanced",
            n_shards=3,
            parallel_workers=0,
        )
        parallel = get_solver(
            "sharded",
            base="pruned-greedy",
            strategy="balanced",
            n_shards=3,
            parallel_workers=2,
        )
        assert parallel.solve(problem, seed=0).edges == serial.solve(
            problem, seed=0
        ).edges

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            ShardedSolver(base="warm")  # wrapper bases are refused
        with pytest.raises(ValidationError):
            ShardedSolver(strategy="zodiac")
        with pytest.raises(ValidationError):
            ShardedSolver(refine_rounds=-1)
        with pytest.raises(ValidationError):
            ShardedSolver(boundary_k=0)
        with pytest.raises(ValidationError):
            ShardedSolver(parallel_workers=-2)


class TestUpperBound:
    def test_sparse_bound_matches_dense(self):
        # Default synthetic capacities (<= 5) fit inside boundary_k=10,
        # so _upper_bound takes the sparse candidate-set route; it must
        # agree with the dense full-matrix reduction.
        problem = _problem()
        solver = ShardedSolver(boundary_k=10)
        combined = problem.benefits.combined
        caps_w = problem.worker_capacities().astype(np.int64)
        caps_t = problem.task_capacities().astype(np.int64)
        dense = min(
            _capacity_bound(combined, caps_w),
            _capacity_bound(combined.T, caps_t),
        )
        assert solver._upper_bound(problem) == pytest.approx(
            dense, rel=1e-9
        )

    def test_sparse_helper_agrees_with_dense_on_full_triplets(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(13, 9))
        caps = rng.integers(0, 4, size=13)
        rows, cols = np.nonzero(np.ones_like(values, dtype=bool))
        sparse = _capacity_bound_sparse(
            rows, values[rows, cols], caps, values.shape[0]
        )
        assert sparse == pytest.approx(
            _capacity_bound(values, caps), rel=1e-9
        )

    def test_bound_zero_on_nonpositive_matrix(self):
        values = -np.ones((4, 4))
        caps = np.full(4, 2)
        assert _capacity_bound(values, caps) == 0.0
        rows, cols = np.nonzero(np.ones_like(values, dtype=bool))
        assert (
            _capacity_bound_sparse(rows, values[rows, cols], caps, 4)
            == 0.0
        )


class TestGapBoundOracle:
    """The reported gap brackets the true optimum: what the sharded
    solve achieved is at most the LP optimum of the whole b-matching,
    which is at most the capacity-relaxed upper bound."""

    @pytest.mark.parametrize("seed", range(50))
    def test_lp_optimum_lies_between_achieved_and_bound(self, seed):
        rng = np.random.default_rng(seed)
        problem = _problem(
            seed=seed,
            n_workers=int(rng.integers(6, 30)),
            n_tasks=int(rng.integers(3, 16)),
            n_categories=int(rng.integers(2, 5)),
        )
        solver = get_solver(
            "sharded",
            base=("pruned-greedy", "flow", "greedy")[seed % 3],
            strategy=("category", "balanced")[seed % 2],
            n_shards=3,
            refine=seed % 4 != 0,
            boundary_k=int(rng.integers(1, 6)),
        )
        solver.solve(problem, seed=seed)
        report = solver.last_report
        optimum = lp_optimum(
            problem.benefits.combined,
            problem.worker_capacities(),
            problem.task_capacities(),
        )
        assert report.achieved <= optimum + 1e-9
        assert optimum <= report.upper_bound + 1e-9
