"""Tests for MBAProblem."""

import dataclasses

import numpy as np
import pytest

from repro.benefit.matrices import BenefitMatrices
from repro.benefit.mutual import LinearCombiner, NashCombiner
from repro.benefit.rows import RowwiseBenefit
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.errors import InfeasibleError, ValidationError
from repro.matching.b_matching import max_weight_b_matching
from repro.market.categories import CategoryTaxonomy
from repro.market.market import LaborMarket
from repro.market.task import Task
from repro.market.worker import Worker


class TestConstruction:
    def test_default_combiner(self, tiny_market):
        problem = MBAProblem(tiny_market)
        assert isinstance(problem.combiner, LinearCombiner)
        assert problem.combiner.lam == 0.5

    def test_empty_workers_rejected(self, taxonomy):
        market = LaborMarket([], [Task(task_id=0, category=0)], taxonomy)
        with pytest.raises(ValidationError, match="workers"):
            MBAProblem(market)

    def test_empty_tasks_rejected(self, taxonomy):
        market = LaborMarket(
            [Worker(worker_id=0, skills=np.array([0.5] * 3))], [], taxonomy
        )
        with pytest.raises(ValidationError, match="tasks"):
            MBAProblem(market)

    def test_matrices_materialized(self, tiny_problem):
        assert tiny_problem.benefits.shape == (3, 2)


class TestCapacities:
    def test_inactive_workers_zeroed(self, tiny_market):
        tiny_market.workers[1].active = False
        problem = MBAProblem(tiny_market)
        assert list(problem.worker_capacities()) == [1, 0, 1]
        assert not problem.is_worker_active(1)

    def test_task_capacities(self, tiny_problem):
        assert list(tiny_problem.task_capacities()) == [2, 1]


class TestFeasibility:
    def test_max_assignable_tiny(self, tiny_problem):
        # Demand = 3 slots, supply = 4 capacity; all edges positive in
        # this market, so the full demand can be met.
        assert tiny_problem.max_assignable() == 3

    def test_max_assignable_with_inactive(self, tiny_market):
        for worker in tiny_market.workers:
            worker.active = False
        problem = MBAProblem(tiny_market)
        assert problem.max_assignable() == 0

    def test_require_feasible_passes(self, tiny_problem):
        tiny_problem.require_nonempty_feasible()

    def test_require_feasible_raises_when_all_inactive(self, tiny_market):
        for worker in tiny_market.workers:
            worker.active = False
        problem = MBAProblem(tiny_market)
        with pytest.raises(InfeasibleError):
            problem.require_nonempty_feasible()

    def test_require_feasible_raises_when_all_negative(self, taxonomy):
        """All workers below chance -> every requester edge negative."""
        workers = [
            Worker(worker_id=0, skills=np.array([0.1, 0.1, 0.1]),
                   reservation_wage=100.0)
        ]
        tasks = [Task(task_id=0, category=0, payment=0.01)]
        market = LaborMarket(workers, tasks, taxonomy)
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        with pytest.raises(InfeasibleError):
            problem.require_nonempty_feasible()


def _block(rows, workers, tasks):
    requester, worker = rows.side_row(workers, tasks)
    return BenefitMatrices(
        requester,
        worker,
        rows.combiner.edge_matrix(requester, worker),
        rows.combiner,
    )


class TestFromBenefits:
    @pytest.mark.parametrize(
        "combiner", [LinearCombiner(0.4), NashCombiner()],
        ids=["linear", "nash"],
    )
    def test_block_problem_matches_restricted_market(
        self, small_market, combiner
    ):
        """A block problem solves like the market restricted to it."""
        workers = np.array([3, 0, 11, 7, 19, 5])
        tasks = np.array([8, 1, 4, 6])
        worker_caps = np.array([2, 1, 1, 3, 1, 2])
        task_caps = np.array([1, 2, 1, 1])
        market = small_market
        restricted = MBAProblem(
            type(market)(
                [
                    dataclasses.replace(
                        market.workers[i], capacity=int(c), active=True
                    )
                    for i, c in zip(workers, worker_caps)
                ],
                [
                    dataclasses.replace(market.tasks[j], replication=int(c))
                    for j, c in zip(tasks, task_caps)
                ],
                market.taxonomy,
                market.requesters,
            ),
            combiner=combiner,
        )
        block = MBAProblem.from_benefits(
            _block(RowwiseBenefit(market, combiner=combiner), workers, tasks),
            worker_caps,
            task_caps,
        )
        assert block.market is None
        assert (block.n_workers, block.n_tasks) == (6, 4)
        for side in ("requester", "worker", "combined"):
            assert np.array_equal(
                getattr(block.benefits, side),
                getattr(restricted.benefits, side),
            )
        assert list(block.worker_capacities()) == list(worker_caps)
        assert list(block.task_capacities()) == list(task_caps)
        flow = get_solver("flow")
        ours = flow.solve(block)
        theirs = flow.solve(restricted)
        assert ours.edges == theirs.edges
        assert ours.combined_total() == theirs.combined_total()

    def test_accessors_return_copies(self, tiny_market):
        block = MBAProblem.from_benefits(
            _block(RowwiseBenefit(tiny_market), [0, 1], [0]), [1, 2], [1]
        )
        block.worker_capacities()[0] = 99
        assert list(block.worker_capacities()) == [1, 2]

    @pytest.mark.parametrize(
        "worker_caps, task_caps, message",
        [
            ([1], [1], r"worker_caps shape \(1,\) != \(2,\)"),
            ([1, 1], [1, 1], r"task_caps shape \(2,\) != \(1,\)"),
            ([[1, 1]], [1], "worker_caps shape"),
        ],
        ids=["workers", "tasks", "two-d"],
    )
    def test_capacity_length_must_match_block(
        self, tiny_market, worker_caps, task_caps, message
    ):
        benefits = _block(RowwiseBenefit(tiny_market), [0, 1], [0])
        with pytest.raises(ValidationError, match=message):
            MBAProblem.from_benefits(benefits, worker_caps, task_caps)

    def test_negative_capacity_rejected(self, tiny_market):
        benefits = _block(RowwiseBenefit(tiny_market), [0, 1], [0])
        with pytest.raises(ValidationError, match="task_caps must be non-neg"):
            MBAProblem.from_benefits(benefits, [1, 1], [-1])

    def test_non_integer_capacity_rejected(self, tiny_market):
        benefits = _block(RowwiseBenefit(tiny_market), [0, 1], [0])
        with pytest.raises(ValidationError, match="worker_caps must hold int"):
            MBAProblem.from_benefits(benefits, [1.5, 1.0], [1])

    def test_empty_block_rejected(self, tiny_market):
        benefits = _block(RowwiseBenefit(tiny_market), [], [0])
        with pytest.raises(ValidationError, match="non-empty"):
            MBAProblem.from_benefits(benefits, np.zeros(0, int), [1])

    def test_non_finite_block_fails_like_the_kernel(self):
        weights = np.array([[1.0, np.nan], [0.5, 2.0]])
        with pytest.raises(ValidationError) as direct:
            max_weight_b_matching(weights, [1, 1], [1, 1])
        block = MBAProblem.from_benefits(
            BenefitMatrices(weights, weights, weights, LinearCombiner(0.5)),
            [1, 1],
            [1, 1],
        )
        with pytest.raises(ValidationError) as solved:
            get_solver("flow").solve(block)
        assert str(solved.value) == str(direct.value) == (
            "weights must be finite"
        )

    def test_block_shapes_must_agree(self):
        with pytest.raises(ValidationError, match="share one shape"):
            BenefitMatrices(
                np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)),
                LinearCombiner(0.5),
            )

