"""Tests for the shared cross-round solver state helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.benefit.mutual import LinearCombiner
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.core.solvers.state import (
    WarmState,
    edge_ids,
    index_maps,
    problem_fingerprint,
    retention_overlap,
)
from repro.datagen.synthetic import SyntheticConfig, generate_market


def _problem(seed: int = 3, n_workers: int = 12, n_tasks: int = 6):
    market = generate_market(
        SyntheticConfig(
            n_workers=n_workers,
            n_tasks=n_tasks,
            replication_choices=(1, 2),
            capacity_low=1,
            capacity_high=2,
        ),
        seed=seed,
    )
    return MBAProblem(market, combiner=LinearCombiner(0.5))


class TestSharedHelpers:
    def test_edge_ids_use_stable_entity_ids(self):
        problem = _problem()
        assignment = get_solver("greedy").solve(problem, seed=0)
        ids = edge_ids(problem, assignment)
        market = problem.market
        assert ids == {
            (market.workers[i].worker_id, market.tasks[j].task_id)
            for i, j in assignment.edges
        }

    def test_retention_overlap_bounds(self):
        problem = _problem()
        assignment = get_solver("greedy").solve(problem, seed=0)
        ids = edge_ids(problem, assignment)
        assert retention_overlap(ids, problem, assignment) == 1.0
        assert retention_overlap(set(), problem, assignment) == 1.0

    def test_incremental_reexports_shared_helpers(self):
        # Moved into state.py; the historical import path must hold.
        from repro.core.solvers import incremental

        assert incremental.edge_ids is edge_ids
        assert incremental.retention_overlap is retention_overlap

    def test_index_maps_round_trip(self):
        problem = _problem()
        worker_index, task_index = index_maps(problem.market)
        for i, worker in enumerate(problem.market.workers):
            assert worker_index[worker.worker_id] == i
        for j, task in enumerate(problem.market.tasks):
            assert task_index[task.task_id] == j


class TestProblemFingerprint:
    def test_identical_inputs_identical_fingerprint(self):
        assert problem_fingerprint(_problem(seed=3)) == problem_fingerprint(
            _problem(seed=3)
        )

    def test_different_benefits_differ(self):
        assert problem_fingerprint(_problem(seed=3)) != problem_fingerprint(
            _problem(seed=4)
        )

    def test_deactivated_worker_changes_fingerprint(self):
        before = problem_fingerprint(_problem(seed=3))
        market = generate_market(
            SyntheticConfig(
                n_workers=12,
                n_tasks=6,
                replication_choices=(1, 2),
                capacity_low=1,
                capacity_high=2,
            ),
            seed=3,
        )
        market.workers[0].active = False
        changed = MBAProblem(market, combiner=LinearCombiner(0.5))
        assert problem_fingerprint(changed) != before

    def test_memoized_on_problem_instance(self):
        problem = _problem()
        first = problem_fingerprint(problem)
        assert problem._fingerprint == first
        # Poke the memo to prove the second call reads it instead of
        # rehashing (the real matrices are unchanged, so only a memo
        # hit can return the sentinel).
        problem._fingerprint = b"sentinel"
        assert problem_fingerprint(problem) == b"sentinel"


class TestWarmState:
    def test_churn_is_total_before_any_record(self):
        state = WarmState()
        assert state.churn_fraction(_problem().market) == 1.0

    def test_churn_zero_after_record_on_same_market(self):
        problem = _problem()
        state = WarmState()
        assignment = get_solver("greedy").solve(problem, seed=0)
        state.record(problem, problem_fingerprint(problem), assignment)
        assert state.churn_fraction(problem.market) == 0.0
        assert state.rounds_recorded == 1
        assert state.edges == tuple(assignment.edges)

    def test_churn_tracks_unseen_entities(self):
        problem = _problem()
        state = WarmState()
        assignment = get_solver("greedy").solve(problem, seed=0)
        state.record(problem, problem_fingerprint(problem), assignment)
        # Ids are sequential per market, so a doubled market has the
        # original ids plus as many unseen ones again: churn = 0.5.
        grown = _problem(seed=99, n_workers=24, n_tasks=12)
        assert state.churn_fraction(grown.market) == pytest.approx(0.5)

    def test_price_vector_default_and_recall(self):
        problem = _problem()
        market = problem.market
        state = WarmState()
        assert np.array_equal(
            state.price_vector(market), np.zeros(market.n_tasks)
        )
        task_id = market.tasks[1].task_id
        state.task_prices[task_id] = 2.5
        prices = state.price_vector(market)
        assert prices[1] == 2.5
        assert prices[0] == 0.0

    def test_picklable_for_checkpoints(self):
        import pickle

        problem = _problem()
        state = WarmState()
        assignment = get_solver("greedy").solve(problem, seed=0)
        state.record(problem, problem_fingerprint(problem), assignment)
        clone = pickle.loads(pickle.dumps(state))
        assert clone.fingerprint == state.fingerprint
        assert clone.edges == state.edges
        assert clone.seen_workers == state.seen_workers
