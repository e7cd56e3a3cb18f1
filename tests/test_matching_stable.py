"""Tests for deferred acceptance and blocking pairs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.matching.stable import blocking_pairs, deferred_acceptance


def _ones(n):
    return np.ones(n, dtype=int)


class TestDeferredAcceptance:
    def test_mutual_first_choices(self):
        worker_prefs = np.array([[2.0, 1.0], [1.0, 2.0]])
        task_prefs = np.array([[2.0, 1.0], [1.0, 2.0]])
        edges = deferred_acceptance(
            worker_prefs, task_prefs, _ones(2), _ones(2)
        )
        assert edges == [(0, 0), (1, 1)]

    def test_displacement(self):
        """Task 0 prefers worker 1; worker 0 must settle for task 1."""
        worker_prefs = np.array([[2.0, 1.0], [2.0, 1.0]])
        task_prefs = np.array([[1.0, 5.0], [2.0, 1.0]])
        edges = deferred_acceptance(
            worker_prefs, task_prefs, _ones(2), _ones(2)
        )
        assert (1, 0) in edges
        assert (0, 1) in edges

    def test_unacceptable_pairs_never_matched(self):
        worker_prefs = np.array([[0.0, 1.0]])
        task_prefs = np.array([[5.0, -1.0]])
        edges = deferred_acceptance(
            worker_prefs, task_prefs, _ones(1), _ones(2)
        )
        # Task 0 unacceptable to worker (0 score); task 1 finds the
        # worker unacceptable. Nothing matches.
        assert edges == []

    def test_task_capacity_respected(self):
        worker_prefs = np.array([[1.0], [2.0], [3.0]])
        task_prefs = np.array([[1.0], [2.0], [3.0]])
        edges = deferred_acceptance(
            worker_prefs, task_prefs, _ones(3), np.array([2])
        )
        assert len(edges) == 2
        # The two best workers (1, 2) hold the slots.
        assert {i for i, _j in edges} == {1, 2}

    def test_worker_capacity_respected(self):
        worker_prefs = np.array([[3.0, 2.0, 1.0]])
        task_prefs = np.array([[1.0, 1.0, 1.0]])
        edges = deferred_acceptance(
            worker_prefs, task_prefs, np.array([2]), _ones(3)
        )
        assert len(edges) == 2
        assert {j for _i, j in edges} == {0, 1}  # the two best tasks

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            deferred_acceptance(
                np.zeros((2, 2)), np.zeros((2, 3)), _ones(2), _ones(2)
            )

    def test_capacity_shape_check(self):
        with pytest.raises(ValidationError):
            deferred_acceptance(
                np.ones((2, 2)), np.ones((2, 2)), _ones(3), _ones(2)
            )

    def test_result_has_no_blocking_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n, m = 8, 6
            worker_prefs = rng.uniform(-1, 3, (n, m))
            task_prefs = rng.uniform(-1, 3, (n, m))
            caps_w = rng.integers(1, 3, n)
            caps_t = rng.integers(1, 3, m)
            edges = deferred_acceptance(
                worker_prefs, task_prefs, caps_w, caps_t
            )
            blockers = blocking_pairs(
                edges, worker_prefs, task_prefs, caps_w, caps_t
            )
            assert blockers == []

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_stability_property(self, seed):
        """DA output is always stable (property-based)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 7))
        worker_prefs = rng.uniform(-1, 2, (n, m))
        task_prefs = rng.uniform(-1, 2, (n, m))
        caps_w = rng.integers(0, 3, n)
        caps_t = rng.integers(0, 3, m)
        edges = deferred_acceptance(worker_prefs, task_prefs, caps_w, caps_t)
        # Capacities respected.
        from collections import Counter

        w_load = Counter(i for i, _ in edges)
        t_load = Counter(j for _, j in edges)
        assert all(w_load[i] <= caps_w[i] for i in w_load)
        assert all(t_load[j] <= caps_t[j] for j in t_load)
        assert blocking_pairs(
            edges, worker_prefs, task_prefs, caps_w, caps_t
        ) == []


class TestBlockingPairs:
    def test_obvious_blocker(self):
        worker_prefs = np.array([[5.0, 1.0], [5.0, 1.0]])
        task_prefs = np.array([[5.0, 1.0], [1.0, 1.0]])
        # Match both to their worst options; (0, 0) blocks.
        edges = [(0, 1), (1, 0)]
        blockers = blocking_pairs(
            edges, worker_prefs, task_prefs, _ones(2), _ones(2)
        )
        assert (0, 0) in blockers

    def test_empty_matching_all_acceptable_pairs_block(self):
        worker_prefs = np.ones((2, 2))
        task_prefs = np.ones((2, 2))
        blockers = blocking_pairs(
            [], worker_prefs, task_prefs, _ones(2), _ones(2)
        )
        assert len(blockers) == 4

    def test_unacceptable_pairs_never_block(self):
        worker_prefs = np.array([[-1.0]])
        task_prefs = np.array([[5.0]])
        assert blocking_pairs(
            [], worker_prefs, task_prefs, _ones(1), _ones(1)
        ) == []

    def test_fractional_capacity_refused_not_truncated(self):
        with pytest.raises(ValidationError, match="must be integers"):
            blocking_pairs(
                [], np.ones((2, 2)), np.ones((2, 2)), [1.5, 1], _ones(2)
            )


class TestStableSolver:
    def test_registered_and_stable(self, small_problem):
        from repro.core.solvers import get_solver
        from repro.core.solvers.stable import StableMatchingSolver

        assignment = get_solver("stable-matching").solve(small_problem)
        assert StableMatchingSolver.count_blocking_pairs(
            small_problem, assignment
        ) == 0

    def test_flow_beats_stable_on_total(self, small_problem):
        from repro.core.solvers import get_solver

        stable = get_solver("stable-matching").solve(small_problem)
        flow = get_solver("flow").solve(small_problem)
        assert flow.combined_total() >= stable.combined_total() - 1e-9
