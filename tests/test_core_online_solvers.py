"""Tests specific to the online solvers."""

import numpy as np
import pytest

from repro.benefit.mutual import LinearCombiner
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.market.arrivals import TraceArrivals


def _problem(seed=0, **kwargs):
    defaults = dict(n_workers=20, n_tasks=10)
    defaults.update(kwargs)
    market = generate_market(SyntheticConfig(**defaults), seed=seed)
    return MBAProblem(market, combiner=LinearCombiner(0.5))


class TestOnlineGreedy:
    def test_trace_order_is_respected(self):
        """With a fixed trace, earlier workers get first pick."""
        problem = _problem(seed=1, n_workers=4, n_tasks=2,
                           replication_choices=(1,))
        order = [3, 2, 1, 0]
        solver = get_solver(
            "online-greedy", arrivals=TraceArrivals(order)
        )
        assignment = solver.solve(problem, seed=0)
        # Worker 3 arrived first and must hold its top positive task.
        scores = problem.benefits.combined[3]
        best = int(np.argmax(scores))
        if scores[best] > 0:
            assert (3, best) in assignment.edges

    def test_never_beats_offline(self):
        for seed in range(5):
            problem = _problem(seed=seed)
            offline = get_solver("flow").solve(problem).combined_total()
            online = (
                get_solver("online-greedy")
                .solve(problem, seed=seed)
                .combined_total()
            )
            assert online <= offline + 1e-9

    def test_reasonable_competitive_ratio(self):
        """Average-case ratio under random order should be >= 0.5."""
        ratios = []
        for seed in range(10):
            problem = _problem(seed=seed)
            offline = get_solver("flow").solve(problem).combined_total()
            if offline <= 0:
                continue
            online = (
                get_solver("online-greedy")
                .solve(problem, seed=seed)
                .combined_total()
            )
            ratios.append(online / offline)
        assert np.mean(ratios) >= 0.5

    def test_worker_capacity_respected_per_arrival(self):
        problem = _problem(seed=2, capacity_low=2, capacity_high=2)
        assignment = get_solver("online-greedy").solve(problem, seed=0)
        loads = {}
        for i, _j in assignment.edges:
            loads[i] = loads.get(i, 0) + 1
        assert all(load <= 2 for load in loads.values())


class TestOnlineTwoPhase:
    def test_sample_fraction_zero_equals_greedy(self):
        problem = _problem(seed=3)
        greedy = get_solver("online-greedy").solve(problem, seed=7)
        two_phase = get_solver(
            "online-two-phase", sample_fraction=0.0
        ).solve(problem, seed=7)
        assert greedy.edges == two_phase.edges

    def test_never_beats_offline(self):
        for seed in range(5):
            problem = _problem(seed=seed + 50)
            offline = get_solver("flow").solve(problem).combined_total()
            online = (
                get_solver("online-two-phase")
                .solve(problem, seed=seed)
                .combined_total()
            )
            assert online <= offline + 1e-9

    def test_two_phase_competitive_on_average(self):
        """Across many random orders, two-phase should be decent."""
        values = {"online-greedy": [], "online-two-phase": []}
        problem = _problem(seed=77, n_workers=40, n_tasks=20)
        offline = get_solver("flow").solve(problem).combined_total()
        for seed in range(10):
            for name in values:
                values[name].append(
                    get_solver(name).solve(problem, seed=seed).combined_total()
                )
        for name, series in values.items():
            assert np.mean(series) / offline >= 0.45, name

    def test_bad_sample_fraction(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            get_solver("online-two-phase", sample_fraction=1.5)


class TestBlockProblems:
    """The online solvers read capacities from the problem, so they run
    on a benefit block with no market behind it."""

    @pytest.mark.parametrize("name", ["online-greedy", "online-two-phase"])
    def test_block_gives_the_market_edges(self, name):
        problem = _problem(seed=4, capacity_low=1, capacity_high=3)
        block = MBAProblem.from_benefits(
            problem.benefits,
            problem.worker_capacities(),
            problem.task_capacities(),
        )
        on_market = get_solver(name).solve(problem, seed=2)
        on_block = get_solver(name).solve(block, seed=2)
        assert on_block.edges == on_market.edges
        assert on_block.edges
