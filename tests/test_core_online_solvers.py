"""Tests specific to the online solvers."""

import hashlib

import numpy as np
import pytest

from repro.benefit.matrices import BenefitMatrices
from repro.benefit.mutual import LinearCombiner
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.datagen.traces import workload_registry
from repro.market.arrivals import BatchArrivals, PoissonArrivals, TraceArrivals
from repro.matching.online import online_greedy_matching


def _problem(seed=0, **kwargs):
    defaults = dict(n_workers=20, n_tasks=10)
    defaults.update(kwargs)
    market = generate_market(SyntheticConfig(**defaults), seed=seed)
    return MBAProblem(market, combiner=LinearCombiner(0.5))


def _block(weights, worker_caps, task_caps):
    """A problem whose combined benefit is exactly ``weights``."""
    weights = np.asarray(weights, dtype=float)
    benefits = BenefitMatrices(weights, weights, weights, LinearCombiner(0.5))
    return MBAProblem.from_benefits(benefits, worker_caps, task_caps)


def _generated_problems():
    for name, make in sorted(workload_registry().items()):
        for market_seed in range(3):
            market = make(n_workers=40, n_tasks=25, seed=market_seed)
            yield name, market_seed, MBAProblem(
                market, combiner=LinearCombiner(0.5)
            )


#: Arrival processes the online solvers are compared under.
ARRIVALS = {
    "poisson": lambda n: PoissonArrivals(),
    "trace": lambda n: TraceArrivals(list(range(n - 1, -1, -1))),
    "batch": lambda n: BatchArrivals(7),
}


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

    @pytest.mark.parametrize(
        "weights",
        [[[1.0, 1.0, 0.5]], [[0.5, 2.0, 2.0], [2.0, 2.0, 2.0]]],
    )
    def test_ties_go_to_the_lowest_task_like_the_reference(self, weights):
        """A tied row takes its lowest task index, as the scalar
        ``online_greedy_matching`` scan does."""
        n_workers, n_tasks = np.shape(weights)
        problem = _block(weights, [1] * n_workers, [1] * n_tasks)
        solver = get_solver(
            "online-greedy", arrivals=TraceArrivals(list(range(n_workers)))
        )
        reference = online_greedy_matching(
            list(range(n_workers)),
            n_tasks,
            lambda i, j: weights[i][j],
        )
        assert sorted(solver.solve(problem, seed=0).edges) == reference


class TestOnlineTwoPhase:
    def test_sample_fraction_zero_equals_greedy(self):
        """``online-greedy`` is sample-and-price with an empty sample,
        over seeds and arrival processes."""
        problems = [_problem(seed=3)]
        problems += [problem for _name, _seed, problem in _generated_problems()]
        for problem in problems:
            for arrivals in ARRIVALS.values():
                process = arrivals(problem.n_workers)
                greedy = get_solver("online-greedy", arrivals=process)
                two_phase = get_solver(
                    "online-two-phase", arrivals=process, sample_fraction=0.0
                )
                for seed in (0, 7):
                    assert (
                        greedy.solve(problem, seed=seed).edges
                        == two_phase.solve(problem, seed=seed).edges
                    )

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


class TestPricing:
    """Regression: a task's price is the largest benefit it earns in the
    exact b-matching of the sample to the task quotas.

    Prices used to come from a maximum-weight assignment on a matrix
    with each sample worker copied once per unit of capacity and each
    task once per replication.  A worker could then take the same task
    twice, and when the copies outnumbered the task slots the weakest
    rows were dropped before solving."""

    @staticmethod
    def _prices(problem, sample):
        solver = get_solver("online-two-phase")
        return solver._price_tasks(
            problem, sample, problem.worker_capacities()
        ).tolist()

    def test_a_worker_prices_each_task_once(self):
        # The expanded matrix gave [10, 0]: both copies of worker 0
        # took a copy of task 0.
        problem = _block([[10.0, 1.0]], [2], [2, 2])
        assert self._prices(problem, [0]) == [10.0, 1.0]

    def test_no_sample_worker_is_dropped(self):
        # Three rows against two slots: dropping the weakest row by its
        # best edge (worker 1, 4.9) gave [5.1, 0].
        problem = _block([[5.0, 0.0], [4.9, 4.0], [5.1, 0.0]], [1, 1, 1], [1, 1])
        assert self._prices(problem, [0, 1, 2]) == [5.1, 4.0]

    def test_phase_two_refuses_an_arrival_below_the_price(self):
        # Worker 0 is the sample and takes both tasks; task 1 is priced
        # at 1, so worker 1's 0.9 on it is refused (it was accepted at
        # the old price 0).
        problem = _block([[10.0, 1.0], [0.5, 0.9]], [2, 1], [2, 2])
        solver = get_solver(
            "online-two-phase", arrivals=TraceArrivals([0, 1]),
            sample_fraction=0.5,
        )
        assert solver.solve(problem, seed=0).edges == ((0, 0), (0, 1))


class TestPinnedEdges:
    """``online-greedy`` and ``online-batch`` edges over generated
    problems, seeds and arrival processes."""

    #: sha256 of every solve's edges over the generated problems, per
    #: solver, recorded when ``online-greedy`` had its own loop and both
    #: solvers inlined the arrival filter.
    PINNED = {
        "online-greedy": (
            "c1a5ac4a2ebbbdd3c37ce2753e5040cfda8f30423431202923b457547b0c6f24"
        ),
        "online-batch": (
            "105fc81c62be2fb65a4757409ed31404a69e69141d1eef4cb0f6228f2a56f7ff"
        ),
    }

    @staticmethod
    def _digest(solver_name):
        digest = hashlib.sha256()
        for name, market_seed, problem in _generated_problems():
            for arrivals in sorted(ARRIVALS):
                process = ARRIVALS[arrivals](problem.n_workers)
                for seed in range(3):
                    edges = (
                        get_solver(solver_name, arrivals=process)
                        .solve(problem, seed=seed)
                        .edges
                    )
                    digest.update(
                        repr((name, market_seed, arrivals, seed, edges)).encode()
                    )
        return digest.hexdigest()

    @pytest.mark.parametrize("solver_name", sorted(PINNED))
    def test_edges_match_the_pinned_digest(self, solver_name):
        assert self._digest(solver_name) == self.PINNED[solver_name]
