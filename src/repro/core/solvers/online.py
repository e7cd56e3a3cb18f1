"""Online MBA solvers: workers arrive one at a time.

The online setting models a live platform: each worker shows up, must
be given tasks (up to their capacity) immediately, and the decision is
irrevocable.  Task replication quotas deplete as the stream proceeds.

* :class:`OnlineTwoPhaseSolver` — sample-and-price (see
  :func:`repro.matching.online.two_phase_matching`): the first
  fraction of arrivals is matched greedily; the optimal b-matching of
  that prefix to the task quotas (:func:`~repro.matching.online.match_prices`)
  sets per-task price thresholds that later arrivals must beat.  Under
  random arrival order this filters low-value grabs and closes much of
  the gap to the offline optimum (experiment F9).
* :class:`OnlineGreedySolver` — each arrival takes its highest
  combined-benefit tasks among those with remaining quota: the same
  algorithm with an empty sample, so every price is 0.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, register_solver
from repro.market.arrivals import ArrivalProcess, PoissonArrivals
from repro.matching.online import match_prices, take_best
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_fraction


def _active_arrival_order(
    problem: MBAProblem, arrivals: ArrivalProcess, seed: SeedLike
) -> list[int]:
    """Arrival order over all workers, filtered to active ones."""
    order = arrivals.order(problem.n_workers, seed)
    return [i for i in order if problem.is_worker_active(i)]


def _take_best_tasks(
    problem: MBAProblem,
    worker_index: int,
    capacities: np.ndarray,
    quota: np.ndarray,
    thresholds: np.ndarray,
) -> list[tuple[int, int]]:
    """Give one arriving worker their best tasks above the thresholds,
    up to their entry of ``capacities`` (:func:`take_best`)."""
    taken = take_best(
        problem.benefits.combined[worker_index],
        int(capacities[worker_index]),
        np.where(quota > 0, thresholds, np.inf),
    )
    quota[taken] -= 1
    return [(worker_index, int(j)) for j in taken]


@register_solver("online-two-phase")
class OnlineTwoPhaseSolver(Solver):
    """Sample-and-price online assignment.

    Phase 1 (first ``sample_fraction`` of active arrivals) is assigned
    greedily — those workers still produce value.  The optimal
    b-matching of the observed workers, at their capacities, to the
    *full original* quota is then computed; the largest benefit each
    task earns there becomes its price, and phase-2 arrivals only take
    a task when they beat its price.
    """

    def __init__(
        self,
        arrivals: ArrivalProcess | None = None,
        sample_fraction: float = 0.5,
    ) -> None:
        self.arrivals = arrivals if arrivals is not None else PoissonArrivals()
        self.sample_fraction = check_fraction(
            "sample_fraction", sample_fraction
        )

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        rng = as_rng(seed)
        order = _active_arrival_order(problem, self.arrivals, rng)
        cutoff = int(round(self.sample_fraction * len(order)))
        sample, rest = order[:cutoff], order[cutoff:]

        capacities = problem.worker_capacities()
        quota = problem.task_capacities()
        no_threshold = np.zeros(problem.n_tasks)
        edges: list[tuple[int, int]] = []
        for worker_index in sample:
            edges.extend(
                _take_best_tasks(
                    problem, worker_index, capacities, quota, no_threshold
                )
            )

        thresholds = self._price_tasks(problem, sample, capacities)
        for worker_index in rest:
            edges.extend(
                _take_best_tasks(
                    problem, worker_index, capacities, quota, thresholds
                )
            )
        return self._finish(problem, edges)

    def _price_tasks(
        self, problem: MBAProblem, sample: list[int], capacities: np.ndarray
    ) -> np.ndarray:
        """Per-task price: the largest benefit the task earns in the
        optimal b-matching of the sample to the full quota."""
        return match_prices(
            problem.benefits.combined[sample],
            capacities[sample],
            problem.task_capacities(),
        )


@register_solver("online-greedy")
class OnlineGreedySolver(OnlineTwoPhaseSolver):
    """Greedy immediate assignment per arriving worker: sample-and-price
    with an empty sample."""

    def __init__(self, arrivals: ArrivalProcess | None = None) -> None:
        super().__init__(arrivals, sample_fraction=0.0)
