"""Batched online assignment: micro-batching between online and offline.

Real platforms rarely decide one worker at a time; they buffer arrivals
for a short window and solve the window *optimally* against the
remaining task quota.  That is this solver: workers arrive in batches
(from a :class:`~repro.market.arrivals.BatchArrivals`-style process),
and each batch is assigned by maximum-weight b-matching against the
quota the previous batches left behind.

Batch size interpolates the online/offline spectrum:

* batch 1  ≈ online greedy (one worker, locally optimal);
* batch ≥ |W| = the offline flow optimum.

Experiment F9 sweeps the batch size and shows the competitive-ratio
gap closing — the operational argument for micro-batching.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, register_solver
from repro.core.solvers.online import _active_arrival_order
from repro.errors import ValidationError
from repro.market.arrivals import ArrivalProcess, PoissonArrivals
from repro.matching.b_matching import max_weight_b_matching
from repro.utils.rng import SeedLike, as_rng


@register_solver("online-batch")
class OnlineBatchSolver(Solver):
    """Optimal per-batch assignment against remaining quota.

    Parameters
    ----------
    batch_size:
        Number of arrivals buffered before solving.
    arrivals:
        Arrival-order process (default Poisson/random order).
    """

    def __init__(
        self,
        batch_size: int = 10,
        arrivals: ArrivalProcess | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValidationError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.batch_size = batch_size
        self.arrivals = arrivals if arrivals is not None else PoissonArrivals()

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        rng = as_rng(seed)
        order = _active_arrival_order(problem, self.arrivals, rng)
        quota = problem.task_capacities().astype(int).copy()
        capacities = problem.worker_capacities()
        combined = problem.benefits.combined
        edges: list[tuple[int, int]] = []

        for start in range(0, len(order), self.batch_size):
            batch = order[start : start + self.batch_size]
            batch_caps = np.array([capacities[i] for i in batch], dtype=int)
            if batch_caps.sum() == 0 or quota.sum() == 0:
                continue
            weights = combined[np.ix_(batch, range(problem.n_tasks))]
            batch_edges, _total = max_weight_b_matching(
                weights, batch_caps, quota
            )
            for row, j in batch_edges:
                i = batch[row]
                quota[j] -= 1
                edges.append((i, j))
        return self._finish(problem, edges)
