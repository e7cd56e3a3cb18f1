"""Greedy: take the best remaining edge while both its ends have room.

When the objective decomposes over edges (:class:`LinearObjective`
under an edge-decomposing combiner) gains never change, so greedy is
one walk over the candidates, heaviest first, ties to the lowest
``(worker, task)`` (:mod:`repro.matching.greedy`).  Only objectives
that do not decompose (:class:`CoverageObjective`, the Nash and
egalitarian combiners) keep lazy greedy: a max-heap of *last known*
marginal gains, whose popped edge is re-evaluated and taken if its
fresh gain still beats the heap top, else re-queued.  For submodular
objectives a stale key upper-bounds the fresh gain, so laziness is
exact; its insertion counter keeps the walk's tie rule.  Over a
partition matroid (worker capacities × task replications) greedy
guarantees 1/2 of the optimum; experiment F12 measures the real gap
(typically > 0.9).
"""

from __future__ import annotations

import heapq
import itertools

from repro.core.assignment import Assignment
from repro.core.objective import LinearObjective, Objective
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, register_solver
from repro.matching.greedy import candidate_edges, ranked_edges, take_in_order
from repro.utils.rng import SeedLike


@register_solver("greedy")
class GreedySolver(Solver):
    """Greedy over the problem's objective.

    Parameters
    ----------
    objective_factory:
        Callable ``problem -> Objective``; defaults to
        :class:`LinearObjective` (the combiner's own objective).  Pass
        ``lambda p: CoverageObjective(p, lam)`` for the submodular
        quality model.
    min_gain:
        Stop when the best available marginal gain falls to or below
        this threshold (0 keeps only strictly beneficial edges).
    """

    def __init__(self, objective_factory=None, min_gain: float = 0.0) -> None:
        self._objective_factory = (
            objective_factory if objective_factory is not None else LinearObjective
        )
        self.min_gain = min_gain

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        objective: Objective = self._objective_factory(problem)
        caps_w = problem.worker_capacities()
        caps_t = problem.task_capacities()
        combined = problem.benefits.combined
        additive = problem.combiner.decomposes_over_edges
        if additive and isinstance(objective, LinearObjective):
            rows, cols = ranked_edges(combined, caps_w, caps_t, self.min_gain)
            return self._finish(problem, take_in_order(rows, cols, caps_w, caps_t))

        # Seed the heap with singleton surrogate gains; for submodular
        # objectives these upper-bound all later marginals.
        rows, cols = candidate_edges(combined, caps_w, caps_t, self.min_gain)
        seeds = zip(combined[rows, cols].tolist(), rows.tolist(), cols.tolist())
        heap = [(-gain, tie, i, j) for tie, (gain, i, j) in enumerate(seeds)]
        heapq.heapify(heap)
        counter = itertools.count(len(heap))
        chosen: list[tuple[int, int]] = []
        while heap:
            _neg_gain, _tie, i, j = heapq.heappop(heap)
            if caps_w[i] <= 0 or caps_t[j] <= 0:
                continue
            gain = objective.marginal(chosen, (i, j))
            if gain <= self.min_gain:
                continue
            if heap and -heap[0][0] > gain + 1e-12:
                # Something else may now be better; re-queue with the
                # fresh key and look again.
                heapq.heappush(heap, (-gain, next(counter), i, j))
                continue
            chosen.append((i, j))
            caps_w[i] -= 1
            caps_t[j] -= 1
        return self._finish(problem, chosen)
