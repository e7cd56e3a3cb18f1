"""Baseline solvers the paper's evaluation compares against.

* **quality-only** — optimizes the requester side alone (the prior-work
  position the abstract criticizes: workers as interchangeable
  executors).  Implemented as flow-optimal on the requester matrix.
* **worker-only** — the symmetric extreme: optimize worker welfare and
  ignore quality.
* **random** — uniformly random feasible edges with positive combined
  benefit; the "no intelligence" floor.
* **round-robin** — tasks take turns picking their best remaining
  worker; the simplest "fair-ish" heuristic a platform might ship.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, register_solver
from repro.matching.b_matching import max_weight_b_matching
from repro.matching.greedy import candidate_edges, take_in_order
from repro.utils.rng import SeedLike, as_rng


def _single_side_solve(
    problem: MBAProblem, side_matrix: np.ndarray
) -> list[tuple[int, int]]:
    edges, _total = max_weight_b_matching(
        side_matrix,
        problem.worker_capacities(),
        problem.task_capacities(),
    )
    return edges


@register_solver("quality-only")
class QualityOnlySolver(Solver):
    """Flow-optimal on the requester benefit matrix alone (λ = 1)."""

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        return self._finish(
            problem, _single_side_solve(problem, problem.benefits.requester)
        )


@register_solver("worker-only")
class WorkerOnlySolver(Solver):
    """Flow-optimal on the worker benefit matrix alone (λ = 0)."""

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        return self._finish(
            problem, _single_side_solve(problem, problem.benefits.worker)
        )


@register_solver("random")
class RandomSolver(Solver):
    """Random feasible edges among positive-combined-benefit candidates."""

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        caps_w = problem.worker_capacities()
        caps_t = problem.task_capacities()
        rows, cols = candidate_edges(problem.benefits.combined, caps_w, caps_t)
        order = np.arange(len(rows))
        as_rng(seed).shuffle(order)
        edges = take_in_order(rows[order], cols[order], caps_w, caps_t)
        return self._finish(problem, edges)


@register_solver("round-robin")
class RoundRobinSolver(Solver):
    """Tasks take turns claiming their best remaining worker.

    Each pass over the tasks gives every task (with quota left) one
    pick: the available worker with the highest combined benefit on a
    positive edge.  Passes repeat until nothing can be claimed.
    """

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        caps_w = problem.worker_capacities().copy()
        caps_t = problem.task_capacities().copy()
        combined = problem.benefits.combined
        taken: set[tuple[int, int]] = set()
        edges: list[tuple[int, int]] = []
        progressed = True
        while progressed:
            progressed = False
            for j in range(problem.n_tasks):
                if caps_t[j] <= 0:
                    continue
                best_i = -1
                best_score = 0.0
                for i in range(problem.n_workers):
                    if caps_w[i] <= 0 or (i, j) in taken:
                        continue
                    score = float(combined[i, j])
                    if score > best_score:
                        best_score = score
                        best_i = i
                if best_i >= 0:
                    caps_w[best_i] -= 1
                    caps_t[j] -= 1
                    taken.add((best_i, j))
                    edges.append((best_i, j))
                    progressed = True
        return self._finish(problem, edges)
