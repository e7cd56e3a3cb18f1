"""Greedy seed + swap-based local search.

Starts from the greedy solution and repeatedly applies the best
improving move among:

* **add** — insert an unused feasible edge with positive gain;
* **drop** — remove an edge whose removal increases the objective
  (possible for the egalitarian/Nash combiners and for negative
  worker-side edges);
* **swap** — replace one edge by another that reuses its freed
  worker or task capacity.

Local search is the standard way to optimize the *non-decomposing*
combiners (egalitarian, Nash), for which neither flow nor plain greedy
surrogate ordering is aligned with the true objective.  It terminates
when no move improves by more than ``tolerance``, with an iteration cap
for safety.

Performance: for :class:`LinearObjective` — under *any* combiner — the
objective value depends only on the two side totals, which change by a
matrix lookup per added/removed edge.  The solver exploits that with an
O(1)-per-candidate fast path; only set-valued objectives (coverage)
fall back to full re-evaluation.
"""

from __future__ import annotations

import math

from repro.core.assignment import Assignment
from repro.core.objective import LinearObjective, Objective
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, register_solver
from repro.core.solvers.greedy import GreedySolver
from repro.matching.greedy import candidate_edges
from repro.utils.rng import SeedLike
from repro.utils.stats import edge_matrix_sum


@register_solver("local-search")
class LocalSearchSolver(Solver):
    """Best-improvement local search seeded by greedy."""

    def __init__(
        self,
        objective_factory=None,
        max_moves: int = 10_000,
        tolerance: float = 1e-9,
    ) -> None:
        self._objective_factory = (
            objective_factory if objective_factory is not None else LinearObjective
        )
        self.max_moves = max_moves
        self.tolerance = tolerance

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        seed_assignment = GreedySolver(self._objective_factory).solve(
            problem, seed
        )
        objective: Objective = self._objective_factory(problem)
        edges = list(seed_assignment.edges)
        if type(objective) is LinearObjective:
            edges = self._solve_side_totals(problem, edges)
        else:
            edges = self._solve_generic(problem, objective, edges)
        return self._finish(problem, edges)

    # -- fast path: value = combiner(total_req, total_wrk) ----------------

    def _solve_side_totals(
        self, problem: MBAProblem, edges: list[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        requester = problem.benefits.requester
        worker = problem.benefits.worker
        total = problem.combiner.total
        caps_w = problem.worker_capacities().copy()
        caps_t = problem.task_capacities().copy()
        for i, j in edges:
            caps_w[i] -= 1
            caps_t[j] -= 1
        candidates = _candidates(problem)
        req_sum = edge_matrix_sum(requester, edges)
        wrk_sum = edge_matrix_sum(worker, edges)
        value = total(req_sum, wrk_sum)

        for _move in range(self.max_moves):
            best_delta = self.tolerance
            best_apply = None
            edge_set = set(edges)

            for a, b in candidates:
                if (a, b) in edge_set or caps_w[a] <= 0 or caps_t[b] <= 0:
                    continue
                candidate_value = total(
                    req_sum + requester[a, b], wrk_sum + worker[a, b]
                )
                delta = candidate_value - value
                if delta > best_delta or (
                    value == -math.inf and candidate_value > -math.inf
                ):
                    best_delta = delta
                    best_apply = ("add", (a, b), None)

            for position, (i, j) in enumerate(edges):
                req_without = req_sum - requester[i, j]
                wrk_without = wrk_sum - worker[i, j]
                delta_drop = total(req_without, wrk_without) - value
                if delta_drop > best_delta:
                    best_delta = delta_drop
                    best_apply = ("drop", (i, j), position)
                for a, b in candidates:
                    if (a, b) in edge_set or (a, b) == (i, j):
                        continue
                    free_w = caps_w[a] + (1 if a == i else 0)
                    free_t = caps_t[b] + (1 if b == j else 0)
                    if free_w <= 0 or free_t <= 0:
                        continue
                    delta = (
                        total(
                            req_without + requester[a, b],
                            wrk_without + worker[a, b],
                        )
                        - value
                    )
                    if delta > best_delta:
                        best_delta = delta
                        best_apply = ("swap", (a, b), position)

            if best_apply is None:
                break
            edges, caps_w, caps_t = _apply_move(
                best_apply, edges, caps_w, caps_t
            )
            req_sum = edge_matrix_sum(requester, edges)
            wrk_sum = edge_matrix_sum(worker, edges)
            value = total(req_sum, wrk_sum)
        return edges

    # -- generic path: arbitrary set objectives ----------------------------

    def _solve_generic(
        self,
        problem: MBAProblem,
        objective: Objective,
        edges: list[tuple[int, int]],
    ) -> list[tuple[int, int]]:
        caps_w = problem.worker_capacities().copy()
        caps_t = problem.task_capacities().copy()
        for i, j in edges:
            caps_w[i] -= 1
            caps_t[j] -= 1
        candidates = _candidates(problem)
        value = objective.value(edges)

        for _move in range(self.max_moves):
            best_delta = self.tolerance
            best_apply = None
            edge_set = set(edges)

            for a, b in candidates:
                if (a, b) in edge_set or caps_w[a] <= 0 or caps_t[b] <= 0:
                    continue
                delta = objective.value(edges + [(a, b)]) - value
                if delta > best_delta:
                    best_delta = delta
                    best_apply = ("add", (a, b), None)

            for position, (i, j) in enumerate(edges):
                without = edges[:position] + edges[position + 1 :]
                base = objective.value(without)
                delta_drop = base - value
                if delta_drop > best_delta:
                    best_delta = delta_drop
                    best_apply = ("drop", (i, j), position)
                for a, b in candidates:
                    if (a, b) in edge_set or (a, b) == (i, j):
                        continue
                    free_w = caps_w[a] + (1 if a == i else 0)
                    free_t = caps_t[b] + (1 if b == j else 0)
                    if free_w <= 0 or free_t <= 0:
                        continue
                    delta = objective.value(without + [(a, b)]) - value
                    if delta > best_delta:
                        best_delta = delta
                        best_apply = ("swap", (a, b), position)

            if best_apply is None:
                break
            edges, caps_w, caps_t = _apply_move(
                best_apply, edges, caps_w, caps_t
            )
            # Recompute rather than accumulate deltas: robust to the
            # -inf values the Nash combiner produces on degenerate sets.
            value = objective.value(edges)
        return edges


def _candidates(problem: MBAProblem) -> list[tuple[int, int]]:
    """Every edge whose worker and task have capacity, row-major."""
    rows, cols = candidate_edges(
        problem.benefits.combined,
        problem.worker_capacities(),
        problem.task_capacities(),
        floor=-math.inf,
    )
    return list(zip(rows.tolist(), cols.tolist()))


def _apply_move(move, edges, caps_w, caps_t):
    """Apply an (add/drop/swap) move; returns updated structures."""
    kind, edge, position = move
    edges = list(edges)
    if kind == "add":
        edges.append(edge)
        caps_w[edge[0]] -= 1
        caps_t[edge[1]] -= 1
    elif kind == "drop":
        removed = edges.pop(position)
        caps_w[removed[0]] += 1
        caps_t[removed[1]] += 1
    else:  # swap
        removed = edges.pop(position)
        caps_w[removed[0]] += 1
        caps_t[removed[1]] += 1
        edges.append(edge)
        caps_w[edge[0]] -= 1
        caps_t[edge[1]] -= 1
    return edges, caps_w, caps_t
