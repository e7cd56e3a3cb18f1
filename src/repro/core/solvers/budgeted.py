"""Budgeted assignment via Lagrangian relaxation.

"Maximize mutual benefit subject to total payments ≤ B" couples all
edges through one knapsack-style constraint, which breaks the clean
flow structure.  The classical remedy is Lagrangian relaxation: solve

    max  benefit(M) − λ · payment(M)

with the *unconstrained* flow solver, and bisect on the price λ ≥ 0
until the spend meets the budget.  Standard properties, which the tests
lock empirically:

* spend(λ) is non-increasing in λ (higher price, thinner assignment);
* every λ-solution is *optimal for its own spend level* — it maximizes
  benefit among assignments spending no more than it does (Lagrangian
  optimality / the "Lagrangian certificate");
* the returned solution is feasible (spend ≤ B) and its benefit is
  within the duality gap of the true budgeted optimum; the gap closes
  when some λ hits the budget exactly.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, register_solver
from repro.errors import ValidationError
from repro.matching.b_matching import max_weight_b_matching
from repro.matching.greedy import candidate_edges, ranked_edges
from repro.utils.rng import SeedLike
from repro.utils.stats import edge_matrix_sum


def assignment_spend(problem: MBAProblem, edges) -> float:
    """Total payments committed by a set of edges."""
    if not edges:
        return 0.0
    payments = problem.market.task_payments()
    task_index = np.asarray(edges, dtype=np.int64)[:, 1]
    return float(payments[task_index].sum())


@register_solver("budgeted-flow")
class BudgetedFlowSolver(Solver):
    """Bisection on the Lagrangian payment price.

    Parameters
    ----------
    budget:
        Total payment cap across the whole assignment; ``inf`` degrades
        to the plain flow solver.
    max_bisections:
        Bisection steps on λ; 40 reaches float resolution.
    """

    def __init__(
        self, budget: float = float("inf"), max_bisections: int = 40
    ) -> None:
        if budget < 0:
            raise ValidationError(f"budget must be >= 0, got {budget}")
        if max_bisections < 1:
            raise ValidationError("max_bisections must be >= 1")
        self.budget = budget
        self.max_bisections = max_bisections

    def _solve_at_price(
        self, problem: MBAProblem, price: float
    ) -> list[tuple[int, int]]:
        payments = problem.market.task_payments()
        weights = problem.benefits.combined - price * payments[np.newaxis, :]
        edges, _total = max_weight_b_matching(
            weights, problem.worker_capacities(), problem.task_capacities()
        )
        return edges

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        free_edges = self._solve_at_price(problem, 0.0)
        if assignment_spend(problem, free_edges) <= self.budget:
            return self._finish(problem, free_edges)

        # Find a price high enough to be feasible (spend is
        # non-increasing in price; at a price above max benefit/payment
        # no edge survives, so spend reaches 0).
        low, high = 0.0, 1.0
        best_feasible: list[tuple[int, int]] = []
        for _ in range(60):
            edges = self._solve_at_price(problem, high)
            if assignment_spend(problem, edges) <= self.budget:
                best_feasible = edges
                break
            high *= 2.0
        else:
            return self._finish(problem, [])

        for _ in range(self.max_bisections):
            mid = (low + high) / 2.0
            edges = self._solve_at_price(problem, mid)
            if assignment_spend(problem, edges) <= self.budget:
                best_feasible = edges
                high = mid
            else:
                low = mid

        # The Lagrangian point can land well under budget (the solution
        # jumps discontinuously in λ).  Take the best of several
        # repairs — density-filled Lagrangian, pure density greedy, and
        # the single best affordable edge (the classical knapsack
        # modified-greedy ingredients).
        combined = problem.benefits.combined
        candidates = [
            best_feasible,
            self._greedy_fill(problem, best_feasible),
            self._greedy_fill(problem, []),
            self._best_single_edge(problem),
        ]
        best = max(
            candidates,
            key=lambda edges: edge_matrix_sum(combined, edges),
        )
        return self._finish(problem, best)

    def _best_single_edge(
        self, problem: MBAProblem
    ) -> list[tuple[int, int]]:
        """The highest-value single edge the budget can afford."""
        affordable = problem.market.task_payments() <= self.budget + 1e-9
        rows, cols = ranked_edges(
            problem.benefits.combined,
            problem.worker_capacities(),
            problem.task_capacities(),
            mask=affordable[np.newaxis, :],
        )
        return [(int(rows[0]), int(cols[0]))] if rows.size else []

    def _greedy_fill(
        self, problem: MBAProblem, edges: list[tuple[int, int]]
    ) -> list[tuple[int, int]]:
        """Spend leftover budget on the densest remaining edges.

        The Lagrangian point can land well under budget (the solution
        jumps discontinuously in λ); topping up by benefit-per-payment
        density recovers most of the duality gap in practice.
        """
        payments = problem.market.task_payments()
        combined = problem.benefits.combined
        spend = assignment_spend(problem, edges)
        caps_w = problem.worker_capacities().copy()
        caps_t = problem.task_capacities().copy()
        untaken = np.ones(combined.shape, dtype=bool)
        for i, j in edges:
            caps_w[i] -= 1
            caps_t[j] -= 1
            untaken[i, j] = False
        rows, cols = candidate_edges(combined, caps_w, caps_t, mask=untaken)
        density = combined[rows, cols] / np.maximum(payments[cols], 1e-12)
        # Densest first; on ties, highest (i, j) — the order
        # `sorted(..., reverse=True)` of (density, i, j) tuples gave.
        order = np.lexsort((-cols, -rows, -density))
        candidates = zip(rows[order].tolist(), cols[order].tolist())
        result = list(edges)
        for i, j in candidates:
            if caps_w[i] <= 0 or caps_t[j] <= 0:
                continue
            if spend + payments[j] > self.budget + 1e-9:
                continue
            caps_w[i] -= 1
            caps_t[j] -= 1
            spend += float(payments[j])
            result.append((i, j))
        return result
