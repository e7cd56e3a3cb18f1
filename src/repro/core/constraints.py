"""Side constraints on assignments beyond capacities.

The base MBA problem constrains worker capacity and task replication (a
partition matroid).  Real platforms add more — these are the three the
evaluation's "general settings" ablation exercises:

* :class:`BudgetConstraint` — each requester's total committed payment
  cannot exceed their budget;
* :class:`MinAccuracyConstraint` — a worker may only take a task when
  their (estimated) accuracy on it clears a floor, the classic
  qualification test;
* :class:`CategoryDiversityConstraint` — a worker's assignment within
  one round may span at most ``max_per_category`` tasks of the same
  category, spreading exposure.

A constraint answers one question: *may this edge be added to this
partial assignment?*  That shape (a downward-closed feasibility oracle)
is exactly what greedy-style solvers need; the
:class:`ConstrainedGreedySolver` threads any constraint list through
lazy greedy, preserving feasibility by construction.  (With general
constraints the clean matroid guarantee is lost — the solver is the
principled heuristic the paper's family uses, and F16 measures the
price of each constraint.)
"""

from __future__ import annotations

import abc
from collections import Counter

from repro.core.assignment import Assignment
from repro.core.objective import LinearObjective
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, register_solver
from repro.errors import ValidationError
from repro.matching.greedy import ranked_edges
from repro.types import Edge
from repro.utils.rng import SeedLike
from repro.utils.validation import check_fraction


class Constraint(abc.ABC):
    """Downward-closed feasibility oracle over partial assignments."""

    @abc.abstractmethod
    def allows(
        self, problem: MBAProblem, edges: list[Edge], new_edge: Edge
    ) -> bool:
        """May ``new_edge`` join ``edges``?  Must not mutate anything."""

    def validate(self, problem: MBAProblem, edges: list[Edge]) -> None:
        """Raise :class:`ValidationError` unless the whole set satisfies
        the constraint (default: re-play edges through :meth:`allows`)."""
        accepted: list[Edge] = []
        for edge in edges:
            if not self.allows(problem, accepted, edge):
                raise ValidationError(
                    f"{type(self).__name__} violated by edge {edge}"
                )
            accepted.append(edge)


class BudgetConstraint(Constraint):
    """Requesters cannot commit more payment than their budget.

    Tasks owned by requester ``r`` (``task.requester_id == r``) draw
    from ``budgets[r]``; unowned tasks (requester_id == -1) are
    unconstrained.
    """

    def __init__(self, budgets: dict[int, float]) -> None:
        for requester_id, budget in budgets.items():
            if budget < 0:
                raise ValidationError(
                    f"budget for requester {requester_id} must be >= 0"
                )
        self.budgets = dict(budgets)

    def _spend(self, problem: MBAProblem, edges: list[Edge]) -> Counter:
        spend: Counter = Counter()
        for _worker, task_index in edges:
            task = problem.market.tasks[task_index]
            if task.requester_id != -1:
                spend[task.requester_id] += task.payment
        return spend

    def allows(
        self, problem: MBAProblem, edges: list[Edge], new_edge: Edge
    ) -> bool:
        task = problem.market.tasks[new_edge[1]]
        if task.requester_id == -1:
            return True
        budget = self.budgets.get(task.requester_id)
        if budget is None:
            return True
        spend = self._spend(problem, edges)[task.requester_id]
        return spend + task.payment <= budget + 1e-9


class MinAccuracyConstraint(Constraint):
    """Workers must clear an accuracy floor on a task to be eligible."""

    def __init__(self, floor: float) -> None:
        self.floor = check_fraction("floor", floor)
        self._cache: tuple[int, object] | None = None

    def _accuracy(self, problem: MBAProblem):
        # Memoize the accuracy matrix per problem instance: allows() is
        # called once per candidate edge and the matrix is O(n*m) to
        # rebuild.
        if self._cache is None or self._cache[0] != id(problem):
            self._cache = (id(problem), problem.market.accuracy_matrix())
        return self._cache[1]

    def allows(
        self, problem: MBAProblem, edges: list[Edge], new_edge: Edge
    ) -> bool:
        worker_index, task_index = new_edge
        return self._accuracy(problem)[worker_index, task_index] >= self.floor


class CategoryDiversityConstraint(Constraint):
    """Per round, a worker takes at most N tasks of the same category."""

    def __init__(self, max_per_category: int) -> None:
        if max_per_category < 1:
            raise ValidationError(
                f"max_per_category must be >= 1, got {max_per_category}"
            )
        self.max_per_category = max_per_category

    def allows(
        self, problem: MBAProblem, edges: list[Edge], new_edge: Edge
    ) -> bool:
        worker_index, task_index = new_edge
        category = problem.market.tasks[task_index].category
        held = sum(
            1
            for i, j in edges
            if i == worker_index
            and problem.market.tasks[j].category == category
        )
        return held < self.max_per_category


@register_solver("constrained-greedy")
class ConstrainedGreedySolver(Solver):
    """Greedy that honours an arbitrary list of constraints.

    Candidates are visited in decreasing surrogate-gain order, ties to
    the lowest ``(worker, task)``
    (:func:`~repro.matching.greedy.ranked_edges`); an edge is taken
    when capacities allow it, every constraint allows it, and its
    marginal gain is positive.  With no constraints and the linear
    objective this is ``greedy``.  Uses plain (non-lazy) ordering
    because constraint checks are cheap relative to the coverage
    marginals this solver is typically paired with.
    """

    def __init__(self, constraints=None, objective_factory=None) -> None:
        self.constraints: list[Constraint] = list(constraints or [])
        self._objective_factory = (
            objective_factory if objective_factory is not None else LinearObjective
        )

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        objective = self._objective_factory(problem)
        caps_w = problem.worker_capacities()
        caps_t = problem.task_capacities()
        rows, cols = ranked_edges(problem.benefits.combined, caps_w, caps_t)
        chosen: list[Edge] = []
        for i, j in zip(rows.tolist(), cols.tolist()):
            if caps_w[i] <= 0 or caps_t[j] <= 0:
                continue
            edge = (i, j)
            if not all(
                constraint.allows(problem, chosen, edge)
                for constraint in self.constraints
            ):
                continue
            if objective.marginal(chosen, edge) <= 0:
                continue
            chosen.append(edge)
            caps_w[i] -= 1
            caps_t[j] -= 1
        return self._finish(problem, chosen)
