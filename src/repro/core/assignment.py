"""The assignment result object.

An :class:`Assignment` is an immutable set of (worker_index,
task_index) edges validated against its problem: capacities respected,
no duplicate edges, indices in range.  It carries per-side benefit
accounting so experiments never recompute totals inconsistently.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from repro.core.problem import MBAProblem
from repro.errors import ValidationError


class Assignment:
    """A validated assignment for one :class:`MBAProblem`.

    Attributes
    ----------
    edges:
        Sorted tuple of (worker_index, task_index) pairs.
    solver_name:
        Which solver produced it (for reporting).
    """

    def __init__(
        self,
        problem: MBAProblem,
        edges: list[tuple[int, int]],
        solver_name: str = "unknown",
    ) -> None:
        self.problem = problem
        self.edges = tuple(sorted(edges))
        self.solver_name = solver_name
        self._validate()

    def _validate(self) -> None:
        problem = self.problem
        if len(set(self.edges)) != len(self.edges):
            duplicates = [e for e, c in Counter(self.edges).items() if c > 1]
            raise ValidationError(f"duplicate edges in assignment: {duplicates}")
        worker_load: Counter[int] = Counter()
        task_load: Counter[int] = Counter()
        for worker_index, task_index in self.edges:
            if not 0 <= worker_index < problem.n_workers:
                raise ValidationError(
                    f"worker index {worker_index} outside market"
                )
            if not 0 <= task_index < problem.n_tasks:
                raise ValidationError(f"task index {task_index} outside market")
            if not problem.is_worker_active(worker_index):
                raise ValidationError(
                    f"worker index {worker_index} is inactive"
                )
            worker_load[worker_index] += 1
            task_load[task_index] += 1
        capacities = problem.worker_capacities()
        for worker_index, load in worker_load.items():
            if load > capacities[worker_index]:
                raise ValidationError(
                    f"worker index {worker_index} assigned {load} tasks, "
                    f"capacity {capacities[worker_index]}"
                )
        replications = problem.task_capacities()
        for task_index, load in task_load.items():
            if load > replications[task_index]:
                raise ValidationError(
                    f"task index {task_index} assigned {load} workers, "
                    f"replication {replications[task_index]}"
                )

    # -- accounting ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(requester, worker) benefit of each edge, in ``edges`` order,
        from :meth:`MBAProblem.edge_benefits`.  The totals below sum
        them in edge order, as ``BenefitMatrices.side_totals`` does."""
        rows, cols = np.array(self.edges, dtype=np.int64).reshape(-1, 2).T
        return self.problem.edge_benefits(rows, cols)

    def requester_total(self) -> float:
        return float(self.edge_values[0].sum())

    def worker_total(self) -> float:
        return float(self.edge_values[1].sum())

    def combined_total(self) -> float:
        """Value under the problem's combiner (exact, not the surrogate)."""
        return self.problem.combiner.total(
            self.requester_total(), self.worker_total()
        )

    def per_worker_benefit(self) -> dict[int, float]:
        """Worker-side benefit received by each *assigned* worker index."""
        totals: dict[int, float] = {}
        for (i, _j), value in zip(self.edges, self.edge_values[1].tolist()):
            totals[i] = totals.get(i, 0.0) + value
        return totals

    def workers_per_task(self) -> dict[int, list[int]]:
        """``{task_index: [worker_index, ...]}`` for assigned tasks."""
        by_task: dict[int, list[int]] = {}
        for worker_index, task_index in self.edges:
            by_task.setdefault(task_index, []).append(worker_index)
        return by_task

    def tasks_per_worker(self) -> dict[int, list[int]]:
        by_worker: dict[int, list[int]] = {}
        for worker_index, task_index in self.edges:
            by_worker.setdefault(worker_index, []).append(task_index)
        return by_worker

    def coverage(self) -> float:
        """Fraction of total replication demand that was filled."""
        demand = int(self.problem.task_capacities().sum())
        return len(self.edges) / demand if demand else 0.0

    def __repr__(self) -> str:
        return (
            f"Assignment(solver={self.solver_name!r}, edges={len(self.edges)}, "
            f"combined={self.combined_total():.4f})"
        )
