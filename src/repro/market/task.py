"""The task (requester) side of the bipartite labor market."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.market.checks import check_task_fields


@dataclass
class Task:
    """A crowdsourcing task posted by a requester.

    Attributes
    ----------
    task_id:
        Stable integer identity within a market.
    category:
        Category id the task belongs to (see
        :class:`repro.market.categories.CategoryTaxonomy`).
    difficulty:
        In ``[0, 1]``; 0 is trivial, 1 reduces all workers to guessing.
    payment:
        Reward paid to each worker assigned to the task.
    replication:
        How many distinct workers the requester wants on this task
        (answers are aggregated, so odd values are typical).
    requester_id:
        Owning requester, for per-requester accounting; ``-1`` means a
        standalone task.
    effort:
        Abstract effort units required to complete the task; feeds the
        worker-side cost model.
    """

    task_id: int
    category: int
    difficulty: float = 0.3
    payment: float = 1.0
    replication: int = 1
    requester_id: int = -1
    effort: float = 1.0

    def __post_init__(self) -> None:
        check_task_fields(
            (self.task_id,),
            np.asarray([self.category]),
            np.asarray([self.difficulty], dtype=float),
            np.asarray([self.payment], dtype=float),
            np.asarray([self.replication]),
            np.asarray([self.effort], dtype=float),
        )

    @classmethod
    def _unchecked(
        cls,
        task_id: int,
        category: int,
        difficulty: float,
        payment: float,
        replication: int,
        requester_id: int,
        effort: float,
    ) -> "Task":
        """A task whose fields were already checked as columns by
        :meth:`LaborMarket.from_arrays`; skips ``__post_init__``."""
        task = object.__new__(cls)
        task.task_id = task_id
        task.category = category
        task.difficulty = difficulty
        task.payment = payment
        task.replication = replication
        task.requester_id = requester_id
        task.effort = effort
        return task

    def __repr__(self) -> str:
        return (
            f"Task(id={self.task_id}, cat={self.category}, "
            f"diff={self.difficulty:.2f}, pay={self.payment:.2f}, "
            f"k={self.replication})"
        )
