"""Requesters: the task-posting side's principals.

Requesters mostly matter for accounting — budgets and per-requester
quality reporting — because assignment decisions are made per task.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError


@dataclass(slots=True)
class Requester:
    """A task requester with a budget.

    Attributes
    ----------
    requester_id:
        Stable integer identity.
    budget:
        Total money available; posting assignments beyond the budget is
        a validation error caught by :class:`LaborMarket`.
    task_ids:
        Tasks owned by this requester (filled by the market container).
    """

    requester_id: int
    budget: float = float("inf")
    task_ids: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValidationError(
                f"requester {self.requester_id}: budget must be >= 0"
            )

    def committed_spend(self, payments: dict[int, float]) -> float:
        """Total spend given a mapping task_id -> total payment made."""
        return sum(payments.get(tid, 0.0) for tid in self.task_ids)
