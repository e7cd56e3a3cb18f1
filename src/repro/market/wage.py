"""Wage and effort-cost models for the worker side.

The worker-side benefit of an edge (w, t) is::

    payment(t) - cost(w, t) + interest_bonus(w, t)

This module supplies the ``cost`` part.  Different markets price effort
differently (micro-task platforms pay cents for seconds of work;
freelance markets pay for hours), so cost is a pluggable strategy.

Broadcasting contract: :meth:`WageModel.cost` takes skills (in the
task's category) and task efforts as scalars or mutually broadcastable
arrays — e.g. an ``(n_workers, n_tasks)`` skill matrix and an
``(n_tasks,)`` effort vector — and returns the elementwise cost in the
broadcast shape.  Full matrices and streaming slices call this one
method, so they agree bit for bit; callers never write into its result.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.utils.validation import check_nonnegative


class WageModel(abc.ABC):
    """Strategy interface converting task effort into worker cost."""

    @abc.abstractmethod
    def cost(self, skill, effort):
        """Monetary-equivalent cost of each (skill, effort) pair."""


class LinearEffortCost(WageModel):
    """Cost grows linearly in task effort, discounted by skill.

    ``cost = rate * effort * (1 + skill_discount * (1 - skill))``

    A skilled worker completes the task faster, so their cost is lower;
    ``skill_discount`` controls how much skill matters (0 disables the
    effect).
    """

    def __init__(self, rate: float = 0.2, skill_discount: float = 0.5) -> None:
        self.rate = check_nonnegative("rate", rate)
        self.skill_discount = check_nonnegative("skill_discount", skill_discount)

    def cost(self, skill, effort):
        return self.rate * effort * (1.0 + self.skill_discount * (1.0 - skill))


class FlatCost(WageModel):
    """Every task costs the same fixed amount — the simplest baseline."""

    def __init__(self, amount: float = 0.1) -> None:
        self.amount = check_nonnegative("amount", amount)

    def cost(self, skill, effort):
        return np.full(np.broadcast(skill, effort).shape, self.amount)
