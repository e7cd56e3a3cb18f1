"""Requester-side benefit: expected answer-quality gain.

For a single-worker task the requester's benefit from worker ``w`` is
how much better than a coin flip the worker's answer is expected to be:
``accuracy(w, t) - 0.5``, scaled by the task's importance (its
payment acts as the requester's own declared value).

For replicated tasks the *marginal* value of one more worker depends on
who else is assigned — that set-dependence is what makes the realistic
objective submodular and is handled by
:class:`repro.core.objective.CoverageObjective`.  The per-edge matrix
built here is the linear surrogate the flow-based solvers use, and the
exact per-edge value used by the ``linear`` combiner.
"""

from __future__ import annotations

import numpy as np

from repro.benefit.base import BenefitModel, MarketArrays
from repro.utils.validation import check_nonnegative


class QualityGainBenefit(BenefitModel):
    """``benefit = value_scale * payment * (accuracy - 0.5) * 2``.

    The ``* 2`` normalizes into [−value_scale·pay, value_scale·pay]: a
    perfect worker on a trivial task yields exactly
    ``value_scale * payment``, a coin-flip worker yields 0.  Negative
    values (skill below 0.5 — an adversarial or confused worker) are
    kept: assigning such a worker actively hurts the requester.
    """

    def __init__(self, value_scale: float = 1.0) -> None:
        self.value_scale = check_nonnegative("value_scale", value_scale)

    def matrix(self, market: MarketArrays) -> np.ndarray:
        payments = market.task_payments()
        return self.value_scale * payments * (market.accuracy_matrix() - 0.5) * 2.0
