"""Worker-side benefit: net reward plus interest match.

``benefit = payment - cost(w, t) - reservation_penalty + interest_weight * interest``

* ``payment`` is the task's per-worker reward;
* ``cost`` comes from the market's wage model (effort priced in money);
* if the payment is below the worker's reservation wage the shortfall
  is charged again as a penalty — under-paying a worker is worse than
  neutral because it signals the platform undervalues them;
* ``interest`` is the worker's affinity for the task's category, the
  non-monetary component of willingness.
"""

from __future__ import annotations

import numpy as np

from repro.benefit.base import BenefitModel, MarketArrays
from repro.market.wage import LinearEffortCost, WageModel
from repro.utils.validation import check_nonnegative


class NetRewardBenefit(BenefitModel):
    """Payment − effort cost − reservation shortfall + interest bonus."""

    def __init__(
        self,
        wage_model: WageModel | None = None,
        interest_weight: float = 0.3,
    ) -> None:
        self.wage_model = wage_model or LinearEffortCost()
        self.interest_weight = check_nonnegative("interest_weight", interest_weight)

    def matrix(self, market: MarketArrays) -> np.ndarray:
        # The result is allocated first and written in place; the
        # temporaries come after it, so on a full market they free back
        # into one block at the top of the heap.  With temporaries
        # allocated before the result, glibc 2.36 left holes that raised
        # the 1000x540 benchmark market's peak RSS by ~4% on some runs.
        payments = market.task_payments()
        benefit = np.subtract.outer(market.reservation_wages(), payments)
        np.maximum(benefit, 0.0, out=benefit)  # reservation shortfall
        costs = self.wage_model.cost(market.pair_skills(), market.task_efforts())
        np.subtract(payments - costs, benefit, out=benefit)
        benefit += self.interest_weight * market.pair_interests()
        return benefit
