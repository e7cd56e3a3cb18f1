"""Task pricing: how a requester should set payments.

Payment is the requester's only lever over the worker side: pay too
little and no (good) worker finds the task worthwhile; pay too much and
the budget buys fewer answers.  This module models that trade-off and
optimizes it.

Model.  A worker takes a task only if its worker-side benefit is
positive — payment must clear ``cost + reservation shortfall`` (the
:class:`~repro.benefit.worker_benefit.NetRewardBenefit` terms).  Given
a candidate payment ``p`` for a task, the *supply* is the set of
(active, capable) workers with positive benefit at ``p``, and the
expected quality is the knows/guesses coverage quality of the best
``replication`` of them.  The requester's surplus is::

    surplus(p) = value_per_quality * quality(p) - p * expected_fills(p)

:func:`optimize_payment` sweeps candidate payments (the breakpoints
are exactly the workers' indifference prices, so the sweep is exact,
not a grid approximation) and returns the surplus-maximizing price.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crowd.quality import knowledge_coverage_quality
from repro.errors import ValidationError
from repro.market.market import LaborMarket
from repro.market.task import Task
from repro.market.wage import LinearEffortCost, WageModel
from repro.market.worker import accuracy


@dataclass(frozen=True)
class PricePoint:
    """Outcome of one candidate payment level."""

    payment: float
    n_willing: int
    expected_quality: float
    expected_cost: float
    surplus: float


def willingness_prices(
    market: LaborMarket,
    task: Task,
    wage_model: WageModel | None = None,
) -> np.ndarray:
    """Each active worker's indifference price for ``task``.

    Worker ``w`` takes the task at payment ``p`` iff
    ``p - cost(w, task) - max(reservation - p, 0) > 0``; the
    indifference price is where that expression crosses zero:
    ``max(cost, (cost + reservation) / 2)`` (the second form covers
    the sub-reservation region where the shortfall penalty applies).
    Non-monetary interest is deliberately ignored here — pricing is
    done against the cautious, money-only worker.
    """
    wage_model = wage_model or LinearEffortCost()
    cost = wage_model.cost(
        market.skill_matrix()[:, task.category], task.effort
    )
    prices = np.maximum(cost, (cost + market.reservation_wages()) / 2.0)
    active = np.array([w.active for w in market.workers], dtype=bool)
    return np.where(active, prices, np.inf)


def evaluate_payment(
    market: LaborMarket,
    task: Task,
    payment: float,
    value_per_quality: float,
    wage_model: WageModel | None = None,
) -> PricePoint:
    """Expected outcome of posting ``task`` at a given payment."""
    if payment < 0:
        raise ValidationError(f"payment must be >= 0, got {payment}")
    prices = willingness_prices(market, task, wage_model)
    willing = np.nonzero(prices < payment)[0]
    skills = market.skill_matrix()[willing, task.category]
    # The platform assigns the best `replication` willing workers.
    committee = np.sort(accuracy(skills, task.difficulty))[::-1][: task.replication]
    quality = knowledge_coverage_quality(list(committee))
    fills = len(committee)
    surplus = value_per_quality * quality - payment * fills
    return PricePoint(
        payment=float(payment),
        n_willing=int(len(willing)),
        expected_quality=float(quality),
        expected_cost=float(payment * fills),
        surplus=float(surplus),
    )


def optimize_payment(
    market: LaborMarket,
    task: Task,
    value_per_quality: float,
    wage_model: WageModel | None = None,
    epsilon: float = 1e-6,
) -> PricePoint:
    """Surplus-maximizing payment for one task.

    Candidate prices are the workers' indifference prices plus
    ``epsilon`` (paying any more than the marginal worker requires is
    wasted), plus 0 for the "post nothing" floor.  The sweep is exact
    because surplus only changes at those breakpoints.
    """
    if value_per_quality < 0:
        raise ValidationError(
            f"value_per_quality must be >= 0, got {value_per_quality}"
        )
    prices = willingness_prices(market, task, wage_model)
    candidates = sorted(
        {0.0}
        | {float(p) + epsilon for p in prices if np.isfinite(p)}
    )
    best: PricePoint | None = None
    for payment in candidates:
        point = evaluate_payment(
            market, task, payment, value_per_quality, wage_model
        )
        if best is None or point.surplus > best.surplus + 1e-12:
            best = point
    assert best is not None  # candidates always contains 0.0
    return best


def price_market(
    market: LaborMarket,
    value_per_quality: float,
    wage_model: WageModel | None = None,
) -> LaborMarket:
    """A market copy whose task payments are individually optimized.

    The pricing ablation (experiment F21) compares assignment outcomes
    on the as-posted market versus this repriced one.
    """
    import dataclasses

    repriced = [
        dataclasses.replace(
            task,
            payment=optimize_payment(
                market, task, value_per_quality, wage_model
            ).payment,
        )
        for task in market.tasks
    ]
    return LaborMarket(
        market.workers, repriced, market.taxonomy, market.requesters
    )
