"""Normalizing the two sides' benefit scales before combining.

The linear combiner adds requester and worker benefit — but the two
are denominated in different units.  On a freelance market the worker
side (payments minus costs, tens of currency units) dwarfs the
requester side (normalized quality, ~1 per task), so a λ=0.5 "balanced"
objective is in fact worker-dominated.  Normalization rescales each
side matrix to a comparable range *before* the combiner sees it, making
λ mean what it says.

Three scalers, all affine-per-side (they preserve each side's internal
ordering and therefore the set of optimal assignments at λ∈{0,1}):

* ``max-abs``  — divide by the side's max |entry| (robustly bounded to
  [−1, 1]; the default);
* ``mean-pos`` — divide by the mean of the side's positive entries
  (scale-free "typical edge = 1");
* ``none``     — identity, for ablation.
"""

from __future__ import annotations

import numpy as np

from repro.benefit.base import BenefitModel, MarketArrays
from repro.errors import ValidationError

SCALERS = ("max-abs", "mean-pos", "none")


def side_scale(matrix: np.ndarray, scaler: str) -> float:
    """The divisor a scaler applies to one side matrix (>= tiny)."""
    if scaler not in SCALERS:
        raise ValidationError(
            f"unknown scaler {scaler!r}; options: {SCALERS}"
        )
    arr = np.asarray(matrix, dtype=float)
    if scaler == "none" or arr.size == 0:
        return 1.0
    if scaler == "max-abs":
        scale = float(np.abs(arr).max())
    else:  # mean-pos
        positives = arr[arr > 0]
        scale = float(positives.mean()) if positives.size else 0.0
    return scale if scale > 0 else 1.0


class NormalizedBenefit(BenefitModel):
    """Wraps a side model, dividing its matrix by the chosen scale.

    The scale is computed per market snapshot (it must reflect the
    entries actually present), so wrapping is free of global state —
    and every entry depends on the whole market.
    """

    needs_whole_market = True

    def __init__(self, inner: BenefitModel, scaler: str = "max-abs") -> None:
        if scaler not in SCALERS:
            raise ValidationError(
                f"unknown scaler {scaler!r}; options: {SCALERS}"
            )
        self.inner = inner
        self.scaler = scaler

    def matrix(self, market: MarketArrays) -> np.ndarray:
        raw = self.inner.matrix(market)
        return raw / side_scale(raw, self.scaler)


def normalized_problem(
    market: LaborMarket,
    combiner=None,
    scaler: str = "max-abs",
):
    """An :class:`~repro.core.problem.MBAProblem` with both sides
    normalized by ``scaler`` — the drop-in way to get a scale-honest λ.
    """
    from repro.benefit.requester_benefit import QualityGainBenefit
    from repro.benefit.worker_benefit import NetRewardBenefit
    from repro.core.problem import MBAProblem

    return MBAProblem(
        market,
        combiner=combiner,
        requester_model=NormalizedBenefit(QualityGainBenefit(), scaler),
        worker_model=NormalizedBenefit(NetRewardBenefit(), scaler),
    )
