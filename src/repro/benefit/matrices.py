"""One-call construction of all benefit matrices for a market.

Solvers consume a :class:`BenefitMatrices` bundle — the requester
matrix, the worker matrix, and the combined per-edge matrix under a
chosen combiner — so that the expensive vectorized computation happens
exactly once per market snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.benefit.base import BenefitModel, MarketArrays
from repro.benefit.mutual import LinearCombiner, MutualCombiner
from repro.benefit.requester_benefit import QualityGainBenefit
from repro.benefit.worker_benefit import NetRewardBenefit
from repro.utils.validation import check_same_shape, check_weights


@dataclass(frozen=True)
class BenefitMatrices:
    """All per-edge benefit views of one market snapshot.

    Attributes
    ----------
    requester:
        ``(n_workers, n_tasks)`` requester-side benefit.
    worker:
        ``(n_workers, n_tasks)`` worker-side benefit.
    combined:
        Per-edge combined score under the chosen combiner (exact for
        the linear combiner, a surrogate otherwise).
    combiner:
        The combiner that produced ``combined``.
    """

    requester: np.ndarray
    worker: np.ndarray
    combined: np.ndarray
    combiner: MutualCombiner

    def __post_init__(self) -> None:
        """Every block of benefits, whether built from a market, a
        stream window or a shard slice, passes this one check: three
        finite 2-D matrices of one shape."""
        check_same_shape(
            "benefit matrices", self.requester, self.worker, self.combined
        )
        check_weights(self.requester, "requester benefits")
        check_weights(self.worker, "worker benefits")
        check_weights(self.combined, "combined benefits")

    @property
    def shape(self) -> tuple[int, int]:
        return self.requester.shape  # type: ignore[return-value]

    def side_totals(self, edges: list[tuple[int, int]]) -> tuple[float, float]:
        """(requester_total, worker_total) over a set of edges.

        Called on every objective evaluation inside greedy/local-search
        loops, so the per-edge lookups run as one fancy-indexed gather
        per side instead of a Python generator over scalars.
        """
        if not edges:
            return 0.0, 0.0
        edge_array = np.asarray(edges, dtype=np.int64)
        rows = edge_array[:, 0]
        cols = edge_array[:, 1]
        req = float(self.requester[rows, cols].sum())
        wrk = float(self.worker[rows, cols].sum())
        return req, wrk

    def combined_total(self, edges: list[tuple[int, int]]) -> float:
        """Combined objective of a set of edges under the combiner."""
        req, wrk = self.side_totals(edges)
        return self.combiner.total(req, wrk)


def build_benefit_matrices(
    market: MarketArrays,
    combiner: MutualCombiner | None = None,
    requester_model: BenefitModel | None = None,
    worker_model: BenefitModel | None = None,
) -> BenefitMatrices:
    """Build the matrix bundle with the library defaults.

    ``market`` is a :class:`~repro.market.market.LaborMarket` or any
    other :class:`~repro.benefit.base.MarketArrays`, such as
    :meth:`RowwiseBenefit.whole <repro.benefit.rows.RowwiseBenefit.whole>`.
    Defaults: :class:`QualityGainBenefit`, :class:`NetRewardBenefit`,
    and a λ=0.5 :class:`LinearCombiner` — the configuration every
    example starts from.
    """
    obs.count("benefit.matrix_builds")
    combiner = combiner if combiner is not None else LinearCombiner(0.5)
    requester_model = (
        requester_model if requester_model is not None else QualityGainBenefit()
    )
    worker_model = worker_model if worker_model is not None else NetRewardBenefit()
    requester = requester_model.matrix(market)
    worker = worker_model.matrix(market)
    combined = combiner.edge_matrix(requester, worker)
    return BenefitMatrices(
        requester=requester, worker=worker, combined=combined, combiner=combiner
    )
