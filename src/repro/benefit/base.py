"""The benefit-model interface.

A benefit model maps market arrays to a dense ``(n_workers, n_tasks)``
matrix in one vectorized call.  The arrays come from a whole
:class:`~repro.market.market.LaborMarket` or from a
:class:`~repro.benefit.rows.RowwiseBenefit` selection of some workers
and tasks; a model's formula is written once and serves both.
"""

from __future__ import annotations

import abc
from typing import Protocol

import numpy as np


class MarketArrays(Protocol):
    """The vectorized views a benefit formula reads.

    Per-pair arrays are ``(n_workers, n_tasks)``, per-task arrays
    ``(n_tasks,)``, per-worker arrays ``(n_workers,)``.  A selection of
    a single worker or task drops that axis, as an ``int`` index does
    in NumPy, so formulas must broadcast rather than assume 2-D.
    """

    def pair_skills(self) -> np.ndarray: ...
    def pair_interests(self) -> np.ndarray: ...
    def accuracy_matrix(self) -> np.ndarray: ...
    def task_payments(self) -> np.ndarray: ...
    def task_efforts(self) -> np.ndarray: ...
    def reservation_wages(self) -> np.ndarray: ...


class BenefitModel(abc.ABC):
    """Maps market arrays to a per-edge benefit matrix for one side."""

    #: Whether an entry depends on the whole market (a per-market
    #: scale, say) rather than on its own worker and task only; such a
    #: model cannot be evaluated on a selection.
    needs_whole_market: bool = False

    @abc.abstractmethod
    def matrix(self, market: MarketArrays) -> np.ndarray:
        """Dense ``(n_workers, n_tasks)`` benefit matrix.

        Entries may be negative (an edge can be net-harmful for a
        side); solvers treat negative mutual benefit as "leave
        unassigned".
        """
