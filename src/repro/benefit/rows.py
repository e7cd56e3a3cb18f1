"""On-demand row/column benefit computation for large markets.

:func:`repro.benefit.matrices.build_benefit_matrices` materializes the
full ``(n_workers, n_tasks)`` matrices — the right call for the
round-based solvers, and hopeless at streaming scale: a 10^5 × 10^5
market is 10^10 entries.  The streaming dispatcher only ever needs the
benefits of *one* arriving entity against a bounded active set, so
:class:`RowwiseBenefit` computes exactly those slices.

It caches the entity arrays once, O(workers + tasks), and answers each
slice by running the models' own ``matrix`` methods on a gathered
selection: one formula per model, so a slice agrees **bit-identically**
with the full matrices.  A slice is a row (one worker), a column (one
task) or, when both sides are index arrays, a 2-D block (a micro-batch
window).  Models whose entries depend on the whole market
(:attr:`~repro.benefit.base.BenefitModel.needs_whole_market`, e.g.
``NormalizedBenefit``) are refused at construction.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.benefit.base import BenefitModel
from repro.benefit.mutual import LinearCombiner, MutualCombiner
from repro.benefit.requester_benefit import QualityGainBenefit
from repro.benefit.worker_benefit import NetRewardBenefit
from repro.errors import ValidationError
from repro.market.market import LaborMarket
from repro.market.worker import accuracy


class _Selection:
    """The :class:`~repro.benefit.base.MarketArrays` of selected
    workers against selected tasks.

    A single entity is an ``int`` index and, as in NumPy indexing,
    drops its axis: a row or column selection is 1-D along the
    selected side.  When both sides are index arrays the per-pair
    arrays are gathered in outer (``np.ix_``) form, a 2-D block.
    Per-pair skills are gathered once and shared by both models.
    """

    __slots__ = ("_rows", "_workers", "_tasks", "_pairs", "_skills")

    def __init__(self, rows: RowwiseBenefit, workers, tasks) -> None:
        self._rows = rows
        self._workers = workers
        self._tasks = tasks
        categories = rows._categories[tasks]
        if isinstance(workers, np.ndarray) and isinstance(tasks, np.ndarray):
            self._pairs = np.ix_(workers, categories)
        else:
            self._pairs = (workers, categories)
        self._skills = rows._skills[self._pairs]

    def pair_skills(self) -> np.ndarray:
        return self._skills

    def pair_interests(self) -> np.ndarray:
        return self._rows._interests[self._pairs]

    def accuracy_matrix(self) -> np.ndarray:
        return accuracy(self._skills, self._rows._difficulties[self._tasks])

    def task_payments(self) -> np.ndarray:
        return self._rows._payments[self._tasks]

    def task_efforts(self) -> np.ndarray:
        return self._rows._efforts[self._tasks]

    def reservation_wages(self) -> np.ndarray:
        return self._rows._reservation[self._workers]


class RowwiseBenefit:
    """Combined-benefit rows and columns without the full matrices.

    Parameters mirror :func:`build_benefit_matrices`; the defaults are
    the same library defaults, so the two constructions describe the
    same market.
    """

    def __init__(
        self,
        market: LaborMarket,
        combiner: MutualCombiner | None = None,
        requester_model: BenefitModel | None = None,
        worker_model: BenefitModel | None = None,
    ) -> None:
        self.market = market
        self.combiner = combiner or LinearCombiner(0.5)
        self.requester_model = requester_model or QualityGainBenefit()
        self.worker_model = worker_model or NetRewardBenefit()
        for model in (self.requester_model, self.worker_model):
            if model.needs_whole_market:
                raise ValidationError(
                    f"{type(model).__name__} depends on the whole market; "
                    "build the full matrices instead"
                )
        # Entity arrays: O(n) once, every slice gathers from them.
        self._skills = market.skill_matrix()
        self._interests = market.interest_matrix()
        self._reservation = market.reservation_wages()
        self._categories = market.task_categories()
        self._difficulties = market.task_difficulties()
        self._payments = market.task_payments()
        self._efforts = market.task_efforts()

    def row(
        self,
        worker_index: int | Sequence[int] | np.ndarray,
        task_indices: Sequence[int] | np.ndarray,
    ) -> np.ndarray:
        """Combined benefit of one worker (or a block of selected
        workers) against selected tasks."""
        req, wrk = self.side_row(worker_index, task_indices)
        return self.combiner.edge_matrix(req, wrk)

    def column(
        self, task_index: int, worker_indices: Sequence[int] | np.ndarray
    ) -> np.ndarray:
        """Combined benefit of one task against selected workers."""
        selection = _Selection(
            self, np.asarray(worker_indices, dtype=np.int64), task_index
        )
        return self.combiner.edge_matrix(
            self.requester_model.matrix(selection),
            self.worker_model.matrix(selection),
        )

    def side_row(
        self,
        worker_index: int | Sequence[int] | np.ndarray,
        task_indices: Sequence[int] | np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(requester, worker) benefit rows for selected tasks.

        ``worker_index`` is one worker (an ``int``, giving 1-D rows) or
        an index array, giving ``(len(workers), len(tasks))`` blocks
        equal to the full matrices at ``np.ix_(workers, tasks)``.
        """
        if not isinstance(worker_index, (int, np.integer)):
            worker_index = np.asarray(worker_index, dtype=np.int64)
        selection = _Selection(
            self, worker_index, np.asarray(task_indices, dtype=np.int64)
        )
        return (
            self.requester_model.matrix(selection),
            self.worker_model.matrix(selection),
        )

    def edge(self, worker_index: int, task_index: int) -> float:
        """Combined benefit of one edge."""
        return float(self.row(worker_index, np.array([task_index]))[0])
