"""The MBA (mutual benefit aware) task-assignment problem instance.

An :class:`MBAProblem` bundles a market snapshot with the benefit
models and the combiner, and offers feasibility checks.  Solvers take
an ``MBAProblem`` and return an
:class:`repro.core.assignment.Assignment`.

A problem copies the market's arrays when it is stated, so skill
drift applied to the market later does not change it.  The benefit matrices
are built from that copy, and refused if non-finite, on the first read
of ``problem.benefits`` (at construction for a model that needs the
whole market).  A problem only accounted on (the true-skill side of a
round planned on estimated skills) never reads them:
:meth:`MBAProblem.edge_benefits` evaluates and checks the assigned
block only.

:meth:`MBAProblem.from_benefits` states a problem from an already
computed benefit block and capacity vectors instead — a streaming
window, whose block comes from
:class:`~repro.benefit.rows.RowwiseBenefit` — with no market behind it
(``problem.market`` is ``None``, so only solvers that read the benefits
and capacities alone, such as ``flow``, apply).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.benefit.base import BenefitModel
from repro.benefit.matrices import BenefitMatrices, build_benefit_matrices
from repro.benefit.mutual import LinearCombiner, MutualCombiner
from repro.benefit.rows import RowwiseBenefit
from repro.errors import InfeasibleError, ValidationError
from repro.market.market import LaborMarket
from repro.matching.b_matching import max_weight_b_matching
from repro.utils.validation import check_capacities


class MBAProblem:
    """One assignment round's full problem statement.

    Parameters
    ----------
    market:
        The market snapshot (only *active* workers are assignable).
    combiner:
        Mutual-benefit combiner; defaults to λ=0.5 linear.
    requester_model / worker_model:
        Side benefit models; library defaults when omitted.
    """

    def __init__(
        self,
        market: LaborMarket,
        combiner: MutualCombiner | None = None,
        requester_model: BenefitModel | None = None,
        worker_model: BenefitModel | None = None,
    ) -> None:
        if market.n_workers == 0:
            raise ValidationError("market has no workers")
        if market.n_tasks == 0:
            raise ValidationError("market has no tasks")
        self.market: LaborMarket | None = market
        self.combiner = combiner if combiner is not None else LinearCombiner(0.5)
        self._models = (requester_model, worker_model)
        if any(m is not None and m.needs_whole_market for m in self._models):
            self.benefits = build_benefit_matrices(
                market, self.combiner, *self._models
            )
        else:
            # The market's arrays as they are now (skills copied), so
            # skill drift applied to it later never reaches this
            # problem's benefits.
            self._rows = RowwiseBenefit(market, self.combiner, *self._models)
        active = np.array([w.active for w in market.workers], dtype=bool)
        worker_caps = market.worker_capacities()
        worker_caps[~active] = 0
        self._state(worker_caps, market.task_replications(), active)

    @classmethod
    def from_benefits(
        cls,
        benefits: BenefitMatrices,
        worker_caps: np.ndarray,
        task_caps: np.ndarray,
    ) -> "MBAProblem":
        """A problem over a precomputed benefit block, with no market.

        Every worker of the block counts as active; ``worker_caps`` and
        ``task_caps`` are the per-row and per-column capacities.  Raises
        :class:`ValidationError` for an empty block, or for capacity
        vectors that do not match it or hold negative or non-integer
        values (:func:`~repro.utils.validation.check_capacities`).
        Non-finite benefits never get here: :class:`BenefitMatrices`
        refuses them when the block is built.
        """
        n_workers, n_tasks = benefits.shape
        if n_workers == 0 or n_tasks == 0:
            raise ValidationError(
                f"benefit block must be non-empty, got {benefits.shape}"
            )
        problem = cls.__new__(cls)
        problem.market = None
        problem.benefits = benefits
        problem.combiner = benefits.combiner
        problem._state(
            check_capacities("worker_caps", worker_caps, n_workers),
            check_capacities("task_caps", task_caps, n_tasks),
            np.ones(n_workers, dtype=bool),
        )
        return problem

    def _state(
        self,
        worker_caps: np.ndarray,
        task_caps: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """The fields both constructors share."""
        self.n_workers, self.n_tasks = len(worker_caps), len(task_caps)
        self._worker_caps = worker_caps
        self._task_caps = task_caps
        self._active = active
        self._candidate_masks: dict[int, np.ndarray] = {}
        # Memo slot for repro.core.solvers.state.problem_fingerprint:
        # the benefit matrices are immutable for the problem's
        # lifetime, so its content hash is too.
        self._fingerprint: bytes | None = None

    # -- benefits --------------------------------------------------------

    @cached_property
    def benefits(self) -> BenefitMatrices:
        """The full benefit matrices of the market as it was when the
        problem was stated, built on first read and cached."""
        return build_benefit_matrices(
            self._rows.whole(), self.combiner, *self._models
        )

    def edge_benefits(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(requester, worker) benefit of each edge ``(rows[k], cols[k])``.

        Unless the matrices are built, the models run on the distinct
        rows × distinct columns only: that block equals the matrices at
        ``np.ix_`` bit for bit and passes the same finiteness check as
        a full build — on that block alone, so a non-finite entry
        elsewhere goes unseen until ``benefits`` is read.
        """
        if "benefits" in self.__dict__:
            benefits = self.benefits
            return benefits.requester[rows, cols], benefits.worker[rows, cols]
        workers, row_at = np.unique(rows, return_inverse=True)
        tasks, col_at = np.unique(cols, return_inverse=True)
        req, wrk = self._rows.side_row(workers, tasks)
        combined = self.combiner.edge_matrix(req, wrk)
        BenefitMatrices(req, wrk, combined, self.combiner)  # finiteness
        return req[row_at, col_at], wrk[row_at, col_at]

    # -- candidate pruning ----------------------------------------------

    def top_k_candidates(self, k: int) -> np.ndarray:
        """Memoized top-``k`` candidate-edge mask (row ∪ column union).

        The benefit matrices are immutable for the lifetime of a
        problem, so the pruning mask is a pure function of ``k`` — but
        the pruned solver and the sharded solver's boundary-refinement
        pass both need it, and recomputing the per-row and per-column
        partitions per call dominates their runtime at scale.  Cached
        per ``k``; callers must treat the returned mask as read-only.
        """
        mask = self._candidate_masks.get(k)
        if mask is None:
            from repro.core.solvers.pruned import top_k_edge_mask

            mask = top_k_edge_mask(self.benefits.combined, k)
            mask.setflags(write=False)
            self._candidate_masks[k] = mask
        return mask

    # -- capacities ------------------------------------------------------

    def worker_capacities(self) -> np.ndarray:
        """Capacities with inactive workers zeroed out (a fresh copy)."""
        return self._worker_caps.copy()

    def task_capacities(self) -> np.ndarray:
        """Per-task replication quotas (a fresh copy)."""
        return self._task_caps.copy()

    def is_worker_active(self, worker_index: int) -> bool:
        return bool(self._active[worker_index])

    # -- feasibility -----------------------------------------------------

    def max_assignable(self) -> int:
        """Maximum number of (worker, task) pairs any assignment can have.

        An assignment holds each pair at most once, so this is the size
        of a maximum b-matching with unit weights on the
        positive-combined-benefit edges; useful for sanity-checking
        replication demands.
        """
        edges, _total = max_weight_b_matching(
            (self.benefits.combined > 0).astype(float),
            self.worker_capacities(),
            self.task_capacities(),
        )
        return len(edges)

    def require_nonempty_feasible(self) -> None:
        """Raise :class:`InfeasibleError` if no positive edge exists."""
        caps_w = self.worker_capacities()
        caps_t = self.task_capacities()
        usable = (
            (self.benefits.combined > 0)
            & (caps_w[:, np.newaxis] > 0)
            & (caps_t[np.newaxis, :] > 0)
        )
        if not usable.any():
            raise InfeasibleError(
                "no edge with positive combined benefit between an active "
                "worker with capacity and a task with replication quota"
            )

    def __repr__(self) -> str:
        return (
            f"MBAProblem(workers={self.n_workers}, tasks={self.n_tasks}, "
            f"combiner={self.combiner!r})"
        )

