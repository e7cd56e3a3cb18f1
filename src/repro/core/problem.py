"""The MBA (mutual benefit aware) task-assignment problem instance.

An :class:`MBAProblem` bundles a market snapshot with the benefit
models and the combiner, materializes the benefit matrices once, and
offers feasibility checks.  Solvers take an ``MBAProblem`` and return
an :class:`repro.core.assignment.Assignment`.

:meth:`MBAProblem.from_benefits` states a problem from an already
computed benefit block and capacity vectors instead — a streaming
window, whose block comes from
:class:`~repro.benefit.rows.RowwiseBenefit` — with no market behind it
(``problem.market`` is ``None``, so only solvers that read the benefits
and capacities alone, such as ``flow``, apply).
"""

from __future__ import annotations

import numpy as np

from repro.benefit.base import BenefitModel
from repro.benefit.matrices import BenefitMatrices, build_benefit_matrices
from repro.benefit.mutual import MutualCombiner
from repro.errors import InfeasibleError, ValidationError
from repro.market.market import LaborMarket
from repro.matching.hopcroft_karp import hopcroft_karp


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
        benefits = build_benefit_matrices(
            market,
            combiner=combiner,
            requester_model=requester_model,
            worker_model=worker_model,
        )
        active = np.array([w.active for w in market.workers], dtype=bool)
        worker_caps = market.worker_capacities()
        worker_caps[~active] = 0
        self._state(benefits, worker_caps, market.task_replications(), active)

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
        values.
        """
        n_workers, n_tasks = benefits.shape
        if n_workers == 0 or n_tasks == 0:
            raise ValidationError(
                f"benefit block must be non-empty, got {benefits.shape}"
            )
        problem = cls.__new__(cls)
        problem.market = None
        problem._state(
            benefits,
            _capacity_vector("worker_caps", worker_caps, n_workers),
            _capacity_vector("task_caps", task_caps, n_tasks),
            np.ones(n_workers, dtype=bool),
        )
        return problem

    def _state(
        self,
        benefits: BenefitMatrices,
        worker_caps: np.ndarray,
        task_caps: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """The fields both constructors share."""
        self.benefits: BenefitMatrices = benefits
        self.combiner: MutualCombiner = benefits.combiner
        self.n_workers, self.n_tasks = benefits.shape
        self._worker_caps = worker_caps
        self._task_caps = task_caps
        self._active = active
        self._candidate_masks: dict[int, np.ndarray] = {}
        # Memo slot for repro.core.solvers.state.problem_fingerprint:
        # the benefit matrices are immutable for the problem's
        # lifetime, so its content hash is too.
        self._fingerprint: bytes | None = None

    # -- candidate pruning ----------------------------------------------

    def top_k_candidates(self, k: int) -> np.ndarray:
        """Memoized top-``k`` candidate-edge mask (row ∪ column union).

        The benefit matrices are immutable for the lifetime of a
        problem, so the pruning mask is a pure function of ``k`` — but
        the pruned solver and the sharded solver's boundary-refinement
        pass both need it, and recomputing the double ``argpartition``
        per call dominates their runtime at scale.  Cached per ``k``;
        callers must treat the returned mask as read-only.
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

        Computed by maximum-cardinality matching on the
        capacity-expanded graph restricted to positive-combined-benefit
        edges; useful for sanity-checking replication demands.
        """
        caps_w = self.worker_capacities()
        caps_t = self.task_capacities()
        left_slots: list[int] = []
        for i in range(self.n_workers):
            left_slots.extend([i] * int(caps_w[i]))
        right_slots: list[int] = []
        for j in range(self.n_tasks):
            right_slots.extend([j] * int(caps_t[j]))
        if not left_slots or not right_slots:
            return 0
        right_of_task: dict[int, list[int]] = {}
        for slot, j in enumerate(right_slots):
            right_of_task.setdefault(j, []).append(slot)
        positive = self.benefits.combined > 0
        adjacency = [
            [
                slot
                for j in range(self.n_tasks)
                if positive[i, j]
                for slot in right_of_task.get(j, [])
            ]
            for i in left_slots
        ]
        size, _left, _right = hopcroft_karp(
            len(left_slots), len(right_slots), adjacency
        )
        return size

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


def _capacity_vector(name: str, caps, size: int) -> np.ndarray:
    """Check one capacity vector of a benefit block."""
    caps = np.asarray(caps)
    if caps.shape != (size,):
        raise ValidationError(f"{name} shape {caps.shape} != ({size},)")
    if not np.issubdtype(caps.dtype, np.integer):
        raise ValidationError(
            f"{name} must hold integers, got dtype {caps.dtype}"
        )
    if np.any(caps < 0):
        raise ValidationError(f"{name} must be non-negative")
    return caps.astype(np.int64)
