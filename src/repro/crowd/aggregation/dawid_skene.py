"""Dawid–Skene EM for joint truth + worker-accuracy inference.

The one-coin (symmetric-noise) model: worker ``w`` has a single
unknown accuracy ``a_w``; over ``K`` classes it reports the truth with
probability ``a_w`` and each other label with ``(1 - a_w) / (K - 1)``
(for two classes, a flip with ``1 - a_w``).  EM alternates

* **E-step** — posterior P(truth = k | answers, accuracies) per task;
* **M-step** — each worker's accuracy re-estimated as the expected
  fraction of their answers agreeing with the posterior truths.

The data log-likelihood is non-decreasing across iterations (a property
test locks this), and accuracies are clipped into ``[eps, 1-eps]`` to
keep the likelihood finite.

Both steps are ``np.bincount`` reductions over :class:`TaskRows` (the
answer rows in sorted-task order), so every per-worker and per-task
sum adds its terms in the order of the per-answer loop kept as the
test reference.  Logs and exponentials go through :mod:`math`, once
per worker and per (task, class): numpy's vectorized ``log``/``exp``
differ from libm in the last bit on some inputs, which is enough to
flip a label whose posterior sits at 0.5.  Class 0's posterior is one
minus the others' and tied posteriors go to the higher class, so two
classes reproduce the binary loop (``1 - p`` and ``p >= 0.5``) bit for
bit.  Two-coin EM and GLAD run their E-steps through
:meth:`TaskRows.e_step` too.

Late in a run most values stop moving: most accuracies sit at the
``eps`` clip and most tasks' posteriors have settled.  So libm is
called only for values whose input changed since the last iteration.
Each per-worker log (:meth:`TaskRows.cached_log_by_row`) is kept
between iterations and re-evaluated only where the per-worker input
moved.  The E-step sums every task's log-joint row each time (one
``bincount``), then runs ``exp``/``log``/``exp`` only for the rows
that moved; every other task keeps its evidence and posterior.  An
input has moved when any of its bits changed (compared as ``int64``,
so -0.0 against 0.0 counts), and every row-wise result depends only
on its own row's bits, so a kept result is the one its current input
would give: the output is the same, bit for bit, as evaluating every
entry on every iteration.  The first iteration is the case where
every entry moved.  Each run records ``crowd.em.iterations`` and
``crowd.em.libm_evaluations`` (per-worker and per-task calls; the
class prior's logs are not counted).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.crowd.answer_model import AnswerSet
from repro.errors import ValidationError

_EPS = 1e-4


@dataclass(eq=False)
class TaskRows:
    """An answer set's rows in sorted-task order, densely indexed, and
    the libm results one EM run keeps between its iterations.

    ``task``/``worker`` map each row to its position in ``task_ids``/
    ``worker_ids`` (both sorted); ``vote`` is the row's label.
    Per-task class arrays are ``len(task_ids) × n_classes``.  The loop
    invariants are built once: ``first`` (each task's first row),
    ``cell`` (each row's task-by-class ``bincount`` cells, raveled
    rows × classes), ``voted`` (rows × classes: is the column the
    row's vote) and ``vote_cell`` (the cell of the row's vote).  Build
    one per EM run: ``libm_evaluations`` counts that run's libm calls.
    """

    task_ids: np.ndarray
    worker_ids: np.ndarray
    task: np.ndarray
    worker: np.ndarray
    vote: np.ndarray
    n_classes: int
    first: np.ndarray
    cell: np.ndarray
    voted: np.ndarray
    vote_cell: np.ndarray
    libm_evaluations: int = field(default=0, init=False)
    _log_joint: np.ndarray | None = field(default=None, init=False, repr=False)
    _posterior: np.ndarray = field(init=False, repr=False)
    _evidence: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._posterior = np.empty((self.task_ids.size, self.n_classes))
        self._evidence = np.empty(self.task_ids.size)

    @classmethod
    def of(cls, answer_set: AnswerSet) -> TaskRows:
        order = np.argsort(answer_set.tasks, kind="stable")
        task_ids, task = np.unique(
            answer_set.tasks[order], return_inverse=True
        )
        worker_ids, worker = np.unique(
            answer_set.workers[order], return_inverse=True
        )
        vote = answer_set.votes[order]
        n_classes = answer_set.n_classes
        classes = np.arange(n_classes)
        return cls(
            task_ids,
            worker_ids,
            task,
            worker,
            vote,
            n_classes,
            first=np.flatnonzero(np.diff(task, prepend=-1)),
            cell=(task[:, None] * n_classes + classes).ravel(),
            voted=vote[:, None] == classes,
            vote_cell=task * n_classes + vote,
        )

    def soft_majority(self) -> np.ndarray:
        """Vote shares with one pseudo-vote per class: EM's start."""
        counts = np.bincount(
            self.vote_cell, minlength=self.task_ids.size * self.n_classes
        ).reshape(-1, self.n_classes) + 1.0
        return _complement_class_zero(
            counts / counts.sum(axis=1, keepdims=True)
        )

    def per_worker(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Per-worker sums of row ``weights`` (row counts if None)."""
        return np.bincount(
            self.worker, weights=weights, minlength=self.worker_ids.size
        )

    def on_vote(self, posterior: np.ndarray) -> np.ndarray:
        """Each row's task's posterior of the row's vote."""
        return posterior.ravel()[self.vote_cell]

    def cached_log_by_row(self) -> Callable[[np.ndarray], np.ndarray]:
        """A map from a per-worker vector to its ``math.log``, gathered
        to the rows, that keeps its logs between calls and evaluates
        only the entries whose input moved since the last call."""
        logs = np.empty(self.worker_ids.size)
        previous = None

        def log_by_row(per_worker: np.ndarray) -> np.ndarray:
            nonlocal previous
            moved = _moved(previous, per_worker)
            previous = per_worker.copy()
            logs[moved] = _map(math.log, per_worker[moved])
            self.libm_evaluations += moved.size
            return logs[self.worker]

        return log_by_row

    def by_vote(self, voted: np.ndarray, other: np.ndarray) -> np.ndarray:
        """Rows × classes: row ``r``'s ``voted`` in its vote's column,
        its ``other`` in every other column."""
        return np.where(self.voted, voted[:, None], other[:, None])

    def e_step(
        self, log_prior: np.ndarray, log_likelihood: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(posterior, evidence)`` per task.

        ``log_prior`` is log P(truth = k) per class; ``log_likelihood``
        holds each row's log P(vote | truth = k), one column per class,
        and is consumed.  Only tasks whose log-joint row moved since
        the last call are re-evaluated; the others keep their results.
        """
        # Each task's sum starts from the log prior: fold it into the
        # task's first row, since (0 + prior) + t == prior + t.
        log_likelihood[self.first] += log_prior
        n_classes = self.n_classes
        log_joint = np.bincount(
            self.cell, weights=log_likelihood.ravel()
        ).reshape(-1, n_classes)
        moved = _moved(self._log_joint, log_joint)
        self._log_joint = log_joint
        joint = log_joint[moved]
        # The peak class's term is exp(0.0) == 1.0 exactly.
        peak = joint.max(axis=1)
        evidence = peak + _map(
            math.log, _map(math.exp, joint - peak[:, None]).sum(axis=1)
        )
        posterior = np.empty_like(joint)
        posterior[:, 1:] = _map(math.exp, joint[:, 1:] - evidence[:, None])
        self._posterior[moved] = _complement_class_zero(posterior)
        self._evidence[moved] = evidence
        self.libm_evaluations += 2 * n_classes * moved.size
        return self._posterior.copy(), self._evidence.copy()

    def count_work(self, iterations: int) -> None:
        """Record one EM run's iterations and libm evaluations."""
        obs.count("crowd.em.iterations", iterations)
        obs.count("crowd.em.libm_evaluations", self.libm_evaluations)

    def labels(self, posterior: np.ndarray) -> dict[int, int]:
        """MAP label per task; a tie goes to the higher class."""
        top = self.n_classes - 1 - np.argmax(posterior[:, ::-1], axis=1)
        return dict(zip(self.task_ids.tolist(), top.tolist()))


@dataclass(frozen=True)
class DawidSkeneResult:
    """Output of Dawid–Skene EM.

    Attributes
    ----------
    labels:
        MAP label per task.
    posteriors:
        P(truth = k) per task, a tuple with one entry per class.
    worker_accuracies:
        Estimated accuracy per worker index.
    log_likelihood:
        Final data log-likelihood.
    iterations:
        EM iterations performed.
    """

    labels: dict[int, int]
    posteriors: dict[int, tuple[float, ...]]
    worker_accuracies: dict[int, float]
    log_likelihood: float
    iterations: int


def dawid_skene(
    answer_set: AnswerSet,
    max_iterations: int = 100,
    tolerance: float = 1e-7,
    class_prior: Sequence[float] | None = None,
) -> DawidSkeneResult:
    """Run one-coin Dawid–Skene EM on an answer set.

    ``class_prior`` is P(truth = k) for each class; the default,
    uniform, matches the simulator's truth draw.
    """
    n_classes = answer_set.n_classes
    prior = np.asarray(
        np.full(n_classes, 1.0 / n_classes) if class_prior is None else class_prior,
        dtype=float,
    )
    if prior.shape != (n_classes,) or not (
        np.all(prior > 0.0) and abs(prior.sum() - 1.0) <= 1e-9
    ):
        raise ValidationError(
            f"class_prior must be {n_classes} positive probabilities "
            f"summing to 1, got {class_prior}"
        )
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")

    if not answer_set.n_answers():
        return DawidSkeneResult({}, {}, {}, 0.0, 0)
    rows = TaskRows.of(answer_set)
    log_prior = _map(math.log, prior)
    answers_per_worker = rows.per_worker()
    posterior = rows.soft_majority()
    log_right = rows.cached_log_by_row()
    log_wrong = rows.cached_log_by_row()
    log_likelihood = -math.inf
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        # M-step: accuracy = expected agreement with posterior truth.
        agreement = rows.per_worker(rows.on_vote(posterior))
        accuracy = np.clip(agreement / answers_per_worker, _EPS, 1.0 - _EPS)

        # E-step: posterior truth per task, and the log-likelihood.
        right = log_right(accuracy)
        wrong = log_wrong((1.0 - accuracy) / (n_classes - 1))
        posterior, evidence = rows.e_step(log_prior, rows.by_vote(right, wrong))
        new_ll = float(np.cumsum(evidence)[-1])

        if new_ll - log_likelihood < tolerance and iterations > 1:
            log_likelihood = new_ll
            break
        log_likelihood = new_ll

    rows.count_work(iterations)
    return DawidSkeneResult(
        labels=rows.labels(posterior),
        posteriors=dict(zip(rows.task_ids.tolist(), map(tuple, posterior.tolist()))),
        worker_accuracies=dict(zip(rows.worker_ids.tolist(), accuracy.tolist())),
        log_likelihood=log_likelihood,
        iterations=iterations,
    )


def _complement_class_zero(posterior: np.ndarray) -> np.ndarray:
    """Set class 0's share to one minus the others' (in place)."""
    posterior[:, 0] = 1.0 - posterior[:, 1:].sum(axis=1)
    return posterior


def _moved(previous: np.ndarray | None, values: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``values`` with an entry whose bits differ
    from ``previous``'s; every row when there is no ``previous``.

    Bits, not float values, are compared, so -0.0 against 0.0 counts
    as moved.  Equal bits give equal libm results, so the results an
    unmoved row keeps are the ones its current values would give.
    """
    if previous is None:
        return np.arange(len(values))
    changed = previous.view(np.int64) != values.view(np.int64)
    if changed.ndim > 1:
        changed = changed.any(axis=1)
    return changed.nonzero()[0]


def _map(function, values: np.ndarray) -> np.ndarray:
    """``function`` applied to each entry (libm, not numpy's SIMD)."""
    return np.fromiter(
        map(function, values.ravel().tolist()), float, values.size
    ).reshape(values.shape)
