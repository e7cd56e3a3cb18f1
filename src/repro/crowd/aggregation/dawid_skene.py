"""Dawid–Skene EM for joint truth + worker-accuracy inference.

The binary one-coin specialization: worker ``w`` has a single unknown
accuracy ``a_w`` applied symmetrically to both classes.  EM alternates

* **E-step** — posterior P(truth = 1 | answers, accuracies) per task;
* **M-step** — each worker's accuracy re-estimated as the expected
  fraction of their answers agreeing with the posterior truths.

The data log-likelihood is non-decreasing across iterations (a property
test locks this), and accuracies are clipped into ``[eps, 1-eps]`` to
keep the likelihood finite.

Both steps are ``np.bincount`` reductions over :class:`TaskRows` (the
answer rows in sorted-task order), so every per-worker and per-task
sum adds its terms in the order of the per-answer loop kept as the
test reference.  Logs and exponentials go through :mod:`math`, once
per worker and per task: numpy's vectorized ``log``/``exp`` differ
from libm in the last bit on some inputs, which is enough to flip a
label whose posterior sits at 0.5.  Results are bit-identical to the
loop.  Two-coin EM and GLAD share :class:`TaskRows`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.crowd.answer_model import AnswerSet
from repro.errors import ValidationError

_EPS = 1e-4


@dataclass(frozen=True)
class TaskRows:
    """An answer set's rows in sorted-task order, densely indexed.

    ``task``/``worker`` map each row to its position in ``task_ids``/
    ``worker_ids`` (both sorted); ``says_one`` is the row's vote.
    """

    task_ids: np.ndarray
    worker_ids: np.ndarray
    task: np.ndarray
    worker: np.ndarray
    says_one: np.ndarray

    @classmethod
    def of(cls, answer_set: AnswerSet) -> TaskRows:
        order = np.argsort(answer_set.tasks, kind="stable")
        task_ids, task = np.unique(
            answer_set.tasks[order], return_inverse=True
        )
        worker_ids, worker = np.unique(
            answer_set.workers[order], return_inverse=True
        )
        return cls(
            task_ids, worker_ids, task, worker, answer_set.votes[order] == 1
        )

    def soft_majority(self) -> np.ndarray:
        """``(ones + 1) / (answers + 2)`` per task: EM's start."""
        return (np.bincount(self.task, weights=self.says_one) + 1.0) / (
            np.bincount(self.task) + 2.0
        )

    def per_worker(self, weights: np.ndarray | None = None) -> np.ndarray:
        """Per-worker sums of row ``weights`` (row counts if None)."""
        return np.bincount(
            self.worker, weights=weights, minlength=self.worker_ids.size
        )

    def log_by_row(self, per_worker: np.ndarray) -> np.ndarray:
        """``math.log`` of a per-worker vector, gathered to the rows."""
        return _map(math.log, per_worker)[self.worker]

    def e_step(
        self,
        class_prior: float,
        log_if_one: np.ndarray,
        log_if_zero: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(posterior, evidence)`` per task.

        ``log_if_one``/``log_if_zero`` are each row's log P(vote |
        truth = 1) and log P(vote | truth = 0); both are consumed.
        """
        # Each task's sum starts from the log prior: fold it into the
        # task's first row, since (0 + prior) + t == prior + t.
        first = np.flatnonzero(np.diff(self.task, prepend=-1))
        log_if_one[first] += math.log(class_prior)
        log_if_zero[first] += math.log(1.0 - class_prior)
        log_p1 = np.bincount(self.task, weights=log_if_one)
        log_p0 = np.bincount(self.task, weights=log_if_zero)
        # exp(log_p1 - peak) + exp(log_p0 - peak), where one term is
        # exp(0.0) == 1.0 exactly.
        peak = np.maximum(log_p1, log_p0)
        low = np.minimum(log_p1, log_p0)
        evidence = peak + _map(math.log, 1.0 + _map(math.exp, low - peak))
        return _map(math.exp, log_p1 - evidence), evidence


@dataclass(frozen=True)
class DawidSkeneResult:
    """Output of Dawid–Skene EM.

    Attributes
    ----------
    labels:
        MAP label per task.
    posteriors:
        P(truth = 1) per task.
    worker_accuracies:
        Estimated accuracy per worker index.
    log_likelihood:
        Final data log-likelihood.
    iterations:
        EM iterations performed.
    """

    labels: dict[int, int]
    posteriors: dict[int, float]
    worker_accuracies: dict[int, float]
    log_likelihood: float
    iterations: int


def dawid_skene(
    answer_set: AnswerSet,
    max_iterations: int = 100,
    tolerance: float = 1e-7,
    class_prior: float = 0.5,
) -> DawidSkeneResult:
    """Run one-coin Dawid–Skene EM on an answer set.

    ``class_prior`` is P(truth = 1); 0.5 matches the simulator's
    uniform truth draw.
    """
    if not 0.0 < class_prior < 1.0:
        raise ValidationError(
            f"class_prior must lie strictly in (0, 1), got {class_prior}"
        )
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")

    if not answer_set.n_answers():
        return DawidSkeneResult({}, {}, {}, 0.0, 0)
    rows = TaskRows.of(answer_set)
    answers_per_worker = rows.per_worker()
    posterior = rows.soft_majority()
    log_likelihood = -math.inf
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        # M-step: accuracy = expected agreement with posterior truth.
        p1 = posterior[rows.task]
        agreement = rows.per_worker(np.where(rows.says_one, p1, 1.0 - p1))
        accuracy = np.clip(
            agreement / answers_per_worker, _EPS, 1.0 - _EPS
        )

        # E-step: posterior truth per task, and the log-likelihood.
        right = rows.log_by_row(accuracy)
        wrong = rows.log_by_row(1.0 - accuracy)
        posterior, evidence = rows.e_step(
            class_prior,
            np.where(rows.says_one, right, wrong),
            np.where(rows.says_one, wrong, right),
        )
        new_ll = float(np.cumsum(evidence)[-1])

        if new_ll - log_likelihood < tolerance and iterations > 1:
            log_likelihood = new_ll
            break
        log_likelihood = new_ll

    tasks = rows.task_ids.tolist()
    return DawidSkeneResult(
        labels=dict(zip(tasks, (posterior >= 0.5).astype(int).tolist())),
        posteriors=dict(zip(tasks, posterior.tolist())),
        worker_accuracies=dict(
            zip(rows.worker_ids.tolist(), accuracy.tolist())
        ),
        log_likelihood=log_likelihood,
        iterations=iterations,
    )


def _map(function, values: np.ndarray) -> np.ndarray:
    """``function`` applied to each entry (libm, not numpy's SIMD)."""
    return np.fromiter(map(function, values.tolist()), float, values.size)
