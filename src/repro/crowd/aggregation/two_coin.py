"""Two-coin Dawid–Skene EM: per-class worker reliabilities.

The one-coin model (:mod:`dawid_skene`) gives each worker a single
accuracy.  The two-coin model estimates a full 2×2 confusion matrix —
``sensitivity`` (P(answer 1 | truth 1)) and ``specificity``
(P(answer 0 | truth 0)) — which matters when workers are biased toward
one label (e.g. content moderators who over-flag).  This is the
original Dawid & Skene (1979) formulation restricted to two classes.

EM structure mirrors the one-coin module, and shares its
:class:`~repro.crowd.aggregation.dawid_skene.TaskRows` reductions:
E-step computes per-task posteriors, M-step re-estimates
sensitivities/specificities and the class prior; the data
log-likelihood is non-decreasing.  Its four per-worker logs go
through :meth:`TaskRows.cached_log_by_row`, so only the workers whose
sensitivity or specificity moved are re-evaluated.  The class prior
moves every iteration and is part of every task's log-joint, so the
E-step re-evaluates every task on every iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.crowd.aggregation.dawid_skene import TaskRows
from repro.crowd.answer_model import AnswerSet
from repro.errors import ValidationError

_EPS = 1e-4


@dataclass(frozen=True)
class TwoCoinResult:
    """Output of two-coin Dawid–Skene EM.

    Attributes
    ----------
    labels / posteriors:
        MAP label and P(truth = 1) per task.
    sensitivities / specificities:
        Per-worker P(vote 1 | truth 1) and P(vote 0 | truth 0).
    class_prior:
        Estimated P(truth = 1).
    log_likelihood / iterations:
        Final data log-likelihood and EM iterations performed.
    """

    labels: dict[int, int]
    posteriors: dict[int, float]
    sensitivities: dict[int, float]
    specificities: dict[int, float]
    class_prior: float
    log_likelihood: float
    iterations: int


def _clip(x: np.ndarray) -> np.ndarray:
    return np.clip(x, _EPS, 1.0 - _EPS)


def two_coin_dawid_skene(
    answer_set: AnswerSet,
    max_iterations: int = 100,
    tolerance: float = 1e-7,
) -> TwoCoinResult:
    """Run two-coin Dawid–Skene EM on an answer set."""
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    answer_set.require_binary("two-coin Dawid-Skene")
    if not answer_set.n_answers():
        return TwoCoinResult({}, {}, {}, {}, 0.5, 0.0, 0)

    rows = TaskRows.of(answer_set)
    says_one = rows.vote == 1
    posterior = rows.soft_majority()
    sensitivity = np.full(rows.worker_ids.size, 0.7)
    specificity = np.full(rows.worker_ids.size, 0.7)
    cached_logs = [rows.cached_log_by_row() for _ in range(4)]
    log_likelihood = -math.inf
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        # M-step (a worker with no mass on a class keeps its estimate).
        p0, p1 = posterior[rows.task].T
        class_prior = float(
            _clip(np.cumsum(posterior[:, 1])[-1] / rows.task_ids.size)
        )
        pos_total = rows.per_worker(p1)
        neg_total = rows.per_worker(p0)
        pos_agree = rows.per_worker(np.where(says_one, p1, 0.0))
        neg_agree = rows.per_worker(np.where(says_one, 0.0, p0))
        with np.errstate(divide="ignore", invalid="ignore"):
            sensitivity = np.where(
                pos_total > 0, _clip(pos_agree / pos_total), sensitivity
            )
            specificity = np.where(
                neg_total > 0, _clip(neg_agree / neg_total), specificity
            )

        # E-step + likelihood.
        log_sens, log_miss, log_spec, log_false = (
            log(per_worker)
            for log, per_worker in zip(
                cached_logs,
                (sensitivity, 1.0 - sensitivity, specificity, 1.0 - specificity),
            )
        )
        posterior, evidence = rows.e_step(
            np.array([math.log(1.0 - class_prior), math.log(class_prior)]),
            np.column_stack(
                (
                    np.where(says_one, log_false, log_spec),
                    np.where(says_one, log_sens, log_miss),
                )
            ),
        )
        new_ll = float(np.cumsum(evidence)[-1])

        if new_ll - log_likelihood < tolerance and iterations > 1:
            log_likelihood = new_ll
            break
        log_likelihood = new_ll

    rows.count_work(iterations)
    tasks = rows.task_ids.tolist()
    workers = rows.worker_ids.tolist()
    return TwoCoinResult(
        labels=rows.labels(posterior),
        posteriors=dict(zip(tasks, posterior[:, 1].tolist())),
        sensitivities=dict(zip(workers, sensitivity.tolist())),
        specificities=dict(zip(workers, specificity.tolist())),
        class_prior=class_prior,
        log_likelihood=log_likelihood,
        iterations=iterations,
    )
