"""GLAD-style aggregation: worker ability × task easiness.

Whitehill et al.'s GLAD models the probability that worker ``w``
answers task ``t`` correctly as::

    P(correct) = sigmoid(alpha_w * beta_t)

with worker ability ``alpha`` (can be negative — adversarial) and task
easiness ``beta > 0`` (log-parameterized).  Tasks differ in difficulty,
so a mistake on an easy task is more damning than one on a hard task —
the effect one-coin Dawid–Skene cannot express.

Inference is EM with gradient M-steps (the standard approach):

* E-step — posterior P(truth = 1 | answers, alpha, beta) per task;
* M-step — a few steps of gradient ascent on the expected complete-data
  log-likelihood w.r.t. alpha and log(beta).

The E-step is the shared
:meth:`~repro.crowd.aggregation.dawid_skene.TaskRows.e_step`, which
re-evaluates only the tasks whose log-joint moved (after the gradient
steps, nearly all of them).  The
implementation is deterministic, and tested for likelihood non-decrease
(up to the inexact M-step's tolerance) and for recovering difficulty
orderings on synthetic data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.crowd.aggregation.dawid_skene import TaskRows
from repro.crowd.answer_model import AnswerSet
from repro.errors import ValidationError

_CLIP = 30.0  # logit clip: sigmoid saturates far before this


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_CLIP, _CLIP)))


@dataclass(frozen=True)
class GladResult:
    """Output of GLAD EM.

    Attributes
    ----------
    labels / posteriors:
        MAP label and P(truth = 1) per task.
    abilities:
        Per-worker alpha (higher = more reliable; negative =
        adversarial).
    easiness:
        Per-task beta > 0 (higher = easier).
    log_likelihood / iterations:
        Final data log-likelihood and EM iterations performed.
    """

    labels: dict[int, int]
    posteriors: dict[int, float]
    abilities: dict[int, float]
    easiness: dict[int, float]
    log_likelihood: float
    iterations: int


def glad(
    answer_set: AnswerSet,
    max_iterations: int = 50,
    gradient_steps: int = 10,
    learning_rate: float = 0.05,
    tolerance: float = 1e-6,
    class_prior: float = 0.5,
) -> GladResult:
    """Run GLAD EM on an answer set."""
    if not 0.0 < class_prior < 1.0:
        raise ValidationError(
            f"class_prior must lie strictly in (0, 1), got {class_prior}"
        )
    if max_iterations < 1 or gradient_steps < 1:
        raise ValidationError(
            "max_iterations and gradient_steps must be >= 1"
        )

    answer_set.require_binary("GLAD")
    if not answer_set.n_answers():
        return GladResult({}, {}, {}, {}, 0.0, 0)

    rows = TaskRows.of(answer_set)
    alpha = np.ones(rows.worker_ids.size)  # abilities
    log_beta = np.zeros(rows.task_ids.size)  # log easiness
    log_prior = np.array([math.log(1.0 - class_prior), math.log(class_prior)])

    def e_step() -> tuple[np.ndarray, float]:
        """Posteriors and the data log-likelihood."""
        p_correct = np.clip(
            _sigmoid(alpha[rows.worker] * np.exp(log_beta[rows.task])),
            1e-9,
            1 - 1e-9,
        )
        posterior, evidence = rows.e_step(
            log_prior, rows.by_vote(np.log(p_correct), np.log(1.0 - p_correct))
        )
        return posterior, float(evidence.sum())

    posterior, log_likelihood = e_step()
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # M-step: gradient ascent on the expected complete-data
        # likelihood, each answer weighted by P(it is correct).
        correct_weight = rows.on_vote(posterior)
        for _ in range(gradient_steps):
            beta = np.exp(log_beta)[rows.task]
            z = alpha[rows.worker] * beta
            # d/dz of [cw*log(sigma) + (1-cw)*log(1-sigma)] = cw - sigma
            dz = correct_weight - _sigmoid(z)
            alpha = np.clip(
                alpha + learning_rate * rows.per_worker(dz * beta), -8.0, 8.0
            )
            log_beta = np.clip(
                log_beta + learning_rate * np.bincount(rows.task, weights=dz * z),
                -4.0,
                4.0,
            )
        posterior, new_ll = e_step()
        if abs(new_ll - log_likelihood) < tolerance and iterations > 1:
            log_likelihood = new_ll
            break
        log_likelihood = new_ll

    rows.count_work(iterations)
    tasks = rows.task_ids.tolist()
    return GladResult(
        labels=rows.labels(posterior),
        posteriors=dict(zip(tasks, posterior[:, 1].tolist())),
        abilities=dict(zip(rows.worker_ids.tolist(), alpha.tolist())),
        easiness=dict(zip(tasks, np.exp(log_beta).tolist())),
        log_likelihood=log_likelihood,
        iterations=iterations,
    )
