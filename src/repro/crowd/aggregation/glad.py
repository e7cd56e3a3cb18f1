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

This implementation is self-contained numpy, deterministic, and tested
for likelihood non-decrease (up to the inexact M-step's tolerance) and
for recovering difficulty orderings on synthetic data.
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

    if not answer_set.n_answers():
        return GladResult({}, {}, {}, {}, 0.0, 0)

    # Flat observation arrays: (task, worker, answer).
    rows = TaskRows.of(answer_set)
    obs_task, obs_worker = rows.task, rows.worker
    obs_answer = rows.says_one.astype(int)

    n_tasks, n_workers = rows.task_ids.size, rows.worker_ids.size
    alpha = np.ones(n_workers)          # abilities
    log_beta = np.zeros(n_tasks)        # log easiness
    # Soft-majority initialization of the posterior.
    posterior = rows.soft_majority()

    log_prior_1 = math.log(class_prior)
    log_prior_0 = math.log(1.0 - class_prior)

    def correctness_probability() -> np.ndarray:
        """P(answer correct) per observation under current params."""
        return _sigmoid(alpha[obs_worker] * np.exp(log_beta[obs_task]))

    def e_step() -> float:
        """Update posteriors; return the data log-likelihood."""
        p_correct = np.clip(correctness_probability(), 1e-9, 1 - 1e-9)
        # log P(answer | truth=1): correct iff answer == 1.
        log_a1 = np.where(
            obs_answer == 1, np.log(p_correct), np.log(1.0 - p_correct)
        )
        log_a0 = np.where(
            obs_answer == 0, np.log(p_correct), np.log(1.0 - p_correct)
        )
        log_p1 = log_prior_1 + np.bincount(
            obs_task, weights=log_a1, minlength=n_tasks
        )
        log_p0 = log_prior_0 + np.bincount(
            obs_task, weights=log_a0, minlength=n_tasks
        )
        peak = np.maximum(log_p1, log_p0)
        evidence = peak + np.log(
            np.exp(log_p1 - peak) + np.exp(log_p0 - peak)
        )
        posterior[:] = np.exp(log_p1 - evidence)
        return float(evidence.sum())

    def m_step() -> None:
        """Gradient ascent on the expected complete-data likelihood."""
        nonlocal alpha, log_beta
        for _ in range(gradient_steps):
            beta = np.exp(log_beta)
            z = alpha[obs_worker] * beta[obs_task]
            sigma = _sigmoid(z)
            # P(observation is correct | truth): weight by posterior.
            p1 = posterior[obs_task]
            correct_weight = np.where(obs_answer == 1, p1, 1.0 - p1)
            # d/dz of [cw*log(sigma) + (1-cw)*log(1-sigma)] = cw - sigma
            dz = correct_weight - sigma
            grad_alpha = np.bincount(
                obs_worker, weights=dz * beta[obs_task],
                minlength=n_workers,
            )
            grad_log_beta = np.bincount(
                obs_task, weights=dz * z, minlength=n_tasks
            )
            alpha = alpha + learning_rate * grad_alpha
            log_beta = log_beta + learning_rate * grad_log_beta
            log_beta = np.clip(log_beta, -4.0, 4.0)
            alpha = np.clip(alpha, -8.0, 8.0)

    log_likelihood = e_step()
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        m_step()
        new_ll = e_step()
        if abs(new_ll - log_likelihood) < tolerance and iterations > 1:
            log_likelihood = new_ll
            break
        log_likelihood = new_ll

    tasks = rows.task_ids.tolist()
    return GladResult(
        labels=dict(zip(tasks, (posterior >= 0.5).astype(int).tolist())),
        posteriors=dict(zip(tasks, posterior.tolist())),
        abilities=dict(zip(rows.worker_ids.tolist(), alpha.tolist())),
        easiness=dict(zip(tasks, np.exp(log_beta).tolist())),
        log_likelihood=log_likelihood,
        iterations=iterations,
    )
