"""Dict-of-dicts references for the array-native answer layer.

Majority and weighted votes, one-coin Dawid–Skene and the
Beta estimator's round fold and estimated market used to loop in Python
over ``{task: {worker: answer}}``.  Those loops live on here, unchanged
apart from reading that dict from :func:`answer_dicts`, as the ground
truth the ``np.bincount`` implementations are checked against
(``tests/test_crowd_array_layer.py``).  Test-only: nothing in
``repro`` imports this module.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.crowd.aggregation.dawid_skene import _EPS, DawidSkeneResult
from repro.crowd.aggregation.weighted import log_odds_weight
from repro.crowd.answer_model import AnswerSet
from repro.crowd.estimation import BetaSkillEstimator
from repro.market.market import LaborMarket
from repro.utils.rng import SeedLike, as_rng


def answer_dicts(answer_set: AnswerSet) -> dict[int, dict[int, int]]:
    """``{task: {worker: answer}}`` from the rows, in row order."""
    answers: dict[int, dict[int, int]] = {}
    for task, worker, vote in zip(
        answer_set.tasks.tolist(),
        answer_set.workers.tolist(),
        answer_set.votes.tolist(),
    ):
        answers.setdefault(task, {})[worker] = vote
    return answers


def _clip(x: float) -> float:
    return min(max(x, _EPS), 1.0 - _EPS)


def majority_vote_reference(
    answer_set: AnswerSet, seed: SeedLike = None
) -> dict[int, int]:
    rng = as_rng(seed)
    labels: dict[int, int] = {}
    for task_index, by_worker in answer_dicts(answer_set).items():
        ones = sum(by_worker.values())
        zeros = len(by_worker) - ones
        if ones > zeros:
            labels[task_index] = 1
        elif zeros > ones:
            labels[task_index] = 0
        else:
            labels[task_index] = int(rng.integers(0, 2))
    return labels


def weighted_majority_vote_reference(
    answer_set: AnswerSet,
    worker_accuracies: dict[int, float],
    seed: SeedLike = None,
) -> dict[int, int]:
    rng = as_rng(seed)
    labels: dict[int, int] = {}
    for task_index, by_worker in answer_dicts(answer_set).items():
        score = 0.0
        for worker_index, answer in by_worker.items():
            weight = log_odds_weight(worker_accuracies.get(worker_index, 0.5))
            score += weight if answer == 1 else -weight
        if score > 0:
            labels[task_index] = 1
        elif score < 0:
            labels[task_index] = 0
        else:
            labels[task_index] = int(rng.integers(0, 2))
    return labels


def dawid_skene_reference(
    answer_set: AnswerSet,
    max_iterations: int = 100,
    tolerance: float = 1e-7,
    class_prior: float = 0.5,
) -> DawidSkeneResult:
    answers = answer_dicts(answer_set)
    tasks = sorted(answers)
    workers = sorted({w for by_worker in answers.values() for w in by_worker})
    if not tasks:
        return DawidSkeneResult({}, {}, {}, 0.0, 0)

    posterior: dict[int, float] = {}
    for task in tasks:
        by_worker = answers[task]
        posterior[task] = (sum(by_worker.values()) + 1.0) / (len(by_worker) + 2.0)

    accuracy = {w: 0.7 for w in workers}
    log_likelihood = -math.inf
    iterations = 0

    for iterations in range(1, max_iterations + 1):
        agreement = {w: 0.0 for w in workers}
        count = {w: 0 for w in workers}
        for task in tasks:
            p1 = posterior[task]
            for worker, answer in answers[task].items():
                agreement[worker] += p1 if answer == 1 else (1.0 - p1)
                count[worker] += 1
        for worker in workers:
            if count[worker]:
                a = agreement[worker] / count[worker]
                accuracy[worker] = _clip(a)

        new_ll = 0.0
        for task in tasks:
            log_p1 = math.log(class_prior)
            log_p0 = math.log(1.0 - class_prior)
            for worker, answer in answers[task].items():
                a = accuracy[worker]
                if answer == 1:
                    log_p1 += math.log(a)
                    log_p0 += math.log(1.0 - a)
                else:
                    log_p1 += math.log(1.0 - a)
                    log_p0 += math.log(a)
            peak = max(log_p1, log_p0)
            evidence = peak + math.log(
                math.exp(log_p1 - peak) + math.exp(log_p0 - peak)
            )
            posterior[task] = math.exp(log_p1 - evidence)
            new_ll += evidence

        if new_ll - log_likelihood < tolerance and iterations > 1:
            log_likelihood = new_ll
            break
        log_likelihood = new_ll

    labels = {task: int(posterior[task] >= 0.5) for task in tasks}
    return DawidSkeneResult(
        labels=labels,
        posteriors=dict(posterior),
        worker_accuracies=dict(accuracy),
        log_likelihood=log_likelihood,
        iterations=iterations,
    )


def record_answers_reference(
    estimator: BetaSkillEstimator,
    market: LaborMarket,
    answer_set: AnswerSet,
    reference_labels: dict[int, int],
) -> int:
    observed = 0
    for task_index, by_worker in answer_dicts(answer_set).items():
        reference = reference_labels.get(task_index)
        if reference is None:
            continue
        category = market.tasks[task_index].category
        for worker_index, answer in by_worker.items():
            worker_id = market.workers[worker_index].worker_id
            estimator.record(worker_id, category, answer == reference)
            observed += 1
    return observed


def estimated_market_reference(
    estimator: BetaSkillEstimator, market: LaborMarket
) -> LaborMarket:
    workers = []
    for worker in market.workers:
        estimated = np.array(
            [
                estimator.estimate(worker.worker_id, category)
                for category in range(len(market.taxonomy))
            ]
        )
        workers.append(dataclasses.replace(worker, skills=estimated))
    return LaborMarket(
        workers, market.tasks, market.taxonomy, market.requesters
    )
