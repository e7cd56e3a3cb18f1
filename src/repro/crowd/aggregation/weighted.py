"""Accuracy-weighted majority voting.

Given (estimated) per-worker accuracies, the Bayes-optimal aggregation
of independent binary votes weights each vote by its log-odds
``log(a / (1 - a))``.  Accuracies are clipped away from {0, 1} so a
single over-confident estimate cannot dominate with infinite weight.
"""

from __future__ import annotations

import math

import numpy as np

from repro.crowd.answer_model import AnswerSet
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_rng

_CLIP = 1e-3


def log_odds_weight(accuracy: float) -> float:
    """Bayes-optimal vote weight for a worker of given accuracy."""
    if not 0.0 <= accuracy <= 1.0:
        raise ValidationError(f"accuracy must lie in [0, 1], got {accuracy}")
    a = min(max(accuracy, _CLIP), 1.0 - _CLIP)
    return math.log(a / (1.0 - a))


def weighted_majority_vote(
    answer_set: AnswerSet,
    worker_accuracies: dict[int, float],
    seed: SeedLike = None,
) -> dict[int, int]:
    """Aggregate with per-worker log-odds weights.

    Workers missing from ``worker_accuracies`` default to 0.5 (weight
    0): an unknown worker's vote carries no information.  Ties (net
    score exactly 0) draw one fair coin per tied task, in task order.
    Each task's score adds its signed weights in row order, starting
    from 0.
    """
    answer_set.require_binary("weighted majority vote")
    rng = as_rng(seed)
    task_ids, group = answer_set.task_groups
    worker_ids, worker = np.unique(answer_set.workers, return_inverse=True)
    weight = np.array(
        [
            log_odds_weight(worker_accuracies.get(w, 0.5))
            for w in worker_ids.tolist()
        ]
    )[worker]
    score = np.bincount(
        group,
        weights=np.where(answer_set.votes == 1, weight, -weight),
        minlength=task_ids.size,
    )
    labels = (score > 0).astype(int)
    for position in np.flatnonzero(score == 0).tolist():
        labels[position] = int(rng.integers(0, 2))
    return dict(zip(task_ids.tolist(), labels.tolist()))
