"""Plain majority (plurality) voting."""

from __future__ import annotations

import numpy as np

from repro.crowd.answer_model import AnswerSet
from repro.utils.rng import SeedLike, as_rng


def majority_vote(answer_set: AnswerSet, seed: SeedLike = None) -> dict[int, int]:
    """Aggregate each task's answers by plurality.

    A tie draws ``rng.choice`` among the leading labels, one draw per
    tied task in task order (seeded for reproducibility).  For two
    classes that is the fair coin the closed-form accuracy in
    :func:`repro.crowd.quality.majority_vote_accuracy` assumes.
    Returns ``{task_index: label}`` in first-answer order.
    """
    rng = as_rng(seed)
    task_ids, group = answer_set.task_groups
    n_classes = answer_set.n_classes
    counts = np.bincount(
        group * n_classes + answer_set.votes,
        minlength=task_ids.size * n_classes,
    ).reshape(-1, n_classes)
    leading = counts == counts.max(axis=1, keepdims=True)
    labels = np.argmax(leading, axis=1)
    for position in np.flatnonzero(leading.sum(axis=1) > 1).tolist():
        labels[position] = rng.choice(np.flatnonzero(leading[position]))
    return dict(zip(task_ids.tolist(), labels.tolist()))
