"""Plain majority voting."""

from __future__ import annotations

import numpy as np

from repro.crowd.answer_model import AnswerSet
from repro.utils.rng import SeedLike, as_rng


def majority_vote(answer_set: AnswerSet, seed: SeedLike = None) -> dict[int, int]:
    """Aggregate each task's answers by simple majority.

    Ties are broken by a fair coin (seeded for reproducibility), the
    same rule the closed-form accuracy in
    :func:`repro.crowd.quality.majority_vote_accuracy` assumes.
    Returns ``{task_index: label}``.
    """
    task_ids, group = answer_set.task_groups
    ones = np.bincount(group, weights=answer_set.votes, minlength=task_ids.size)
    zeros = np.bincount(group, minlength=task_ids.size) - ones
    return label_by_score(task_ids, ones - zeros, seed)


def label_by_score(
    task_ids: np.ndarray, score: np.ndarray, seed: SeedLike = None
) -> dict[int, int]:
    """``{task: 1 if score > 0 else 0}``, in ``task_ids`` order; a zero
    score draws one fair coin per tied task, in that order."""
    rng = as_rng(seed)
    labels = (score > 0).astype(int)
    for position in np.flatnonzero(score == 0).tolist():
        labels[position] = int(rng.integers(0, 2))
    return dict(zip(task_ids.tolist(), labels.tolist()))
