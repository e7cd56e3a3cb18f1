"""Closed-form aggregated-answer quality for a set of workers.

``majority_vote_accuracy(accuracies)`` is the probability that a
majority of independent workers with the given per-worker accuracies
report the true label.  The vote-count distribution is Poisson-binomial
and is computed by the exact O(k²) dynamic program over the number of
correct votes; ties (even worker counts) are broken by a fair coin,
matching the simulator.  ``plurality_accuracy`` estimates the same
probability for more than two classes by sampling.

This function is the heart of the *coverage* objective: a task's
requester-side value is ``payment * (MV_accuracy(S) - 0.5) * 2`` for
its assigned worker set ``S``.  The marginal gain of adding a worker is
diminishing — the DP makes that submodularity concrete and testable.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_rng


def _check_accuracies(accuracies: Sequence[float]) -> np.ndarray:
    arr = np.asarray(accuracies, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(
            f"accuracies must be 1-D, got shape {arr.shape}"
        )
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValidationError("accuracies must lie in [0, 1]")
    return arr


def correct_vote_distribution(accuracies: Sequence[float]) -> np.ndarray:
    """Poisson-binomial pmf of the number of correct votes.

    Returns an array ``p`` of length ``k+1`` where ``p[c]`` is the
    probability exactly ``c`` of the ``k`` workers answer correctly.
    """
    arr = _check_accuracies(accuracies)
    pmf = np.zeros(arr.size + 1)
    pmf[0] = 1.0
    for accuracy in arr:
        # Shift-and-add: new[c] = old[c]*(1-a) + old[c-1]*a
        pmf[1:] = pmf[1:] * (1.0 - accuracy) + pmf[:-1] * accuracy
        pmf[0] *= 1.0 - accuracy
    return pmf


def majority_vote_accuracy(accuracies: Sequence[float]) -> float:
    """P(majority of independent votes is correct), fair-coin ties.

    An empty worker set has accuracy 0.5 — the requester would guess.
    """
    arr = _check_accuracies(accuracies)
    k = arr.size
    if k == 0:
        return 0.5
    pmf = correct_vote_distribution(arr)
    counts = np.arange(k + 1)
    win = pmf[counts * 2 > k].sum()
    tie = pmf[counts * 2 == k].sum()
    # The DP's float accumulation can overshoot 1 by a few ulps; the
    # result is a probability by construction, so clamp it.
    return float(min(max(win + 0.5 * tie, 0.0), 1.0))


def plurality_accuracy(
    accuracies: Sequence[float],
    n_classes: int,
    n_samples: int = 20_000,
    seed: SeedLike = 0,
) -> float:
    """Monte-Carlo P(plurality of a committee is correct), fair ties.

    A wrong vote is uniform over the other ``n_classes - 1`` labels
    (the simulator's symmetric noise).  The Poisson-binomial DP above
    stops at two classes; beyond that the vote counts are multinomial
    convolutions and sampling is the practical route.  An empty
    committee guesses.  Deterministic given ``seed``.
    """
    if n_classes < 2:
        raise ValidationError(f"n_classes must be >= 2, got {n_classes}")
    arr = _check_accuracies(accuracies)
    if arr.size == 0:
        return 1.0 / n_classes
    rng = as_rng(seed)
    # Truth is label 0 WLOG (symmetric noise).
    correct = rng.random((n_samples, arr.size)) < arr
    wrong_labels = rng.integers(1, n_classes, (n_samples, arr.size))
    votes = np.where(correct, 0, wrong_labels)
    counts = np.bincount(
        (np.arange(n_samples)[:, None] * n_classes + votes).ravel(),
        minlength=n_samples * n_classes,
    ).reshape(n_samples, n_classes)
    leading = counts == counts.max(axis=1, keepdims=True)
    return float(np.mean(leading[:, 0] / leading.sum(axis=1)))


def weighted_vote_accuracy(
    accuracies: Sequence[float],
    weights: Sequence[float],
    n_samples: int = 0,
    seed: SeedLike = 0,
) -> float:
    """P(weighted vote is correct) for given per-worker weights.

    Exact by enumeration for up to 20 workers (2^k outcomes); above
    that callers must pass ``n_samples`` for Monte-Carlo estimation.
    The estimate draws from ``seed`` (default 0 so repeated calls are
    reproducible); thread a shared :class:`numpy.random.Generator` to
    couple it to an experiment's stream.
    """
    arr = _check_accuracies(accuracies)
    w = np.asarray(weights, dtype=float)
    if w.shape != arr.shape:
        raise ValidationError(
            f"weights shape {w.shape} != accuracies shape {arr.shape}"
        )
    k = arr.size
    if k == 0:
        return 0.5
    if k <= 20 and n_samples == 0:
        total = 0.0
        for mask in range(1 << k):
            prob = 1.0
            score = 0.0
            for i in range(k):
                if mask >> i & 1:
                    prob *= arr[i]
                    score += w[i]
                else:
                    prob *= 1.0 - arr[i]
                    score -= w[i]
            if score > 0:
                total += prob
            elif score == 0:
                total += 0.5 * prob
        return float(total)
    if n_samples <= 0:
        raise ValidationError(
            f"{k} workers require Monte-Carlo: pass n_samples > 0"
        )
    rng = as_rng(seed)
    correct = rng.random((n_samples, k)) < arr[np.newaxis, :]
    scores = np.where(correct, w, -w).sum(axis=1)
    return float(np.mean((scores > 0) + 0.5 * (scores == 0)))


def knowledge_coverage_quality(accuracies: Sequence[float]) -> float:
    """Committee quality under the knows/guesses model, in [0, 1).

    Each worker *knows* the answer with competence
    ``k = max(2 * accuracy - 1, 0)`` and otherwise guesses.  If anyone
    in the committee knows, the aggregate is correct; if nobody knows,
    it is a coin flip.  The normalized quality (accuracy above chance,
    rescaled to [0, 1]) is then::

        Q(S) = 1 - prod_i (1 - k_i)

    which is a weighted-coverage function: **monotone and submodular**
    in the worker set — the property the greedy solver's guarantee
    rests on.  Its singleton value ``(accuracy - 0.5) * 2`` coincides
    exactly with the linear requester benefit, so the per-edge
    surrogate used to seed greedy upper-bounds all later marginals.

    Majority-vote accuracy (above) is what the *simulator* realizes;
    this function is what the *planner* optimizes.  Below-chance
    workers are clipped to competence 0: in this model they neither
    help nor hurt a committee.
    """
    arr = _check_accuracies(accuracies)
    if arr.size == 0:
        return 0.0
    competence = np.clip(2.0 * arr - 1.0, 0.0, 1.0)
    return float(1.0 - np.prod(1.0 - competence))


def marginal_quality_gain(
    current_accuracies: Sequence[float], new_accuracy: float
) -> float:
    """Increase in majority-vote accuracy from adding one worker.

    May be negative: adding a mediocre worker to an odd-sized strong
    committee can hurt (it creates tie risk), which is why the coverage
    objective is submodular-but-not-always-monotone and why the greedy
    solver only adds workers with positive marginal gain.
    """
    base = majority_vote_accuracy(current_accuracies)
    extended = majority_vote_accuracy(
        list(current_accuracies) + [new_accuracy]
    )
    return extended - base
