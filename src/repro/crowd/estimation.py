"""Online worker-skill estimation from answer history.

The core solvers plan with the accuracy matrix.  On a real platform
accuracies are unknown and must be *estimated* from workers' past
answers — either against gold questions (ground truth known) or against
the aggregated labels (noisy supervision).  This module provides the
standard Bayesian estimator:

:class:`BetaSkillEstimator`
    Per (worker, category) Beta posterior over accuracy.  Point
    estimates are posterior means; the prior ``Beta(a0, b0)`` encodes
    the platform's belief about a fresh worker (default mean 0.7, the
    observed cross-platform average).

The simulator exercises the full estimate → assign → answer → update
loop via :class:`repro.sim.scenario.Scenario`'s ``estimator`` knob, and
the F15 ablation (added in this reproduction) quantifies how much
assignment quality is lost to estimation error as history accumulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.crowd.answer_model import AnswerSet
from repro.errors import ValidationError
from repro.market.market import LaborMarket
from repro.utils.validation import check_positive


@dataclass
class BetaSkillEstimator:
    """Beta-posterior accuracy estimates per (worker, category).

    Parameters
    ----------
    prior_a / prior_b:
        Beta prior pseudo-counts (successes / failures).  The default
        ``Beta(7, 3)`` has mean 0.7 with the weight of ten gold
        questions.
    per_category:
        When False, one posterior per worker pooled across categories —
        less data-hungry, blinder to specialization.

    ``_counts`` maps ``(worker_id, category)`` (category ``-1`` when
    pooled) to ``(successes, failures)``; it stays a plain dict so
    simulation checkpoints pickle it.  :meth:`record_answers` folds a
    whole round into it with one grouped reduction over the answer
    rows, and :meth:`estimated_market` reads it back as one
    ``(n_workers, n_categories)`` matrix.
    """

    prior_a: float = 7.0
    prior_b: float = 3.0
    per_category: bool = True
    _counts: dict[tuple[int, int], tuple[float, float]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        check_positive("prior_a", self.prior_a)
        check_positive("prior_b", self.prior_b)

    def _key(self, worker_id: int, category: int) -> tuple[int, int]:
        return (worker_id, category if self.per_category else -1)

    # -- updates ---------------------------------------------------------

    def record(
        self, worker_id: int, category: int, correct: bool, weight: float = 1.0
    ) -> None:
        """Fold one (possibly soft-weighted) outcome into the posterior."""
        if weight < 0:
            raise ValidationError(f"weight must be >= 0, got {weight}")
        key = self._key(worker_id, category)
        successes, failures = self._counts.get(key, (0.0, 0.0))
        if correct:
            successes += weight
        else:
            failures += weight
        self._counts[key] = (successes, failures)

    def record_answers(
        self,
        market: LaborMarket,
        answer_set: AnswerSet,
        reference_labels: dict[int, int],
    ) -> int:
        """Update from one round of answers scored against labels.

        ``reference_labels`` may be ground truth (gold tasks) or the
        aggregated labels (self-training); tasks missing from it are
        skipped.  Returns the number of observations folded in.

        The round is one grouped reduction: each (worker, category)
        key adds its count of agreeing and disagreeing answers at
        once, so new keys enter ``_counts`` in first-answer order and
        integer-valued counts end exactly where one :meth:`record` per
        answer would leave them.
        """
        task_ids, group = answer_set.task_groups
        reference = np.array(
            [reference_labels.get(t, -1) for t in task_ids.tolist()],
            dtype=np.int64,
        )[group]
        scored = np.flatnonzero(reference >= 0)
        workers = answer_set.workers[scored]
        categories = (
            market.task_categories()[answer_set.tasks[scored]]
            if self.per_category
            else np.full(scored.size, -1)
        )
        keys, first, key_of_row = np.unique(
            workers * (len(market.taxonomy) + 1) + categories + 1,
            return_index=True,
            return_inverse=True,
        )
        agree = np.bincount(
            key_of_row,
            weights=answer_set.votes[scored] == reference[scored],
            minlength=keys.size,
        ).tolist()
        total = np.bincount(key_of_row, minlength=keys.size).tolist()
        for k in np.argsort(first).tolist():
            worker_id = market.workers[int(workers[first[k]])].worker_id
            key = (worker_id, int(categories[first[k]]))
            successes, failures = self._counts.get(key, (0.0, 0.0))
            self._counts[key] = (
                successes + agree[k], failures + (total[k] - agree[k])
            )
        return int(scored.size)

    # -- queries ---------------------------------------------------------

    def _beta(self, worker_id: int, category: int) -> tuple[float, float]:
        """Posterior Beta parameters ``(a, b)`` for one key."""
        successes, failures = self._counts.get(
            self._key(worker_id, category), (0.0, 0.0)
        )
        return self.prior_a + successes, self.prior_b + failures

    def estimate(self, worker_id: int, category: int) -> float:
        """Posterior-mean accuracy for a worker on a category."""
        a, b = self._beta(worker_id, category)
        return a / (a + b)

    def observations(self, worker_id: int, category: int) -> float:
        """Total (weighted) observations behind the current estimate."""
        successes, failures = self._counts.get(
            self._key(worker_id, category), (0.0, 0.0)
        )
        return successes + failures

    def credible_interval(
        self, worker_id: int, category: int, mass: float = 0.9
    ) -> tuple[float, float]:
        """Central credible interval via the normal approximation.

        Adequate once a few observations exist; the endpoints are
        clipped to [0, 1].
        """
        if not 0.0 < mass < 1.0:
            raise ValidationError(f"mass must lie in (0, 1), got {mass}")
        a, b = self._beta(worker_id, category)
        mean = a / (a + b)
        variance = a * b / ((a + b) ** 2 * (a + b + 1.0))
        from repro.utils.stats import normal_quantile

        z = normal_quantile(0.5 + mass / 2.0)
        half = z * float(np.sqrt(variance))
        return (max(mean - half, 0.0), min(mean + half, 1.0))

    def _skill_estimates(self, market: LaborMarket) -> np.ndarray:
        """``(n_workers, n_categories)`` posterior means, the matrix of
        :meth:`estimate` over the market, in one pass over ``_counts``."""
        row_of = {w.worker_id: i for i, w in enumerate(market.workers)}
        n_categories = len(market.taxonomy)
        stored = range(n_categories) if self.per_category else (-1,)
        successes = np.zeros((market.n_workers, n_categories))
        failures = np.zeros((market.n_workers, n_categories))
        for (worker_id, category), (s, f) in self._counts.items():
            row = row_of.get(worker_id)
            if row is not None and category in stored:
                column = category if self.per_category else slice(None)
                successes[row, column], failures[row, column] = s, f
        a = self.prior_a + successes
        b = self.prior_b + failures
        return a / (a + b)

    def estimated_market(self, market: LaborMarket) -> LaborMarket:
        """A market copy whose skills are the current estimates.

        Planning against the estimated market instead of the true one
        is exactly what a real platform does; the simulator's
        estimation mode uses this.  :meth:`LaborMarket.with_skills`
        checks the :meth:`_skill_estimates` matrix once, instead of one
        ``Worker`` validation per worker.  Only rows of workers with
        new answers move, and the engine's next planning problem
        re-evaluates only those (``MBAProblem.succeed``).
        """
        return market.with_skills(self._skill_estimates(market))

    def rmse_against(self, market: LaborMarket) -> float:
        """Root-mean-square error of estimates vs the market's true skills."""
        if not market.workers:
            return 0.0
        errors = self._skill_estimates(market) - market.skill_matrix()
        return float(np.sqrt(np.mean(np.square(errors))))
