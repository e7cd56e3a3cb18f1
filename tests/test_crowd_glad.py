"""Tests for GLAD aggregation."""

import numpy as np
import pytest

from repro.crowd.aggregation.glad import glad
from repro.crowd.answer_model import AnswerSet
from repro.errors import ValidationError


def _glad_world(n_tasks=120, n_workers=6, seed=0):
    """Answers generated from GLAD's own model."""
    rng = np.random.default_rng(seed)
    abilities = np.array([3.0, 2.0, 1.5, 1.0, 0.5, -1.0])[:n_workers]
    easiness = rng.uniform(0.3, 3.0, n_tasks)
    votes, truths = {}, {}
    for t in range(n_tasks):
        truth = int(rng.integers(0, 2))
        truths[t] = truth
        votes[t] = {}
        for w in range(n_workers):
            p_correct = 1.0 / (1.0 + np.exp(-abilities[w] * easiness[t]))
            correct = rng.random() < p_correct
            votes[t][w] = truth if correct else 1 - truth
    return AnswerSet.from_dicts(votes, truths), abilities, easiness


class TestGlad:
    def test_empty(self):
        result = glad(AnswerSet())
        assert result.labels == {}
        assert result.iterations == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"class_prior": 0.0},
            {"max_iterations": 0},
            {"gradient_steps": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValidationError):
            glad(AnswerSet(), **kwargs)

    def test_labels_match_truth_mostly(self):
        answers, _a, _e = _glad_world(seed=1)
        result = glad(answers)
        accuracy = np.mean(
            [result.labels[t] == answers.truths[t] for t in answers.truths]
        )
        assert accuracy > 0.85

    def test_recovers_ability_ordering(self):
        answers, abilities, _e = _glad_world(n_tasks=300, seed=2)
        result = glad(answers)
        estimated = [result.abilities[w] for w in range(len(abilities))]
        # Best worker ranked above worst; adversary detected as negative.
        assert estimated[0] > estimated[4]
        assert estimated[5] < 0

    def test_recovers_difficulty_ordering(self):
        answers, _a, easiness = _glad_world(n_tasks=200, seed=3)
        result = glad(answers)
        estimated = np.array([result.easiness[t] for t in range(200)])
        # Spearman-ish check: correlation between true and estimated
        # easiness ranks is clearly positive.
        true_rank = np.argsort(np.argsort(easiness))
        est_rank = np.argsort(np.argsort(estimated))
        correlation = np.corrcoef(true_rank, est_rank)[0, 1]
        assert correlation > 0.3

    def test_posteriors_bounded(self):
        answers, _a, _e = _glad_world(n_tasks=40, seed=4)
        result = glad(answers)
        assert all(0.0 <= p <= 1.0 for p in result.posteriors.values())

    def test_easiness_positive(self):
        answers, _a, _e = _glad_world(n_tasks=40, seed=5)
        result = glad(answers)
        assert all(b > 0 for b in result.easiness.values())

    def test_deterministic(self):
        answers, _a, _e = _glad_world(n_tasks=30, seed=6)
        first = glad(answers)
        second = glad(answers)
        assert first.labels == second.labels
        assert first.log_likelihood == pytest.approx(second.log_likelihood)

    def test_likelihood_improves_over_initial(self):
        """EM with gradient M-steps should end above its start."""
        answers, _a, _e = _glad_world(n_tasks=80, seed=7)
        one_iteration = glad(answers, max_iterations=1, tolerance=0.0)
        many = glad(answers, max_iterations=30, tolerance=0.0)
        assert many.log_likelihood >= one_iteration.log_likelihood - 1e-6

    def test_beats_majority_with_adversary(self):
        """GLAD should flip the adversarial worker's votes; majority
        cannot."""
        from repro.crowd.aggregation import majority_vote

        rng = np.random.default_rng(8)
        votes, truths = {}, {}
        # 2 good workers, 3 adversaries: majority is usually wrong.
        profiles = [0.9, 0.9, 0.1, 0.1, 0.1]
        for t in range(150):
            truth = int(rng.integers(0, 2))
            truths[t] = truth
            votes[t] = {
                w: truth if rng.random() < p else 1 - truth
                for w, p in enumerate(profiles)
            }
        answers = AnswerSet.from_dicts(votes, truths)
        glad_labels = glad(answers).labels
        mv_labels = majority_vote(answers, seed=0)
        glad_accuracy = np.mean(
            [glad_labels[t] == answers.truths[t] for t in answers.truths]
        )
        mv_accuracy = np.mean(
            [mv_labels[t] == answers.truths[t] for t in answers.truths]
        )
        # Label-switching symmetry means GLAD may lock onto the
        # inverted solution; accept either a clear win or a clear
        # (symmetric) loss, but not majority-like mediocrity.
        assert glad_accuracy > mv_accuracy or glad_accuracy < 1 - mv_accuracy
