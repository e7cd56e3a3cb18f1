"""Tests for two-coin Dawid-Skene."""

import numpy as np
import pytest

from repro.crowd.aggregation.two_coin import two_coin_dawid_skene
from repro.crowd.answer_model import AnswerSet
from repro.errors import ValidationError


def _biased_answers(n_tasks=120, seed=0):
    """Workers with asymmetric reliabilities + one over-flagger."""
    rng = np.random.default_rng(seed)
    votes, truths = {}, {}
    # (sensitivity, specificity): worker 3 says 1 almost always.
    profiles = [(0.9, 0.9), (0.85, 0.8), (0.8, 0.85), (0.95, 0.15)]
    for t in range(n_tasks):
        truth = int(rng.random() < 0.4)
        truths[t] = truth
        votes[t] = {}
        for w, (sens, spec) in enumerate(profiles):
            if truth == 1:
                vote = 1 if rng.random() < sens else 0
            else:
                vote = 0 if rng.random() < spec else 1
            votes[t][w] = vote
    return AnswerSet.from_dicts(votes, truths)


class TestTwoCoin:
    def test_empty(self):
        result = two_coin_dawid_skene(AnswerSet())
        assert result.labels == {}
        assert result.iterations == 0

    def test_bad_iterations(self):
        with pytest.raises(ValidationError):
            two_coin_dawid_skene(AnswerSet(), max_iterations=0)

    def test_recovers_biased_worker_profile(self):
        answers = _biased_answers(n_tasks=400)
        result = two_coin_dawid_skene(answers)
        # Worker 3 over-flags: high sensitivity, terrible specificity.
        assert result.sensitivities[3] > 0.7
        assert result.specificities[3] < 0.5
        # Reliable workers look reliable on both coins.
        assert result.sensitivities[0] > 0.7
        assert result.specificities[0] > 0.7

    def test_estimates_class_prior(self):
        answers = _biased_answers(n_tasks=300, seed=1)
        result = two_coin_dawid_skene(answers)
        assert result.class_prior == pytest.approx(0.4, abs=0.1)

    def test_labels_beat_majority_under_bias(self):
        from repro.crowd.aggregation import majority_vote

        answers = _biased_answers(n_tasks=200, seed=2)
        two_coin = two_coin_dawid_skene(answers).labels
        majority = majority_vote(answers, seed=0)
        tc_accuracy = np.mean(
            [two_coin[t] == answers.truths[t] for t in answers.truths]
        )
        mv_accuracy = np.mean(
            [majority[t] == answers.truths[t] for t in answers.truths]
        )
        assert tc_accuracy >= mv_accuracy

    def test_log_likelihood_nondecreasing(self):
        answers = _biased_answers(n_tasks=60, seed=3)
        previous = -np.inf
        for iterations in range(1, 7):
            result = two_coin_dawid_skene(
                answers, max_iterations=iterations, tolerance=0.0
            )
            assert result.log_likelihood >= previous - 1e-9
            previous = result.log_likelihood

    def test_posteriors_bounded(self):
        result = two_coin_dawid_skene(_biased_answers(n_tasks=30, seed=4))
        assert all(0.0 <= p <= 1.0 for p in result.posteriors.values())

    def test_matches_one_coin_on_symmetric_workers(self):
        """With symmetric workers the two models should agree on labels."""
        from repro.crowd.aggregation import dawid_skene

        rng = np.random.default_rng(5)
        votes, truths = {}, {}
        for t in range(100):
            truth = int(rng.integers(0, 2))
            truths[t] = truth
            votes[t] = {
                w: truth if rng.random() < 0.85 else 1 - truth
                for w in range(5)
            }
        answers = AnswerSet.from_dicts(votes, truths)
        one = dawid_skene(answers).labels
        two = two_coin_dawid_skene(answers).labels
        agreement = np.mean([one[t] == two[t] for t in answers.truths])
        assert agreement > 0.95
