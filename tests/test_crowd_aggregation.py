"""Tests for majority / weighted / Dawid-Skene aggregation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.aggregation import (
    dawid_skene,
    majority_vote,
    weighted_majority_vote,
)
from repro.crowd.aggregation.weighted import log_odds_weight
from repro.crowd.answer_model import AnswerSet
from repro.errors import ValidationError


def _answer_set(task_answers, truths=None):
    return AnswerSet.from_dicts(task_answers, truths)


class TestMajorityVote:
    def test_clear_majority(self):
        answers = _answer_set({0: {0: 1, 1: 1, 2: 0}})
        assert majority_vote(answers) == {0: 1}

    def test_unanimous_zero(self):
        answers = _answer_set({0: {0: 0, 1: 0}})
        assert majority_vote(answers) == {0: 0}

    def test_tie_break_is_seeded(self):
        answers = _answer_set({0: {0: 1, 1: 0}})
        assert majority_vote(answers, seed=3) == majority_vote(answers, seed=3)

    def test_tie_break_is_fair(self):
        answers = _answer_set({0: {0: 1, 1: 0}})
        outcomes = [majority_vote(answers, seed=s)[0] for s in range(200)]
        assert 60 < sum(outcomes) < 140

    def test_empty(self):
        assert majority_vote(_answer_set({})) == {}


class TestWeightedMajorityVote:
    def test_heavy_worker_dominates(self):
        answers = _answer_set({0: {0: 1, 1: 0, 2: 0}})
        labels = weighted_majority_vote(
            answers, {0: 0.99, 1: 0.55, 2: 0.55}
        )
        assert labels == {0: 1}

    def test_unknown_worker_weight_zero(self):
        answers = _answer_set({0: {0: 1, 1: 0}})
        # Worker 1 unknown -> weight 0; worker 0 known -> decides.
        labels = weighted_majority_vote(answers, {0: 0.9})
        assert labels == {0: 1}

    def test_log_odds_weight_symmetry(self):
        assert log_odds_weight(0.5) == pytest.approx(0.0)
        assert log_odds_weight(0.8) == pytest.approx(-log_odds_weight(0.2))

    def test_log_odds_weight_clipped(self):
        assert math.isfinite(log_odds_weight(1.0))
        assert math.isfinite(log_odds_weight(0.0))

    def test_log_odds_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            log_odds_weight(1.5)


class TestDawidSkene:
    def test_empty(self):
        result = dawid_skene(_answer_set({}))
        assert result.labels == {}
        assert result.iterations == 0

    def test_recovers_clear_consensus(self):
        answers = _answer_set(
            {
                t: {w: 1 if t % 2 == 0 else 0 for w in range(5)}
                for t in range(10)
            }
        )
        result = dawid_skene(answers)
        assert all(
            result.labels[t] == (1 if t % 2 == 0 else 0) for t in range(10)
        )

    def test_identifies_spammer(self):
        """A worker who always disagrees with consensus gets low accuracy."""
        rng = np.random.default_rng(0)
        votes, truths = {}, {}
        for t in range(40):
            truth = int(rng.integers(0, 2))
            truths[t] = truth
            votes[t] = {}
            for w in range(4):  # reliable workers, 90 %
                correct = rng.random() < 0.9
                votes[t][w] = truth if correct else 1 - truth
            votes[t][4] = 1 - truth  # adversary
        result = dawid_skene(_answer_set(votes, truths))
        reliable = [result.worker_accuracies[w] for w in range(4)]
        assert min(reliable) > 0.7
        assert result.worker_accuracies[4] < 0.3

    def test_beats_majority_with_skewed_skills(self):
        """DS should out-label majority when skills vary widely."""
        rng = np.random.default_rng(1)
        votes, truths = {}, {}
        accuracies = [0.95, 0.95, 0.52, 0.52, 0.52]
        for t in range(200):
            truth = int(rng.integers(0, 2))
            truths[t] = truth
            votes[t] = {}
            for w, a in enumerate(accuracies):
                correct = rng.random() < a
                votes[t][w] = truth if correct else 1 - truth
        answers = _answer_set(votes, truths)
        ds_labels = dawid_skene(answers).labels
        mv_labels = majority_vote(answers, seed=0)
        ds_accuracy = np.mean(
            [ds_labels[t] == answers.truths[t] for t in answers.truths]
        )
        mv_accuracy = np.mean(
            [mv_labels[t] == answers.truths[t] for t in answers.truths]
        )
        assert ds_accuracy >= mv_accuracy

    def test_log_likelihood_nondecreasing(self):
        """EM's defining property, checked across iteration counts."""
        rng = np.random.default_rng(2)
        votes, truths = {}, {}
        for t in range(30):
            truth = int(rng.integers(0, 2))
            truths[t] = truth
            votes[t] = {
                w: truth if rng.random() < 0.7 else 1 - truth
                for w in range(4)
            }
        answers = _answer_set(votes, truths)
        previous = -np.inf
        for iterations in range(1, 8):
            result = dawid_skene(
                answers, max_iterations=iterations, tolerance=0.0
            )
            assert result.log_likelihood >= previous - 1e-9
            previous = result.log_likelihood

    def test_posteriors_in_unit_interval(self):
        rng = np.random.default_rng(3)
        result = dawid_skene(
            _answer_set(
                {
                    t: {w: int(rng.integers(0, 2)) for w in range(3)}
                    for t in range(15)
                }
            )
        )
        assert all(
            0.0 <= q <= 1.0 for p in result.posteriors.values() for q in p
        )

    def test_bad_class_prior(self):
        with pytest.raises(ValidationError):
            dawid_skene(_answer_set({0: {0: 1}}), class_prior=1.0)

    def test_bad_iterations(self):
        with pytest.raises(ValidationError):
            dawid_skene(_answer_set({0: {0: 1}}), max_iterations=0)
