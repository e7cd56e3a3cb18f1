"""Crowdsourcing substrate: answers, quality estimation, aggregation.

This package simulates what happens *after* assignment: assigned
workers produce (noisy) answers over two or more labels, answers are
aggregated into a final label, and the requester's realized quality
is measured.  It also
provides the closed-form committee-quality functions — majority-vote
accuracy (what the simulator realizes) and the knows/guesses coverage
quality (the submodular surrogate the planner optimizes).
"""

from repro.crowd.answer_model import AnswerSet, simulate_answers
from repro.crowd.estimation import BetaSkillEstimator
from repro.crowd.quality import (
    knowledge_coverage_quality,
    majority_vote_accuracy,
    marginal_quality_gain,
    plurality_accuracy,
    weighted_vote_accuracy,
)
from repro.crowd.aggregation import (
    DawidSkeneResult,
    dawid_skene,
    majority_vote,
    weighted_majority_vote,
)

__all__ = [
    "AnswerSet",
    "BetaSkillEstimator",
    "DawidSkeneResult",
    "dawid_skene",
    "knowledge_coverage_quality",
    "majority_vote",
    "majority_vote_accuracy",
    "marginal_quality_gain",
    "plurality_accuracy",
    "simulate_answers",
    "weighted_majority_vote",
    "weighted_vote_accuracy",
]
