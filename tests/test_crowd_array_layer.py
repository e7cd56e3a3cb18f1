"""The array-native answer layer against its dict-of-dicts references.

Answers are three parallel arrays; majority and weighted votes,
Dawid–Skene and the Beta estimator reduce over them with
``np.bincount``.  Each is checked against the loop it replaced
(``tests/crowd_reference.py``).  Every sum adds in the reference's
order, so the results are equal, not merely close: Dawid–Skene's
posteriors and accuracies are compared with ``==`` (a stronger check
than a 1e-12 tolerance, which labels at a posterior of 0.5 would not
survive).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd.aggregation import (
    dawid_skene,
    glad,
    majority_vote,
    weighted_majority_vote,
)
from repro.crowd.answer_model import (
    AnswerSet,
    simulate_answers,
    simulate_answers_reference,
)
from repro.crowd.estimation import BetaSkillEstimator
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError
from repro.market.worker import accuracy
from repro.sim.engine import Simulation
from repro.utils.rng import as_rng
from tests.crowd_reference import (
    answer_dicts,
    dawid_skene_reference,
    estimated_market_reference,
    majority_vote_reference,
    record_answers_reference,
    weighted_majority_vote_reference,
)

MARKET = generate_market(SyntheticConfig(n_workers=12, n_tasks=8), seed=3)


@st.composite
def dict_answer_sets(draw):
    """Hand-shaped answer sets: any task order, any worker order,
    few workers so ties and shared workers are common."""
    n_workers = draw(st.integers(1, 6))
    tasks = draw(st.lists(st.integers(0, 9), unique=True, max_size=7))
    answers = {}
    for task in tasks:
        workers = draw(
            st.lists(
                st.integers(0, n_workers - 1),
                unique=True,
                min_size=1,
                max_size=n_workers,
            )
        )
        answers[task] = {w: draw(st.integers(0, 1)) for w in workers}
    truths = {task: draw(st.integers(0, 1)) for task in tasks}
    return AnswerSet.from_dicts(answers, truths)


@st.composite
def simulated_answer_sets(draw):
    """Answer sets from the simulator on random (repeating) edges."""
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, MARKET.n_workers - 1),
                st.integers(0, MARKET.n_tasks - 1),
            ),
            max_size=60,
        )
    )
    return simulate_answers(MARKET, edges, seed=draw(st.integers(0, 999)))


answer_sets = st.one_of(dict_answer_sets(), simulated_answer_sets())


class TestAnswerSet:
    def test_from_dicts_keeps_iteration_order(self):
        answers = AnswerSet.from_dicts(
            {5: {2: 1, 0: 0}, 1: {3: 1}}, {5: 1, 1: 0}
        )
        assert answers.tasks.tolist() == [5, 5, 1]
        assert answers.workers.tolist() == [2, 0, 3]
        assert answers.votes.tolist() == [1, 0, 1]
        task_ids, group = answers.task_groups
        assert task_ids.tolist() == [5, 1]
        assert group.tolist() == [0, 0, 1]

    def test_rows_are_read_only(self):
        answers = AnswerSet.from_dicts({0: {0: 1}})
        with pytest.raises(ValueError):
            answers.votes[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            answers.tasks = np.zeros(1, dtype=np.int64)

    @pytest.mark.parametrize(
        "columns",
        [
            ([0, 1], [0], [1]),
            ([0], [0], [2]),
            ([[0]], [[0]], [[1]]),
            ([3, 1, 3], [2, 2, 2], [0, 1, 1]),
        ],
        ids=["lengths", "vote", "shape", "repeated-pair"],
    )
    def test_rejects_malformed_rows(self, columns):
        with pytest.raises(ValidationError):
            AnswerSet(*columns)

    def test_gathered_edge_accuracy_equals_matrix_entries(self):
        rng = as_rng(0)
        workers = rng.integers(0, MARKET.n_workers, 200)
        tasks = rng.integers(0, MARKET.n_tasks, 200)
        gathered = accuracy(
            MARKET.skill_matrix()[workers, MARKET.task_categories()[tasks]],
            MARKET.task_difficulties()[tasks],
        )
        assert np.array_equal(
            gathered, MARKET.accuracy_matrix()[workers, tasks]
        )

    @given(simulated_answer_sets())
    @settings(max_examples=30, deadline=None)
    def test_rows_equal_reference_rows(self, answers):
        # The batched rows equal the reference loop's dict, row for row.
        edges = list(
            zip(answers.workers.tolist(), answers.tasks.tolist())
        )
        ref = simulate_answers_reference(MARKET, edges, seed=0)
        fast = simulate_answers(MARKET, edges, seed=0)
        for column in ("tasks", "workers", "votes"):
            assert np.array_equal(
                getattr(fast, column), getattr(ref, column)
            )


class TestVotesAgainstReference:
    @given(answer_sets, st.integers(0, 99))
    @settings(max_examples=150, deadline=None)
    def test_majority_labels_and_rng_state(self, answers, seed):
        rng_fast, rng_ref = as_rng(seed), as_rng(seed)
        fast = majority_vote(answers, seed=rng_fast)
        ref = majority_vote_reference(answers, seed=rng_ref)
        assert fast == ref
        assert list(fast) == list(ref)
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    @given(
        answer_sets,
        st.dictionaries(
            st.integers(0, 11),
            st.sampled_from([0.0, 0.2, 0.5, 0.8, 0.9, 1.0]),
        ),
        st.integers(0, 99),
    )
    @settings(max_examples=150, deadline=None)
    def test_weighted_labels_and_rng_state(self, answers, accuracies, seed):
        rng_fast, rng_ref = as_rng(seed), as_rng(seed)
        fast = weighted_majority_vote(answers, accuracies, seed=rng_fast)
        ref = weighted_majority_vote_reference(
            answers, accuracies, seed=rng_ref
        )
        assert fast == ref
        assert list(fast) == list(ref)
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state


class TestDawidSkeneAgainstReference:
    @given(answer_sets, st.sampled_from([0.3, 0.5, 0.7]))
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_em(self, answers, class_prior):
        # Includes the symmetric case where the reference's own
        # posterior drifts off 0.5 by rounding and decides the label.
        fast = dawid_skene(answers, class_prior=(1.0 - class_prior, class_prior))
        ref = dawid_skene_reference(answers, class_prior=class_prior)
        assert fast.labels == ref.labels
        assert fast.iterations == ref.iterations
        assert [(t, p[1]) for t, p in fast.posteriors.items()] == list(
            ref.posteriors.items()
        )
        assert list(fast.worker_accuracies.items()) == list(
            ref.worker_accuracies.items()
        )
        assert fast.log_likelihood == ref.log_likelihood

    @given(dict_answer_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_em_results_ignore_task_order(self, answers, shuffle):
        # The EM aggregators read the rows in sorted-task order.
        by_task = answer_dicts(answers)
        tasks = list(by_task)
        shuffle.shuffle(tasks)
        shuffled = AnswerSet.from_dicts(
            {t: by_task[t] for t in tasks}, answers.truths
        )
        assert dawid_skene(shuffled) == dawid_skene(answers)
        assert glad(shuffled, max_iterations=5) == glad(
            answers, max_iterations=5
        )

    def test_symmetric_tie_matches_reference(self):
        # Two workers disagree on tasks 0 and 2 and agree on task 1: the
        # posteriors of 0 and 2 differ from 0.5 only by rounding.
        answers = AnswerSet([0, 0, 2, 2, 1, 1], [0, 1, 0, 1, 0, 1], [0, 1, 0, 1, 1, 1])
        fast = dawid_skene(answers)
        ref = dawid_skene_reference(answers)
        assert {t: p[1] for t, p in fast.posteriors.items()} == ref.posteriors
        assert fast.labels == ref.labels


def _reference_labels(answers, pick):
    return {
        task: (answers.truths.get(task, 0) + offset) % 2
        for task, offset in zip(answer_dicts(answers), pick)
        if offset >= 0
    }


class TestEstimatorAgainstReference:
    @given(
        st.lists(simulated_answer_sets(), min_size=1, max_size=3),
        st.lists(st.integers(-1, 1), min_size=8, max_size=8),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_record_answers_counts_are_exact(self, rounds, pick, per_category):
        fast = BetaSkillEstimator(per_category=per_category)
        ref = BetaSkillEstimator(per_category=per_category)
        for answers in rounds:
            labels = _reference_labels(answers, pick)
            assert fast.record_answers(
                MARKET, answers, labels
            ) == record_answers_reference(ref, MARKET, answers, labels)
            assert fast._counts == ref._counts
            assert list(fast._counts) == list(ref._counts)
            assert all(
                type(v) is float for pair in fast._counts.values() for v in pair
            )

    @given(
        st.lists(simulated_answer_sets(), min_size=0, max_size=3),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_estimated_skill_matrix_is_equal(self, rounds, per_category):
        estimator = BetaSkillEstimator(per_category=per_category)
        for answers in rounds:
            estimator.record_answers(MARKET, answers, dict(answers.truths))
        # Keys this market cannot look up are ignored, as before.
        estimator.record(999, 0, True)
        estimator.record(0, 99, False)
        fast = estimator.estimated_market(MARKET)
        ref = estimated_market_reference(estimator, MARKET)
        assert np.array_equal(fast.skill_matrix(), ref.skill_matrix())
        for a, b in zip(fast.workers, ref.workers):
            assert (a.worker_id, a.capacity, a.reservation_wage, a.active) == (
                b.worker_id, b.capacity, b.reservation_wage, b.active
            )
            assert np.array_equal(a.interests, b.interests)
        assert fast.tasks == ref.tasks


class TestWithSkills:
    def test_copies_workers_and_leaves_source_alone(self):
        before = MARKET.skill_matrix()
        skills = np.full(before.shape, 0.25)
        market = MARKET.with_skills(skills)
        assert np.array_equal(market.skill_matrix(), skills)
        assert np.array_equal(MARKET.skill_matrix(), before)
        assert all(a is not b for a, b in zip(market.workers, MARKET.workers))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda m: m[:, :-1],
            lambda m: m[:-1],
            lambda m: m.ravel(),
            lambda m: np.where(m == m[0, 0], np.nan, m),
            lambda m: np.where(m == m[0, 0], np.inf, m),
            lambda m: m + 1.0,
            lambda m: m - 1.0,
        ],
        ids=["columns", "rows", "flat", "nan", "inf", "above", "below"],
    )
    def test_rejects_bad_matrix(self, mutate):
        with pytest.raises(ValidationError):
            MARKET.with_skills(mutate(np.full(MARKET.skill_matrix().shape, 0.5)))


class TestEngineDraws:
    @pytest.mark.parametrize("entry_draws", [0, 1])
    @pytest.mark.parametrize("n", [0, 1, 7, 64])
    def test_vector_gold_draws_equal_scalar_draws(self, n, entry_draws):
        """``rng.random(n)`` (the estimator's gold flags) is the same
        stream as ``n`` scalar ``rng.random()`` calls, from either
        half-word buffer state."""
        vector, scalar = as_rng(11), as_rng(11)
        for rng in (vector, scalar):
            for _ in range(entry_draws):
                rng.integers(0, 2)
        values = vector.random(n)
        assert values.tolist() == [scalar.random() for _ in range(n)]
        assert vector.bit_generator.state == scalar.bit_generator.state

    @given(simulated_answer_sets(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_drop_answers_is_a_row_mask(self, answers, pick):
        edges = list(zip(answers.workers.tolist(), answers.tasks.tolist()))
        dropped = frozenset(
            edge for i, edge in enumerate(edges) if pick >> (i % 32) & 1
        )
        if not dropped:
            return
        kept = Simulation._drop_answers(answers, dropped)
        expected = {
            t: {w: v for w, v in by.items() if (w, t) not in dropped}
            for t, by in answer_dicts(answers).items()
        }
        expected = {t: by for t, by in expected.items() if by}
        assert answer_dicts(kept) == expected
        assert list(answer_dicts(kept)) == list(expected)
        assert kept.truths == {t: answers.truths[t] for t in expected}
