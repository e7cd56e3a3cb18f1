"""Tests for the answer simulator."""

import numpy as np
import pytest

from repro.crowd.answer_model import (
    simulate_answers,
    simulate_answers_reference,
)
from repro.errors import ValidationError
from repro.utils.rng import as_rng
from tests.crowd_reference import answer_dicts


class TestSimulateAnswers:
    def test_every_edge_answered(self, tiny_market):
        edges = [(0, 0), (1, 0), (1, 1)]
        answers = simulate_answers(tiny_market, edges, seed=0)
        assert answers.n_answers() == 3
        assert sorted(answers.workers[answers.tasks == 0].tolist()) == [0, 1]
        assert answers.workers[answers.tasks == 1].tolist() == [1]

    def test_truth_drawn_once_per_task(self, tiny_market):
        answers = simulate_answers(tiny_market, [(0, 0), (1, 0)], seed=0)
        assert set(answers.truths) == {0}
        assert answers.truths[0] in (0, 1)

    def test_deterministic_given_seed(self, tiny_market):
        edges = [(0, 0), (1, 1), (2, 0)]
        a = simulate_answers(tiny_market, edges, seed=9)
        b = simulate_answers(tiny_market, edges, seed=9)
        assert answer_dicts(a) == answer_dicts(b)
        assert a.truths == b.truths

    def test_accuracy_statistics(self, tiny_market):
        """Empirical correctness rate converges to the accuracy matrix."""
        accuracy = tiny_market.accuracy_matrix()[0, 0]
        rng = np.random.default_rng(0)
        hits = 0
        trials = 3000
        for _ in range(trials):
            answers = simulate_answers(tiny_market, [(0, 0)], seed=rng)
            hits += answers.votes[0] == answers.truths[0]
        assert hits / trials == pytest.approx(accuracy, abs=0.03)

    def test_rejects_bad_worker_index(self, tiny_market):
        with pytest.raises(ValidationError):
            simulate_answers(tiny_market, [(99, 0)], seed=0)

    def test_rejects_bad_task_index(self, tiny_market):
        with pytest.raises(ValidationError):
            simulate_answers(tiny_market, [(0, 99)], seed=0)

    def test_empty_edges(self, tiny_market):
        answers = simulate_answers(tiny_market, [], seed=0)
        assert answers.n_answers() == 0
        assert answers.truths == {}

    def test_answers_are_binary(self, small_market):
        edges = [(i, i % small_market.n_tasks) for i in range(10)]
        answers = simulate_answers(small_market, edges, seed=1)
        assert set(answers.votes.tolist()) <= {0, 1}


class TestBatchedBitIdentity:
    """The batched fast path must be indistinguishable from the scalar
    reference: same outputs, same dict ordering, same post-call
    generator state — for any entry state of the PCG64 half-word
    buffer."""

    def _random_edges(self, market, rng, n_edges):
        return list(
            zip(
                rng.integers(0, market.n_workers, n_edges).tolist(),
                rng.integers(0, market.n_tasks, n_edges).tolist(),
            )
        )

    def _assert_identical(self, market, edges, make_rng):
        rng_fast, rng_ref = make_rng(), make_rng()
        fast = simulate_answers(market, edges, rng_fast)
        ref = simulate_answers_reference(market, edges, rng_ref)
        assert fast.truths == ref.truths
        # Row order matters to downstream consumers that iterate.
        assert list(fast.truths) == list(ref.truths)
        for column in ("tasks", "workers", "votes"):
            assert np.array_equal(getattr(fast, column), getattr(ref, column))
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
        # The streams keep agreeing after the call.
        assert rng_fast.integers(0, 2) == rng_ref.integers(0, 2)
        assert rng_fast.random() == rng_ref.random()

    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_clean_buffer_entry(self, small_market, seed):
        picker = as_rng(seed + 1000)
        edges = self._random_edges(small_market, picker, 60)
        self._assert_identical(
            small_market, edges, lambda: as_rng(seed)
        )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_dirty_buffer_entry(self, small_market, seed):
        """Entering with a buffered half-word (odd number of prior
        integers() calls) must still replay the stream exactly."""
        picker = as_rng(seed + 2000)
        edges = self._random_edges(small_market, picker, 40)

        def make_rng():
            rng = as_rng(seed)
            rng.integers(0, 2)  # leaves has_uint32 = 1
            return rng

        self._assert_identical(small_market, edges, make_rng)

    def test_repeated_edges_keep_reference_overwrite(self, small_market):
        edges = [(0, 0), (1, 0), (0, 0), (2, 1), (0, 0)]
        self._assert_identical(small_market, edges, lambda: as_rng(9))

    def test_non_pcg64_falls_back(self, small_market):
        picker = as_rng(3000)
        edges = self._random_edges(small_market, picker, 30)
        fast = simulate_answers(
            small_market,
            edges,
            np.random.Generator(np.random.MT19937(4)),  # lint: allow
        )
        ref = simulate_answers_reference(
            small_market,
            edges,
            np.random.Generator(np.random.MT19937(4)),  # lint: allow
        )
        assert fast.truths == ref.truths
        assert answer_dicts(fast) == answer_dicts(ref)

    def test_error_path_replays_partial_consumption(self, small_market):
        edges = [(0, 0), (1, 1), (999, 0)]
        rng_fast, rng_ref = as_rng(2), as_rng(2)
        with pytest.raises(ValidationError):
            simulate_answers(small_market, edges, rng_fast)
        with pytest.raises(ValidationError):
            simulate_answers_reference(small_market, edges, rng_ref)
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
