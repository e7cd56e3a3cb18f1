"""Tests for online bipartite matching."""

import hashlib

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.matching.online import (
    match_prices,
    online_greedy_matching,
    ranking_matching,
    take_best,
    two_phase_matching,
)
from repro.matching.reference import b_matching_reference


def _weight_fn(matrix):
    def weight_of(left, right):
        return float(matrix[left, right])

    return weight_of


def _random_instances(count, seed):
    """Online instances with absent and negative edges, zero and
    missing right capacities, and sample fractions from 0 to 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 8))
        weights = rng.uniform(-1, 5, (n, m))
        absent = rng.random((n, m)) < 0.2
        caps = rng.integers(0, 4, m).tolist() if rng.random() < 0.7 else None
        fraction = float(
            rng.choice([0.0, 0.1, 0.3, 0.5, 0.7, 1.0, rng.random()])
        )
        order = rng.permutation(n).tolist()

        def weight_of(left, right, weights=weights, absent=absent):
            return None if absent[left, right] else float(weights[left, right])

        yield order, m, weight_of, caps, fraction


def _reference_greedy(order, n_right, weight_of, right_capacities):
    """Each arrival takes its best positive edge with capacity left."""
    remaining = list(right_capacities or [1] * n_right)
    matches = []
    for left in order:
        best_right, best_weight = -1, 0.0
        for right in range(n_right):
            w = weight_of(left, right)
            if remaining[right] > 0 and w is not None and w > best_weight:
                best_right, best_weight = right, w
        if best_right >= 0:
            remaining[best_right] -= 1
            matches.append((left, best_right))
    return matches


class TestOnlineGreedy:
    def test_takes_best_available(self):
        matrix = np.array([[5.0, 1.0], [4.0, 3.0]])
        matches = online_greedy_matching(
            [0, 1], 2, _weight_fn(matrix)
        )
        assert matches == [(0, 0), (1, 1)]

    def test_skips_nonpositive(self):
        matrix = np.array([[-1.0, 0.0]])
        matches = online_greedy_matching([0], 2, _weight_fn(matrix))
        assert matches == []

    def test_none_edges_absent(self):
        def weight_of(left, right):
            return None

        assert online_greedy_matching([0, 1], 2, weight_of) == []

    def test_capacities(self):
        matrix = np.array([[5.0], [4.0], [3.0]])
        matches = online_greedy_matching(
            [0, 1, 2], 1, _weight_fn(matrix), right_capacities=[2]
        )
        assert matches == [(0, 0), (1, 0)]

    def test_order_must_be_permutation(self):
        with pytest.raises(ValidationError):
            online_greedy_matching([0, 0], 1, lambda l, r: 1.0)

    def test_capacity_length_check(self):
        with pytest.raises(ValidationError):
            online_greedy_matching(
                [0], 2, lambda l, r: 1.0, right_capacities=[1]
            )

    def test_greedy_can_be_suboptimal(self):
        """The classic adversarial instance: greedy grabs the wrong slot.

        Worker 0 takes slot 0 (1.0 > 0.9); worker 1 then finds slot 0
        taken and slot 1 worthless.  The offline optimum pairs 0-1 and
        1-0 for 1.9; greedy is stuck at 1.0.
        """
        matrix = np.array([[1.0, 0.9], [1.0, 0.0]])
        matches = online_greedy_matching([0, 1], 2, _weight_fn(matrix))
        assert matches == [(0, 0)]
        value = sum(matrix[l, r] for l, r in matches)
        assert value == pytest.approx(1.0)


class TestRanking:
    def test_all_matched_when_perfect(self):
        matches = ranking_matching(
            [0, 1], 2, lambda u: [0, 1], seed=0
        )
        assert len(matches) == 2

    def test_respects_neighbor_lists(self):
        matches = ranking_matching([0, 1], 2, lambda u: [u], seed=0)
        assert sorted(matches) == [(0, 0), (1, 1)]

    def test_no_double_booking(self):
        matches = ranking_matching(
            list(range(5)), 3, lambda u: [0, 1, 2], seed=1
        )
        rights = [r for _l, r in matches]
        assert len(rights) == len(set(rights)) <= 3

    def test_competitive_on_random_graphs(self):
        """RANKING should match >= (1-1/e) of the offline optimum."""
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(20):
            n = 12
            adjacency = [
                sorted(rng.choice(n, size=rng.integers(1, 5), replace=False))
                for _ in range(n)
            ]
            biadjacency = np.zeros((n, n))
            for u, neighbours in enumerate(adjacency):
                biadjacency[u, neighbours] = 1.0
            optimum = int(
                (
                    csgraph.maximum_bipartite_matching(
                        sparse.csr_matrix(biadjacency), perm_type="column"
                    )
                    >= 0
                ).sum()
            )
            order = list(rng.permutation(n))
            matched = len(
                ranking_matching(
                    order, n, lambda u: adjacency[u], seed=int(rng.integers(99))
                )
            )
            ratios.append(matched / optimum if optimum else 1.0)
        assert np.mean(ratios) > 1 - 1 / np.e


class TestTwoPhase:
    def test_sample_fraction_bounds(self):
        with pytest.raises(ValidationError):
            two_phase_matching(
                [0], 1, lambda l, r: 1.0, sample_fraction=1.5
            )

    def test_zero_sample_is_pure_greedy(self):
        matrix = np.array([[5.0, 1.0], [4.0, 3.0]])
        greedy = online_greedy_matching([0, 1], 2, _weight_fn(matrix))
        two = two_phase_matching(
            [0, 1], 2, _weight_fn(matrix), sample_fraction=0.0
        )
        assert greedy == two
        # Both equal a plain greedy loop on random instances.
        for order, m, weight_of, caps, _fraction in _random_instances(300, 5):
            expected = _reference_greedy(order, m, weight_of, caps)
            assert online_greedy_matching(order, m, weight_of, caps) == expected
            assert (
                two_phase_matching(order, m, weight_of, caps, sample_fraction=0.0)
                == expected
            )

    def test_matches_the_pinned_digest(self):
        """Pricing by the b-matching kernel gives the matches that the
        capacity-expanded assignment gave (recorded before the change):
        with one edge per sample arrival the two problems are the same."""
        digest = hashlib.sha256()
        for order, m, weight_of, caps, fraction in _random_instances(400, 12):
            digest.update(
                repr(two_phase_matching(order, m, weight_of, caps, fraction)).encode()
            )
        assert digest.hexdigest() == (
            "74a72a9a892dfaab6098011a04208689ab68df7258f382f9306802339b42c9da"
        )

    def test_prices_filter_low_value_grabs(self):
        """After observing a strong sample, weak later edges are refused."""
        # Right vertex 0 is precious (weight 10 from sample worker 0);
        # worker 1 arrives later with weight 1 and must not grab it.
        matrix = np.array([[10.0], [1.0]])
        matches = two_phase_matching(
            [0, 1], 1, _weight_fn(matrix), sample_fraction=0.5
        )
        assert (1, 0) not in matches

    def test_never_exceeds_capacity(self):
        rng = np.random.default_rng(3)
        matrix = rng.uniform(0, 5, (10, 4))
        caps = [2, 1, 3, 1]
        matches = two_phase_matching(
            list(range(10)), 4, _weight_fn(matrix),
            right_capacities=caps, sample_fraction=0.4,
        )
        for right in range(4):
            load = sum(1 for _l, r in matches if r == right)
            assert load <= caps[right]

    def test_each_left_at_most_once(self):
        rng = np.random.default_rng(4)
        matrix = rng.uniform(0, 5, (8, 8))
        matches = two_phase_matching(
            list(range(8)), 8, _weight_fn(matrix), sample_fraction=0.5
        )
        lefts = [l for l, _r in matches]
        assert len(lefts) == len(set(lefts))


class TestTwoPhasePhantomSlots:
    """Regression: pricing slots for rights with no remaining capacity.

    Phase-2 pricing used to build ``max(remaining[right], 1)`` slots
    per right vertex, so a vertex exhausted during the sample still
    got a phantom slot.  The phantom absorbed sample rows that should
    have priced the *live* vertices, leaving them underpriced and open
    to exactly the low-value grabs the prices exist to refuse.
    """

    def test_exhausted_vertex_does_not_leak_a_slot(self):
        # Sample (workers 0, 1): worker 0 takes right 0 greedily, so
        # right 0 is exhausted going into pricing.  With phantom slots
        # the optimal sample assignment put worker 0 (weight 10) on
        # the phantom and worker 1 (weight 0) on right 1, pricing
        # right 1 at 0 — so worker 2's weak 0.5 edge got accepted.
        # Correct pricing assigns worker 0's observed w(0,1)=1 to the
        # only live slot, and 0.5 < 1 is refused.
        matrix = np.array([[10.0, 1.0], [8.5, 0.0], [8.0, 0.5]])
        matches = two_phase_matching(
            [0, 1, 2], 2, _weight_fn(matrix), sample_fraction=0.67
        )
        assert matches == [(0, 0)]

    def test_zero_capacity_vertex_never_priced_or_matched(self):
        matrix = np.array([[5.0, 9.0], [4.0, 8.0]])
        matches = two_phase_matching(
            [0, 1], 2, _weight_fn(matrix),
            right_capacities=[1, 0], sample_fraction=0.5,
        )
        assert all(right != 1 for _left, right in matches)
        assert matches == [(0, 0)]

    def test_all_capacity_consumed_in_sample_is_safe(self):
        # Every right vertex exhausted during the sample: pricing has
        # zero slots and must not build a phantom assignment problem.
        matrix = np.array([[3.0], [2.0], [1.0]])
        matches = two_phase_matching(
            [0, 1, 2], 1, _weight_fn(matrix), sample_fraction=0.34
        )
        assert matches == [(0, 0)]


class TestMatchPrices:
    def test_prices_each_column_by_its_best_matched_edge(self):
        weights = np.array([[10.0, 1.0], [0.0, 3.0]])
        prices = match_prices(weights, [2, 1], [2, 2])
        assert prices.tolist() == [10.0, 3.0]

    def test_empty_sample_prices_nothing(self):
        prices = match_prices(np.zeros((0, 3)), [], [1, 1, 1])
        assert prices.tolist() == [0.0, 0.0, 0.0]

    def test_bounds_from_the_reference_optimum(self):
        """On blocks with ties, zero capacities and ``n > m``: a price
        is 0 or a candidate weight of its column, and the prices bracket
        the reference optimum: ``sum(p) <= total <= sum(cap * p)``, with
        equality when every column capacity is 1."""
        rng = np.random.default_rng(24)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 7))
            weights = rng.integers(-2, 5, (n, m)).astype(float)
            row_caps = rng.integers(0, 4, n)
            col_caps = rng.integers(0, 2 if rng.random() < 0.5 else 4, m)
            prices = match_prices(weights, row_caps, col_caps)
            _edges, total = b_matching_reference(weights, row_caps, col_caps)
            candidate = (
                (weights > 0) & (row_caps[:, None] > 0) & (col_caps[None, :] > 0)
            )
            for j, price in enumerate(prices):
                assert price == 0.0 or price in weights[candidate[:, j], j]
            assert prices.sum() <= total + 1e-9
            assert total <= (col_caps * prices).sum() + 1e-9
            if (col_caps <= 1).all():
                assert prices.sum() == pytest.approx(total)


class TestTakeBest:
    def test_best_first_with_ties_on_the_lowest_position(self):
        scores = np.array([1.0, 2.0, 2.0, 0.5, 2.0])
        assert take_best(scores, 2).tolist() == [1, 2]
        assert take_best(scores, 9).tolist() == [1, 2, 4, 0, 3]

    def test_strictly_above_the_floor_and_zero(self):
        scores = np.array([0.0, -1.0, 1.0, 3.0])
        assert take_best(scores, 4).tolist() == [3, 2]
        assert take_best(scores, 4, 1.0).tolist() == [3]
        floor = np.array([-5.0, -5.0, 0.5, 3.0])
        assert take_best(scores, 4, floor).tolist() == [2]

    def test_no_capacity_takes_nothing(self):
        assert take_best(np.array([1.0]), 0).size == 0

    def test_one_unit_picks_what_the_scalar_scan_picks(self):
        """Capacity 1 is one step of ``two_phase_matching``'s scan;
        rounded scores make ties common."""
        rng = np.random.default_rng(3)
        for _ in range(300):
            m = int(rng.integers(1, 8))
            scores = np.round(rng.normal(size=m), 1)
            prices = np.round(rng.uniform(-0.5, 0.5, size=m), 1)
            expected = two_phase_matching(
                [0],
                m,
                lambda left, right: (
                    float(scores[right])
                    if scores[right] > prices[right]
                    else None
                ),
                sample_fraction=0.0,
            )
            taken = take_best(scores, 1, prices)
            assert [(0, int(j)) for j in taken] == expected
