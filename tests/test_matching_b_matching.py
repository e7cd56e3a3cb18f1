"""Tests for maximum-weight b-matching: brute force, the explicit-network
reference, the scipy LP oracle, input validation, and the size rule
that picks the array or list form of the kernel's search."""

import itertools
import json
import math
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError
from repro.matching import b_matching
from repro.matching.auction import auction_assignment
from repro.matching.b_matching import max_weight_b_matching
from repro.matching.reference import b_matching_reference
from repro.perf.harness import build_stream_suite
from repro.spec import compile_spec, compile_stream
from repro.stream import StreamDispatcher
from tests.lp_oracle import lp_optimum


def _brute_force_b_matching(weights, row_caps, col_caps):
    """Exhaustive optimum over all subsets of positive edges."""
    n, m = weights.shape
    edges = [
        (i, j) for i in range(n) for j in range(m) if weights[i, j] > 0
    ]
    best = 0.0
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            row_load = [0] * n
            col_load = [0] * m
            feasible = True
            for i, j in subset:
                row_load[i] += 1
                col_load[j] += 1
                if row_load[i] > row_caps[i] or col_load[j] > col_caps[j]:
                    feasible = False
                    break
            if feasible:
                total = sum(weights[i, j] for i, j in subset)
                best = max(best, total)
    return best


class TestBMatching:
    def test_unit_capacities_match_assignment(self):
        rng = np.random.default_rng(1)
        weights = rng.uniform(-2, 5, (5, 5))
        edges, total = max_weight_b_matching(
            weights, np.ones(5, dtype=int), np.ones(5, dtype=int)
        )
        # Oracle: scipy's assignment on the matrix padded with one zero
        # column per row, where taking a pad means staying unmatched.
        optimize = pytest.importorskip("scipy.optimize")
        padded = np.hstack([weights, np.zeros((5, 5))])
        rows, cols = optimize.linear_sum_assignment(padded, maximize=True)
        assert total == pytest.approx(padded[rows, cols].sum())

    def test_respects_row_capacity(self):
        weights = np.array([[5.0, 4.0, 3.0]])
        edges, total = max_weight_b_matching(
            weights, np.array([2]), np.array([1, 1, 1])
        )
        assert len(edges) == 2
        assert total == pytest.approx(9.0)

    def test_respects_column_capacity(self):
        weights = np.array([[5.0], [4.0], [3.0]])
        edges, total = max_weight_b_matching(
            weights, np.array([1, 1, 1]), np.array([2])
        )
        assert len(edges) == 2
        assert total == pytest.approx(9.0)

    def test_skips_negative_edges(self):
        weights = np.array([[-1.0, 2.0]])
        edges, total = max_weight_b_matching(
            weights, np.array([2]), np.array([1, 1])
        )
        assert edges == [(0, 1)]
        assert total == pytest.approx(2.0)

    def test_zero_capacity_rows(self):
        weights = np.array([[5.0], [5.0]])
        edges, _total = max_weight_b_matching(
            weights, np.array([0, 1]), np.array([2])
        )
        assert edges == [(1, 0)]

    def test_empty_weights(self):
        edges, total = max_weight_b_matching(
            np.zeros((0, 0)), np.zeros(0, dtype=int), np.zeros(0, dtype=int)
        )
        assert edges == []
        assert total == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            max_weight_b_matching(
                np.zeros((2, 2)), np.array([1]), np.array([1, 1])
            )

    def test_negative_capacity(self):
        with pytest.raises(ValidationError):
            max_weight_b_matching(
                np.zeros((1, 1)), np.array([-1]), np.array([1])
            )

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 3))
        weights = np.array(
            [
                [
                    data.draw(
                        st.floats(min_value=-5, max_value=5)
                    )
                    for _ in range(m)
                ]
                for _ in range(n)
            ]
        )
        row_caps = np.array(
            [data.draw(st.integers(0, 2)) for _ in range(n)]
        )
        col_caps = np.array(
            [data.draw(st.integers(0, 2)) for _ in range(m)]
        )
        _edges, total = max_weight_b_matching(weights, row_caps, col_caps)
        expected = _brute_force_b_matching(weights, row_caps, col_caps)
        assert total == pytest.approx(expected, abs=1e-7)

    def test_edges_unique_and_sorted(self):
        rng = np.random.default_rng(2)
        weights = rng.uniform(0, 5, (6, 4))
        edges, _ = max_weight_b_matching(
            weights,
            np.full(6, 2, dtype=int),
            np.full(4, 3, dtype=int),
        )
        assert edges == sorted(set(edges))


class TestMaxWeightAssignment:
    """Maximum-weight assignment, where a row may stay unmatched, is
    the unit-capacity case of ``max_weight_b_matching``.  Each case
    also solves it with scipy on the matrix padded with one zero
    column per row, so a row taking a pad stays unmatched."""

    @staticmethod
    def _solve(weights):
        optimize = pytest.importorskip("scipy.optimize")
        n, m = weights.shape
        edges, total = max_weight_b_matching(
            weights, np.ones(n, dtype=int), np.ones(m, dtype=int)
        )
        padded = np.hstack([weights, np.zeros((n, n))])
        rows, cols = optimize.linear_sum_assignment(padded, maximize=True)
        assert total == pytest.approx(padded[rows, cols].sum())
        return edges, total

    def test_prefers_heavy_edges(self):
        edges, total = self._solve(np.array([[10.0, 1.0], [1.0, 10.0]]))
        assert edges == [(0, 0), (1, 1)]
        assert total == pytest.approx(20.0)

    def test_negative_rows_stay_unassigned(self):
        edges, total = self._solve(np.array([[-1.0, -2.0], [5.0, 1.0]]))
        assert edges == [(1, 0)]
        assert total == pytest.approx(5.0)

    def test_empty_matrix(self):
        edges, total = self._solve(np.zeros((0, 0)))
        assert edges == []
        assert total == 0.0

    def test_more_rows_than_columns(self):
        edges, total = self._solve(np.array([[3.0], [5.0], [1.0]]))
        assert edges == [(1, 0)]
        assert total == pytest.approx(5.0)


def _unit_caps(weights):
    n, m = weights.shape
    return np.ones(n, dtype=int), np.ones(m, dtype=int)


def _brute_force_assignment(weights):
    """Best total over every partial injective row → column map."""
    n, m = weights.shape
    best = 0.0
    for columns in itertools.product(range(-1, m), repeat=n):
        taken = [j for j in columns if j >= 0]
        if len(taken) != len(set(taken)):
            continue
        best = max(
            best, sum(weights[i, j] for i, j in enumerate(columns) if j >= 0)
        )
    return best


class TestUnitCapacityAssignment:
    """With unit capacities the kernel is the assignment solver the
    ``flow`` solver runs: each row and each column at most once."""

    def test_anti_identity(self):
        weights = np.array([[1.0, 9.0], [9.0, 1.0]])
        edges, total = max_weight_b_matching(weights, *_unit_caps(weights))
        assert edges == [(0, 1), (1, 0)]
        assert total == pytest.approx(18.0)

    def test_single_row_takes_best_column(self):
        weights = np.array([[5.0, 1.0, 3.0]])
        edges, total = max_weight_b_matching(weights, *_unit_caps(weights))
        assert edges == [(0, 0)]
        assert total == pytest.approx(5.0)

    def test_rows_without_columns(self):
        weights = np.zeros((3, 0))
        assert max_weight_b_matching(weights, *_unit_caps(weights)) == (
            [],
            0.0,
        )

    def test_zero_weights_are_not_taken(self):
        weights = np.zeros((2, 3))
        edges, total = max_weight_b_matching(weights, *_unit_caps(weights))
        assert edges == []
        assert total == 0.0

    def test_mixed_sign_weights(self):
        weights = np.array([[5.0, -1.0], [-1.0, 5.0]])
        edges, total = max_weight_b_matching(weights, *_unit_caps(weights))
        assert edges == [(0, 0), (1, 1)]
        assert total == pytest.approx(10.0)

    def test_gives_up_a_heavy_edge_for_two_lighter(self):
        # Both rows prefer column 0; the optimum sends row 0 elsewhere.
        weights = np.array([[10.0, 9.0], [10.0, 0.0]])
        edges, total = max_weight_b_matching(weights, *_unit_caps(weights))
        assert edges == [(0, 1), (1, 0)]
        assert total == pytest.approx(19.0)

    def test_assignment_is_injective(self):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0, 10, (6, 9))
        edges, _ = max_weight_b_matching(weights, *_unit_caps(weights))
        rows = [i for i, _ in edges]
        cols = [j for _, j in edges]
        assert len(edges) == 6
        assert len(set(rows)) == len(rows)
        assert len(set(cols)) == len(cols)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.integers(1, 5).flatmap(
                lambda m: st.lists(
                    st.lists(
                        st.floats(min_value=-20, max_value=20),
                        min_size=m,
                        max_size=m,
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    )
    def test_matches_brute_force(self, rows):
        weights = np.array(rows)
        _edges, total = max_weight_b_matching(weights, *_unit_caps(weights))
        assert total == pytest.approx(
            _brute_force_assignment(weights), abs=1e-7
        )


def _cardinality(n_left, n_right, adjacency):
    """Maximum matching size of a bipartite graph, computed the way
    ``MBAProblem.max_assignable`` does: unit weights on the edges."""
    weights = np.zeros((n_left, n_right))
    for u, neighbors in enumerate(adjacency):
        weights[u, neighbors] = 1.0
    edges, _total = max_weight_b_matching(
        weights, np.ones(n_left, dtype=int), np.ones(n_right, dtype=int)
    )
    return edges


class TestMaxCardinality:
    def test_perfect_matching(self):
        edges = _cardinality(2, 2, [[0, 1], [0, 1]])
        assert len(edges) == 2
        assert sorted(i for i, _ in edges) == [0, 1]

    def test_bottleneck(self):
        """Both left vertices only reach right vertex 0."""
        assert len(_cardinality(2, 2, [[0], [0]])) == 1

    def test_empty_graph(self):
        assert _cardinality(3, 3, [[], [], []]) == []

    def test_augmenting_path_needed(self):
        """Matching 1-0 first stalls row 0; an augmenting path fixes it."""
        assert len(_cardinality(2, 2, [[0], [0, 1]])) == 2

    def test_matching_is_consistent(self):
        edges = _cardinality(3, 3, [[0, 1], [1, 2], [0, 2]])
        assert len(edges) == 3
        assert len({i for i, _ in edges}) == 3
        assert len({j for _, j in edges}) == 3
        adjacency = [[0, 1], [1, 2], [0, 2]]
        assert all(j in adjacency[i] for i, j in edges)

    def test_capacities_hold_each_pair_once(self):
        # Capacity 3 on both sides, one edge: still one pair.
        edges, _total = max_weight_b_matching(
            np.ones((1, 1)), np.array([3]), np.array([3])
        )
        assert edges == [(0, 0)]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_flow_based_count(self, data):
        """The size equals the max flow of the unit-capacity network."""
        from repro.matching.graph import FlowNetwork
        from repro.matching.mincost_flow import min_cost_flow

        n_left = data.draw(st.integers(1, 6))
        n_right = data.draw(st.integers(1, 6))
        adjacency = [
            sorted(
                data.draw(
                    st.sets(st.integers(0, n_right - 1), max_size=n_right)
                )
            )
            for _ in range(n_left)
        ]
        edges = _cardinality(n_left, n_right, adjacency)

        net = FlowNetwork(n_left + n_right + 2)
        source, sink = 0, n_left + n_right + 1
        for u in range(n_left):
            net.add_edge(source, 1 + u, 1.0)
        for v in range(n_right):
            net.add_edge(1 + n_left + v, sink, 1.0)
        for u, neighbors in enumerate(adjacency):
            for v in neighbors:
                net.add_edge(1 + u, 1 + n_left + v, 1.0)
        assert len(edges) == pytest.approx(
            min_cost_flow(net, source, sink).flow
        )
        assert len({j for _, j in edges}) == len(edges)


@st.composite
def b_matching_instances(draw):
    """Small instances, empty and 1-wide shapes included.  Integer
    weights force ties between optima; zero capacities and
    all-nonpositive matrices are drawn on purpose."""
    n = draw(st.integers(0, 7))
    m = draw(st.integers(0, 7))
    if draw(st.booleans()):
        entries = st.integers(-3, 6).map(float)
    else:
        entries = st.floats(-5, 10, allow_nan=False)
    weights = np.array(
        [[draw(entries) for _ in range(m)] for _ in range(n)]
    ).reshape(n, m)
    if draw(st.booleans()):
        weights = -np.abs(weights)
    row_caps = np.array(
        [draw(st.integers(0, 3)) for _ in range(n)], dtype=int
    )
    col_caps = np.array(
        [draw(st.integers(0, 3)) for _ in range(m)], dtype=int
    )
    return weights, row_caps, col_caps


def _pushes_rows(weights, row_caps, col_caps):
    """Whether the array search pushes the rows: their capacity units
    (capacity capped at the node's candidate edges) total less than
    the columns'."""
    candidate = (
        (weights > 0) & (row_caps[:, None] > 0) & (col_caps[None, :] > 0)
    )
    row_units = np.minimum(row_caps, candidate.sum(axis=1)).sum()
    return row_units < np.minimum(col_caps, candidate.sum(axis=0)).sum()


def _block(rng, n, m, integer, scarce_rows):
    """A random block: the scarce side draws capacities 0-3, the other
    side capacities up to 2 past the scarce side's node count."""
    if integer:
        weights = rng.integers(-3, 7, (n, m)).astype(float)
    else:
        weights = rng.uniform(-0.5, 1.0, (n, m))
    if scarce_rows:
        return weights, rng.integers(0, 4, n), rng.integers(0, n + 3, m)
    return weights, rng.integers(0, m + 3, n), rng.integers(0, 4, m)


@st.composite
def block_instances(draw):
    """Blocks on both sides of the size rule's constant (up to 24 x 24
    cells), ``n > m`` included.  Either side may be the scarce one, so
    the array search pushes rows on some draws and columns on others;
    both sides draw zero capacities, and integer weights force ties."""
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _block(rng, n, m, draw(st.booleans()), draw(st.booleans()))


#: The two forms of the kernel's search, each forced by moving the size
#: rule's constant past every block.
SEARCHES = {"array": -1, "list": 10**9}


@contextmanager
def _search(name):
    with mock.patch.object(b_matching, "_SMALL_BLOCK", SEARCHES[name]):
        yield


def _assert_feasible(edges, total, weights, row_caps, col_caps):
    """Degrees within capacities, no repeated pair, only positive
    weights, and the reported total is the sum over the edges."""
    n, m = weights.shape
    assert len(set(edges)) == len(edges)
    row_load = np.zeros(n, dtype=int)
    col_load = np.zeros(m, dtype=int)
    for i, j in edges:
        assert weights[i, j] > 0
        row_load[i] += 1
        col_load[j] += 1
    assert np.all(row_load <= row_caps)
    assert np.all(col_load <= col_caps)
    expected = math.fsum(weights[i, j] for i, j in edges)
    assert total == pytest.approx(expected, rel=1e-12, abs=1e-12)


def _scale(weights):
    return max(1.0, float(np.abs(weights).sum()))


def _solve_both(weights, row_caps, col_caps):
    """The kernel's total from each search, checked for feasibility."""
    totals = []
    for name in SEARCHES:
        with _search(name):
            edges, total = max_weight_b_matching(weights, row_caps, col_caps)
        _assert_feasible(edges, total, weights, row_caps, col_caps)
        totals.append(total)
    return totals


class TestAgainstOracles:
    """Both forms of the search against the explicit-network reference
    and the LP optimum, on the same instances."""

    @settings(max_examples=200, deadline=None)
    @given(b_matching_instances())
    def test_matches_reference(self, instance):
        weights, row_caps, col_caps = instance
        _ref_edges, ref_total = b_matching_reference(
            weights, row_caps, col_caps
        )
        for total in _solve_both(weights, row_caps, col_caps):
            assert abs(total - ref_total) <= 1e-9 * _scale(weights)

    @settings(max_examples=150, deadline=None)
    @given(b_matching_instances())
    def test_matches_lp_optimum(self, instance):
        weights, row_caps, col_caps = instance
        optimum = lp_optimum(weights, row_caps, col_caps)
        for total in _solve_both(weights, row_caps, col_caps):
            assert abs(total - optimum) <= 1e-9 * _scale(weights)

    @settings(max_examples=80, deadline=None)
    @given(block_instances())
    def test_blocks_match_reference_and_lp(self, instance):
        weights, row_caps, col_caps = instance
        _ref_edges, ref_total = b_matching_reference(
            weights, row_caps, col_caps
        )
        optimum = lp_optimum(weights, row_caps, col_caps)
        for total in _solve_both(weights, row_caps, col_caps):
            assert abs(total - ref_total) <= 1e-9 * _scale(weights)
            assert abs(total - optimum) <= 1e-9 * _scale(weights)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_saturated_market_matches_reference_and_lp(self, seed, sparse):
        """Mid-size instances where most nodes fill up, so paths run
        through many matched edges.  With ``sparse`` each node keeps a
        fifth of its edges, so the nodes a pushed unit reaches fill
        while units are left, and a unit often ends on the "leave
        unfilled" arc of a node that gave its partner up."""
        rng = np.random.default_rng(seed)
        n, m = rng.integers(5, 41, 2)
        weights = rng.uniform(-0.2, 1.0, (n, m))
        if sparse:
            weights[rng.random((n, m)) < 0.8] = -1.0
        row_caps = rng.integers(0, 5, n)
        col_caps = rng.integers(0, 5, m)
        _ref_edges, ref_total = b_matching_reference(
            weights, row_caps, col_caps
        )
        optimum = lp_optimum(weights, row_caps, col_caps)
        for total in _solve_both(weights, row_caps, col_caps):
            assert abs(total - ref_total) <= 1e-9 * _scale(weights)
            assert abs(total - optimum) <= 1e-9 * _scale(weights)

    def test_tied_batch_block_matches_lp(self):
        """Round 0 of the quickstart market at seed 2 (``batch_exact``'s
        third instance at seed 0) has two optima of equal total:
        {(84, 1), (189, 73), (151, 31)} against {(84, 31), (151, 73),
        (189, 1)}, with the rest of the edges shared."""
        compiled = compile_spec(
            {
                "schema": "repro-spec/1",
                "market": {
                    "workload": "amt-like", "workers": 200, "tasks": 100,
                    "seed": 2,
                },
                "scenario": {"solver": "flow", "lam": 0.5, "n_rounds": 1},
            }
        )
        problem = MBAProblem(compiled.market, combiner=compiled.combiner)
        weights = problem.benefits.combined
        row_caps = problem.worker_capacities()
        col_caps = problem.task_capacities()
        one = [(84, 1), (189, 73), (151, 31)]
        other = [(84, 31), (151, 73), (189, 1)]
        assert math.fsum(weights[e] for e in one) == math.fsum(
            weights[e] for e in other
        )
        optimum = lp_optimum(weights, row_caps, col_caps)
        for name in SEARCHES:
            with _search(name):
                edges, total = max_weight_b_matching(
                    weights, row_caps, col_caps
                )
            _assert_feasible(edges, total, weights, row_caps, col_caps)
            assert abs(total - optimum) <= 1e-9 * _scale(weights)
            assert set(one) <= set(edges) or set(other) <= set(edges)


def _work(search, weights, row_caps, col_caps):
    """The edges and the ``b_matching.*`` counters of one form."""
    with obs.tracing() as tracer, _search(search):
        edges, _total = max_weight_b_matching(weights, row_caps, col_caps)
    return edges, {
        name.removeprefix("b_matching."): value
        for name, value in tracer.metrics.counters.items()
        if name.startswith("b_matching.")
    }


def _spy(search):
    """Patch one search with a mock that runs it and counts calls."""
    return mock.patch.object(
        b_matching, search, wraps=getattr(b_matching, search)
    )


class TestSearchForms:
    """The size rule: which form runs, and what both report."""

    @settings(max_examples=80, deadline=None)
    @given(instance=block_instances())
    def test_both_searches_report_the_same_work(self, instance):
        """The two forms are one search in two data layouts: on every
        draw, tied integer weights included, they take the same edges
        and report the same four counters."""
        array_edges, array = _work("array", *instance)
        list_edges, listed = _work("list", *instance)
        assert array_edges == list_edges
        assert array == listed
        assert set(array) == {
            "augmentations", "search_rounds", "candidate_edges",
            "matched_edges",
        }
        assert array["search_rounds"] >= array["augmentations"]
        assert array["augmentations"] == array["matched_edges"]

    def test_block_draws_push_either_side(self):
        """``block_instances`` reaches both orientations of the array
        search."""
        rng = np.random.default_rng(0)
        pushed = {
            _pushes_rows(*_block(rng, 20, 20, False, scarce_rows))
            for scarce_rows in (True, False)
        }
        assert pushed == {True, False}

    def test_micro_batch_windows_take_the_list_search(self):
        compiled = compile_stream(
            {
                "schema": "repro-spec/1",
                "market": {
                    "workload": "amt-like", "workers": 600, "tasks": 600,
                    "seed": 0,
                },
                "scenario": {"lam": 0.5},
                "stream": {
                    "policy": "micro-batch", "task_rate": 2.4,
                    "worker_rate": 2.4, "deadline": 1.5,
                    "session_length": 1.0, "batch_window": 1.0,
                },
            }
        )
        dispatcher = StreamDispatcher(
            compiled.market, compiled.config, combiner=compiled.combiner
        )
        refuse = AssertionError("a window took the array search")
        with obs.tracing() as tracer, mock.patch.object(
            b_matching, "_push_units", side_effect=refuse
        ), _spy("_push_lists") as search:
            dispatcher.run(seed=0)
        assert search.call_count > 0
        counters = tracer.metrics.counters
        assert counters["stream.windows"] > 100
        assert counters["b_matching.augmentations"] > 0

    def test_small_window_bench_case_takes_the_list_search(self):
        """``repro bench``'s 1.0-window micro-batch case, the same on both
        tiers, times the list form on every window."""
        quick, full = (
            [case for case in build_stream_suite(quick=tier) if "_w1/" in case.name]
            for tier in (True, False)
        )
        assert [case.name for case in quick] == [case.name for case in full]
        refuse = AssertionError("a bench window took the array search")
        with obs.tracing() as tracer, mock.patch.object(
            b_matching, "_push_units", side_effect=refuse
        ), _spy("_push_lists") as search:
            quick[0].runner(1)
        assert search.call_count > 0
        assert tracer.metrics.counters["b_matching.augmentations"] > 0

    def test_large_flow_solve_takes_the_array_search(self):
        market = generate_market(
            SyntheticConfig(n_workers=200, n_tasks=100), seed=0
        )
        refuse = AssertionError("a 200x100 solve took the list form")
        with mock.patch.object(
            b_matching, "_push_lists", side_effect=refuse
        ), _spy("_push_units") as search:
            assignment = get_solver("flow").solve(MBAProblem(market), seed=0)
        assert search.call_count == 1
        assert len(assignment.edges) > 0


#: Micro-batch windows of the ``stream_monitored`` benchmark workload
#: (instance seeds 7 and 13) with two optima of bit-equal total; the
#: weights are float hex, so the tie survives the file.
_TIES = json.loads(
    (Path(__file__).parent / "fixtures" / "b_matching_ties.json").read_text()
)


class TestExactTies:
    """Which of two tied optima the kernel takes depends on its search
    order alone.  These tests name the edges it takes on recorded tied
    windows, so a change of search order fails here, not only through
    the stream digests the windows feed."""

    @staticmethod
    def _inputs(case):
        weights = np.array(
            [[float.fromhex(w) for w in row] for row in case["weights"]]
        )
        return (
            weights,
            np.array(case["row_capacities"]),
            np.array(case["col_capacities"]),
        )

    @pytest.mark.parametrize("case", _TIES, ids=lambda case: case["name"])
    def test_the_swap_is_a_bit_equal_tie(self, case):
        weights, _rows, _cols = self._inputs(case)
        (i, j), (k, l) = case["swap"]
        assert [i, j] in case["edges"] and [k, l] in case["edges"]
        assert [i, l] not in case["edges"] and [k, j] not in case["edges"]
        assert weights[i, l] > 0 and weights[k, j] > 0
        assert weights[i, j] + weights[k, l] == weights[i, l] + weights[k, j]

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    @pytest.mark.parametrize("case", _TIES, ids=lambda case: case["name"])
    def test_kernel_takes_the_named_optimum(self, case, search):
        weights, rows, cols = self._inputs(case)
        with _search(search):
            edges, total = max_weight_b_matching(weights, rows, cols)
        assert [list(edge) for edge in edges] == case["edges"]
        _reference_edges, optimum = b_matching_reference(weights, rows, cols)
        assert total == pytest.approx(optimum, abs=1e-12)


_KERNELS = {
    "b_matching": lambda w: max_weight_b_matching(
        w, np.ones(w.shape[0], dtype=int), np.ones(w.shape[1], dtype=int)
    ),
    "auction": auction_assignment,
}


class TestNonFiniteWeights:
    """Every exact kernel refuses a non-finite weight the same way
    (the b-matching kernel used to skip NaN/-inf edges silently and
    return an empty matching for +inf)."""

    @pytest.mark.parametrize("kernel", sorted(_KERNELS))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_raises_validation_error(self, kernel, bad):
        weights = np.array([[1.0, 2.0], [3.0, 4.0]])
        weights[0, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            _KERNELS[kernel](weights)
