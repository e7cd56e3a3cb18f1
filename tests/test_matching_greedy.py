"""The greedy walk kernel and its candidate lists."""

import numpy as np

from repro import obs
from repro.matching.greedy import candidate_edges, ranked_edges, take_in_order


def _pairs(rows, cols):
    return list(zip(rows.tolist(), cols.tolist()))


class TestCandidateEdges:
    def test_row_major_strictly_above_the_floor(self):
        weights = np.array([[0.5, 0.0, 2.0], [-1.0, 0.5, 0.25]])
        assert _pairs(*candidate_edges(weights, [1, 1], [1, 1, 1])) == [
            (0, 0), (0, 2), (1, 1), (1, 2),
        ]
        assert _pairs(*candidate_edges(weights, [1, 1], [1, 1, 1], 0.5)) == [
            (0, 2),
        ]
        assert _pairs(*candidate_edges(weights, [1, 1], [1, 1, 1], -1.0)) == [
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2),
        ]

    def test_zero_capacity_rows_and_columns_are_left_out(self):
        weights = np.ones((3, 3))
        assert _pairs(*candidate_edges(weights, [1, 0, 2], [0, 1, 1])) == [
            (0, 1), (0, 2), (2, 1), (2, 2),
        ]

    def test_mask_keeps_only_its_cells(self):
        weights = np.ones((2, 2))
        mask = np.array([[True, False], [False, True]])
        assert _pairs(*candidate_edges(weights, [1, 1], [1, 1], mask=mask)) == [
            (0, 0), (1, 1),
        ]


class TestRankedEdges:
    def test_heaviest_first_ties_row_major(self):
        weights = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert _pairs(*ranked_edges(weights, [1, 1], [1, 1])) == [
            (0, 1), (1, 0), (0, 0), (1, 1),
        ]


class TestTakeInOrder:
    def test_takes_while_both_ends_have_capacity(self):
        rows = np.array([0, 0, 1, 1, 2])
        cols = np.array([0, 1, 0, 1, 1])
        assert take_in_order(rows, cols, [2, 1, 1], [1, 2]) == [
            (0, 0), (0, 1), (1, 1),
        ]

    def test_visit_order_decides(self):
        rows, cols = np.array([1, 0]), np.array([0, 0])
        assert take_in_order(rows, cols, [1, 1], [1]) == [(1, 0)]

    def test_returns_python_ints(self):
        taken = take_in_order(np.array([0]), np.array([0]), [1], [1])
        assert all(type(index) is int for edge in taken for index in edge)

    def test_empty_and_zero_capacity(self):
        empty = np.zeros(0, dtype=np.intp)
        assert take_in_order(empty, empty, [1], [1]) == []
        assert take_in_order(np.array([0]), np.array([0]), [0], [3]) == []

    def test_stops_once_a_side_is_full(self):
        # Two task slots in all: the walk ends at the second take and
        # never visits the rest.
        rows = np.array([0, 1, 2, 3, 4])
        cols = np.array([0, 1, 0, 1, 0])
        with obs.tracing() as tracer:
            taken = take_in_order(rows, cols, [1] * 5, [1, 1])
        assert taken == [(0, 0), (1, 1)]
        assert tracer.metrics.counters["greedy.edges_scanned"] == 2

    def test_counts_every_visited_edge(self):
        rows, cols = np.array([0, 0, 1]), np.array([0, 1, 1])
        with obs.tracing() as tracer:
            assert take_in_order(rows, cols, [1, 2], [2, 2]) == [
                (0, 0), (1, 1),
            ]
        assert tracer.metrics.counters["greedy.edges_scanned"] == 3

    def test_matches_a_scalar_walk(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n, m = (int(size) for size in rng.integers(1, 8, size=2))
            row_caps = rng.integers(0, 3, size=n)
            col_caps = rng.integers(0, 3, size=m)
            size = int(rng.integers(0, 3 * n * m + 1))
            rows = rng.integers(0, n, size=size)
            cols = rng.integers(0, m, size=size)
            row_left, col_left = row_caps.tolist(), col_caps.tolist()
            expected = []
            for i, j in zip(rows.tolist(), cols.tolist()):
                if row_left[i] > 0 and col_left[j] > 0:
                    row_left[i] -= 1
                    col_left[j] -= 1
                    expected.append((i, j))
            assert take_in_order(rows, cols, row_caps, col_caps) == expected
