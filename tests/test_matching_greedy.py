"""The greedy walk kernel and its candidate lists."""

import numpy as np
import pytest

from repro import obs
from repro.matching import greedy
from repro.matching.greedy import candidate_edges, ranked_edges, take_in_order


def _pairs(rows, cols):
    return list(zip(rows.tolist(), cols.tolist()))


def _per_edge_walk(rows, cols, row_caps, col_caps):
    """The walk one edge at a time: the reference for the chunked walk.
    Returns the taken edges and the number of edges visited."""
    row_left = np.asarray(row_caps).tolist()
    col_left = np.asarray(col_caps).tolist()
    limit = min(sum(row_left), sum(col_left))
    taken, scanned = [], 0
    if limit > 0:
        for i, j in zip(rows, cols):
            scanned += 1
            if row_left[i] > 0 and col_left[j] > 0:
                row_left[i] -= 1
                col_left[j] -= 1
                taken.append((int(i), int(j)))
                if len(taken) == limit:
                    break
    return taken, scanned


def _walk(rows, cols, row_caps, col_caps):
    with obs.tracing() as tracer:
        taken = take_in_order(rows, cols, row_caps, col_caps)
    return taken, tracer.metrics.counters["greedy.edges_scanned"]


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



@pytest.fixture(params=[1, 2, 3, None], ids=["chunk1", "chunk2", "chunk3", "default"])
def chunk(request, monkeypatch):
    """Run the walk at chunk lengths 1, 2, 3 and the module default."""
    if request.param is not None:
        monkeypatch.setattr(greedy, "_WALK_CHUNK", request.param)
    return greedy._WALK_CHUNK


class TestChunkedWalkMatchesPerEdgeWalk:
    def _check(self, rows, cols, row_caps, col_caps):
        assert _walk(rows, cols, row_caps, col_caps) == _per_edge_walk(
            rows, cols, row_caps, col_caps
        )

    def test_random_walks(self, chunk):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n, m = (int(size) for size in rng.integers(1, 8, size=2))
            row_caps = rng.integers(0, 3, size=n)
            col_caps = rng.integers(0, 3, size=m)
            size = int(rng.integers(0, 3 * n * m + 1))
            rows = rng.integers(0, n, size=size)
            cols = rng.integers(0, m, size=size)
            self._check(rows, cols, row_caps, col_caps)

    def test_limit_reached_at_a_chunk_boundary(self, chunk):
        # One column slot per row and ``chunk`` column slots in all:
        # the limit falls on the chunk's last edge, then (one more slot)
        # on the next chunk's first edge.
        for slots in (chunk, chunk + 1):
            size = 2 * chunk + 2
            rows = np.arange(size)
            cols = np.zeros(size, dtype=np.intp)
            taken, scanned = _walk(rows, cols, [1] * size, [slots])
            assert len(taken) == slots
            assert scanned == slots
            self._check(rows, cols, [1] * size, [slots])

    def test_full_rows_are_skipped_inside_later_chunks(self, chunk):
        # Row 0 fills on its first edge; its later edges are skipped
        # without ending the walk, which then takes rows 1 and 2.
        rows = np.array([0, 0, 0, 0, 0, 1, 0, 2])
        cols = np.array([0, 1, 2, 0, 1, 1, 2, 2])
        self._check(rows, cols, [1, 1, 1], [1, 1, 1])
        assert _walk(rows, cols, [1, 1, 1], [1, 1, 1]) == (
            [(0, 0), (1, 1), (2, 2)], 8,
        )

    def test_zero_limit_and_empty_input(self, chunk):
        rows, cols = np.array([0, 1]), np.array([0, 0])
        assert _walk(rows, cols, [0, 0], [2]) == ([], 0)
        assert _walk(rows, cols, [1, 1], [0]) == ([], 0)
        empty = np.zeros(0, dtype=np.intp)
        assert _walk(empty, empty, [1], [1]) == ([], 0)
        assert _walk([], [], [1], [1]) == ([], 0)

    def test_python_list_inputs(self, chunk):
        rows, cols = [2, 0, 1, 0, 2, 1], [0, 1, 1, 0, 1, 0]
        self._check(rows, cols, [1, 2, 1], [2, 2])
        taken, _ = _walk(rows, cols, [1, 2, 1], [2, 2])
        assert all(type(index) is int for edge in taken for index in edge)

    def test_zero_capacity_rows_and_columns(self, chunk):
        rng = np.random.default_rng(4)
        for _ in range(50):
            row_caps = rng.integers(0, 2, size=6) * rng.integers(1, 3, size=6)
            col_caps = rng.integers(0, 2, size=4) * rng.integers(1, 4, size=4)
            rows = rng.integers(0, 6, size=40)
            cols = rng.integers(0, 4, size=40)
            self._check(rows, cols, row_caps, col_caps)
