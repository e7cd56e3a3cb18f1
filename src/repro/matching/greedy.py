"""The greedy walk: take candidate edges in order while both ends have room.

The greedy-family solvers differ only in the order they visit edges:
heaviest first (``greedy``, ``pruned-greedy``, ``constrained-greedy``)
or shuffled (``random``).  Tie rule: :func:`candidate_edges` lists
edges in row-major order and :func:`ranked_edges` sorts them stably, so
equal weights go to the lowest ``(row, column)`` — the order a heap
keyed on ``(-weight, insertion counter)`` pops row-by-row pushes in.
"""

from __future__ import annotations

import numpy as np

from repro import obs

#: Edges per step of :func:`take_in_order`'s walk.  Median ms per walk
#: over the twelve rounds of ``batch_large`` (seeds 0-3, 31k-44k
#: pruned candidates each) and over the full 538k-edge greedy walk of
#: one amt-like 1000x540 market (2-vCPU x86-64 host, CPython 3.11,
#: numpy 2.4; the per-edge walk took 6.5 and 70 ms):
#:
#: ======= ==== ==== ==== ==== ==== ====
#: chunk    256  512 1024 2048 4096 8192
#: pruned   1.2  0.9  1.1  1.3  1.6  2.0
#: full     9.4  6.5  4.8  5.1  4.1  5.2
#: ======= ==== ==== ==== ==== ==== ====
#:
#: Shorter chunks rebuild the numpy filter more often; longer ones
#: keep more edges whose row or column filled up inside the chunk.
_WALK_CHUNK = 1024


def candidate_edges(weights, row_caps, col_caps, floor=0.0, mask=None):
    """``(rows, cols)`` of the edges weighing strictly more than
    ``floor`` whose row and column both have capacity, row-major;
    ``mask``, when given, keeps only its true cells."""
    live = weights > floor
    if mask is not None:
        live &= mask
    live &= (np.asarray(row_caps) > 0)[:, np.newaxis]
    live &= (np.asarray(col_caps) > 0)[np.newaxis, :]
    return np.nonzero(live)


def ranked_edges(weights, row_caps, col_caps, floor=0.0, mask=None):
    """:func:`candidate_edges`, heaviest first; ties keep row-major order."""
    rows, cols = candidate_edges(weights, row_caps, col_caps, floor, mask)
    order = np.argsort(-weights[rows, cols], kind="stable")
    return rows[order], cols[order]


def take_in_order(rows, cols, row_caps, col_caps) -> list[tuple[int, int]]:
    """Visit the edges ``zip(rows, cols)`` in order and take each one
    whose row and column both have capacity left (capacities are
    non-negative); return the taken edges in the order taken.

    Stops once ``min(sum(row_caps), sum(col_caps))`` edges are taken,
    when one side is full, and counts the visited edges as
    ``greedy.edges_scanned``.

    The walk goes ``_WALK_CHUNK`` edges at a time.  Capacity only
    falls, so an edge whose row or column is already full when its
    chunk starts can never be taken: numpy drops those, and Python
    visits only the rest.
    """
    row_left = np.asarray(row_caps).tolist()
    col_left = np.asarray(col_caps).tolist()
    limit = min(sum(row_left), sum(col_left))
    taken: list[tuple[int, int]] = []
    scanned = 0
    if limit > 0:
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        row_open = np.asarray(row_caps) > 0
        col_open = np.asarray(col_caps) > 0
        scanned = len(rows)
        for start in range(0, len(rows), _WALK_CHUNK):
            chunk_rows = rows[start : start + _WALK_CHUNK]
            chunk_cols = cols[start : start + _WALK_CHUNK]
            live = np.flatnonzero(row_open[chunk_rows] & col_open[chunk_cols])
            edges = zip(
                live.tolist(), chunk_rows[live].tolist(), chunk_cols[live].tolist()
            )
            for at, i, j in edges:
                if row_left[i] > 0 and col_left[j] > 0:
                    row_left[i] -= 1
                    col_left[j] -= 1
                    taken.append((i, j))
                    if len(taken) == limit:
                        scanned = start + at + 1
                        break
                    if not row_left[i]:
                        row_open[i] = False
                    if not col_left[j]:
                        col_open[j] = False
            if len(taken) == limit:
                break
    obs.count("greedy.edges_scanned", scanned)
    return taken
