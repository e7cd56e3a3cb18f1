"""The greedy walk: take candidate edges in order while both ends have room.

The greedy-family solvers differ only in the order they visit edges:
heaviest first (``greedy``, ``pruned-greedy``, ``constrained-greedy``)
or shuffled (``random``).  Tie rule: :func:`candidate_edges` lists
edges in row-major order and :func:`ranked_edges` sorts them stably, so
equal weights go to the lowest ``(row, column)`` — the order a heap
keyed on ``(-weight, insertion counter)`` pops row-by-row pushes in.
"""

from __future__ import annotations

from operator import length_hint

import numpy as np

from repro import obs


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
    """
    row_left = np.asarray(row_caps).tolist()
    col_left = np.asarray(col_caps).tolist()
    limit = min(sum(row_left), sum(col_left))
    taken: list[tuple[int, int]] = []
    # Lazy numpy scalars, not .tolist(): a Python int per candidate edge
    # raised batch_large's peak RSS by ~1.5 MB.  What the walk leaves of
    # ``unvisited`` gives the scan count without a per-edge counter.
    unvisited = iter(rows)
    if limit > 0:
        for i, j in zip(unvisited, cols):
            if row_left[i] > 0 and col_left[j] > 0:
                row_left[i] -= 1
                col_left[j] -= 1
                taken.append((int(i), int(j)))
                if len(taken) == limit:
                    break
    obs.count("greedy.edges_scanned", len(rows) - length_hint(unvisited))
    return taken
