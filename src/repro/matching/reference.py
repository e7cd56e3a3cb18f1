"""Pure-Python reference implementations of the vectorized solvers.

The hot-path modules (:mod:`repro.matching.hungarian`, the Jacobi mode
of :mod:`repro.matching.auction`, :mod:`repro.matching.b_matching`) are
written with numpy masked reductions for speed.  Vectorized code is
easy to get subtly wrong — an off-by-one in a mask or a tie broken by
a different index is invisible until an instance hits it — so the
original loop-shaped code lives on here, unchanged, as the ground
truth the fast paths are cross-validated against (see
``tests/test_matching_vectorized.py`` and
``tests/test_matching_b_matching.py``) and as the readable exposition
of each algorithm.

These functions are *reference* code: clarity beats speed, and the
per-element Python loops are exempt from lint rule R601 via the
``perf_loop_allowed`` allowlist (they are the one place such loops are
the point).  The perf harness (``python -m repro bench``) times them
against the vectorized implementations to report the speedup.
"""

from __future__ import annotations

import math

import numpy as np

from repro.matching.graph import FlowNetwork
from repro.matching.mincost_flow import min_cost_flow
from repro.utils.stats import edge_matrix_sum
from repro.utils.validation import check_capacities, check_weights


def hungarian_reference(cost: np.ndarray) -> tuple[list[int], float]:
    """Scalar-loop Kuhn–Munkres; contract of
    :func:`repro.matching.hungarian.hungarian`.

    Potentials + shortest-augmenting-path formulation in O(n²·m) for an
    ``n × m`` cost matrix with ``n <= m``; minimizes and assigns every
    row.
    """
    cost = check_weights(cost, wide=True)
    n, m = cost.shape
    if n == 0:
        return [], 0.0

    inf = math.inf
    # 1-indexed potentials; p[j] = row matched to column j (0 = free).
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    p = [0] * (m + 1)
    way = [0] * (m + 1)

    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        used = [False] * (m + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta = inf
            j1 = -1
            row = cost[i0 - 1]
            for j in range(1, m + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(m + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1

    assignment = [-1] * n
    for j in range(1, m + 1):
        if p[j] != 0:
            assignment[p[j] - 1] = j - 1
    total = float(sum(cost[i, assignment[i]] for i in range(n)))
    return assignment, total


def b_matching_reference(
    weights: np.ndarray,
    row_capacities: np.ndarray,
    col_capacities: np.ndarray,
) -> tuple[list[tuple[int, int]], float]:
    """Explicit-network max-weight b-matching; contract of
    :func:`repro.matching.b_matching.max_weight_b_matching`.

    Builds the source → workers → tasks → sink :class:`FlowNetwork`
    (one arc per positive-weight edge) and runs
    :func:`repro.matching.mincost_flow.min_cost_flow` with the
    stop-when-nonimproving rule.
    """
    weights = check_weights(weights)
    n, m = weights.shape
    row_capacities = check_capacities("row_capacities", row_capacities, n)
    col_capacities = check_capacities("col_capacities", col_capacities, m)

    source = 0
    worker_base = 1
    task_base = 1 + n
    sink = 1 + n + m
    network = FlowNetwork(n + m + 2)
    for i in range(n):
        if row_capacities[i] > 0:
            network.add_edge(source, worker_base + i, float(row_capacities[i]))
    for j in range(m):
        if col_capacities[j] > 0:
            network.add_edge(task_base + j, sink, float(col_capacities[j]))
    edge_arcs: dict[int, tuple[int, int]] = {}
    for i in range(n):
        if row_capacities[i] == 0:
            continue
        for j in range(m):
            if col_capacities[j] == 0:
                continue
            w = weights[i, j]
            if w > 0:
                arc = network.add_edge(
                    worker_base + i, task_base + j, 1.0, -float(w)
                )
                edge_arcs[arc] = (i, j)

    result = min_cost_flow(
        network, source, sink, stop_when_nonimproving=True
    )
    edges = [
        edge_arcs[arc]
        for arc, amount in result.arc_flow.items()
        if arc in edge_arcs and amount > 0.5
    ]
    edges.sort()
    total = edge_matrix_sum(weights, edges)
    return edges, total
