"""Pure-Python reference for the exact b-matching kernel.

:func:`b_matching_reference` solves the problem of
:func:`repro.matching.b_matching.max_weight_b_matching` on an explicit
:class:`~repro.matching.graph.FlowNetwork` with
:func:`~repro.matching.mincost_flow.min_cost_flow`.  The kernel is
written with numpy masked reductions for speed, and vectorized code is
easy to get subtly wrong — an off-by-one in a mask or a tie broken by
a different index is invisible until an instance hits it — so the
loop-shaped formulation lives on here as the ground truth the kernel
is cross-validated against (see ``tests/test_matching_b_matching.py``)
and as the readable exposition of the algorithm.

This is *reference* code: clarity beats speed, and its per-element
Python loops are exempt from lint rule R601 via the
``perf_loop_allowed`` allowlist.  The perf harness
(``python -m repro bench``) times it against the ``flow`` solver to
report the speedup.
"""

from __future__ import annotations

import numpy as np

from repro.matching.graph import FlowNetwork
from repro.matching.mincost_flow import min_cost_flow
from repro.utils.stats import edge_matrix_sum
from repro.utils.validation import check_capacities, check_weights


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
