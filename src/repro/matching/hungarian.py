"""The Hungarian algorithm (Kuhn–Munkres) for the assignment problem.

This is the potentials + shortest-augmenting-path formulation running
in O(n²·m) for an ``n × m`` cost matrix with ``n <= m``.  It solves the
*minimization* problem and assigns every row; callers wanting maximum
weight negate the matrix, and callers wanting partial assignment pad
with zero columns.

The inner column scan — reduced-cost updates, the Dijkstra-style
minimum over unreached columns, and the potential shift — runs as
numpy masked reductions over all ``m`` columns at once; the scalar
loop it replaces is preserved as
:func:`repro.matching.reference.hungarian_reference` and the two are
cross-validated on random instances.  Both are independent of the
min-cost-flow solver, giving three optima to compare in tests.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.utils.validation import check_weights


def hungarian(cost: np.ndarray) -> tuple[list[int], float]:
    """Minimum-cost perfect assignment of rows to distinct columns.

    Parameters
    ----------
    cost:
        ``(n, m)`` finite matrix with ``n <= m``; entry ``[i, j]`` is
        the cost of assigning row ``i`` to column ``j``.  It is checked
        by :func:`~repro.utils.validation.check_weights`, so its errors
        read as those of every other kernel's weight matrix.

    Returns
    -------
    (assignment, total)
        ``assignment[i]`` is the column matched to row ``i``; ``total``
        is the summed cost.
    """
    cost = check_weights(cost, wide=True)
    n, m = cost.shape
    if n == 0:
        return [], 0.0

    # 1-indexed potentials; p[j] = row matched to column j (0 = free).
    u = np.zeros(n + 1)
    v = np.zeros(m + 1)
    p = np.zeros(m + 1, dtype=np.int64)
    way = np.zeros(m + 1, dtype=np.int64)
    minv = np.empty(m + 1)
    used = np.empty(m + 1, dtype=bool)
    way_cols = way[1:]
    minv_cols = minv[1:]

    scan_steps = 0
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv[:] = np.inf
        used[:] = False
        while True:
            scan_steps += 1
            used[j0] = True
            i0 = int(p[j0])
            free = ~used[1:]
            # Reduced costs of row i0 against every unreached column.
            reduced = cost[i0 - 1] - (u[i0] + v[1:])
            better = free & (reduced < minv_cols)
            minv_cols[better] = reduced[better]
            way_cols[better] = j0
            # np.argmin takes the first minimum, matching the reference
            # loop's strict `<` (lowest-index tie-break).
            masked = np.where(free, minv_cols, np.inf)
            j1 = int(np.argmin(masked)) + 1
            delta = float(masked[j1 - 1])
            # Shift potentials along the alternating tree: the rows
            # p[used] are pairwise distinct (each reached column is
            # matched to a different row), so fancy += is safe.
            u[p[used]] += delta
            v[used] -= delta
            minv_cols[free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = int(way[j0])
            p[j0] = p[j1]
            j0 = j1

    # One augmenting path per row; scan steps are the Dijkstra-style
    # column relaxations summed over all paths.
    obs.count("hungarian.augmenting_paths", n)
    obs.count("hungarian.scan_steps", scan_steps)
    assignment = np.full(n, -1, dtype=np.int64)
    matched = np.flatnonzero(p[1:])
    assignment[p[1 + matched] - 1] = matched
    total = float(cost[np.arange(n), assignment].sum())
    return assignment.tolist(), total

