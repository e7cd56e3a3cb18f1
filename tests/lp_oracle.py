"""The b-matching LP oracle the exact kernel and the sharded solver's
gap bound are checked against (scipy; a test skips without it)."""

import numpy as np
import pytest


def lp_optimum(weights, row_caps, col_caps):
    """The b-matching LP over candidate edges; integral by total
    unimodularity of the bipartite incidence matrix.

    HiGHS judges optimality against absolute tolerances (1e-7 by
    default), so a weight below that could be traded for a smaller one.
    The costs are divided by the largest candidate weight and the
    tolerances are set to their tightest, which keeps the oracle's own
    error well under the comparison bound."""
    optimize = pytest.importorskip("scipy.optimize")
    n, m = weights.shape
    rows, cols = np.nonzero(
        (weights > 0) & (row_caps[:, None] > 0) & (col_caps[None, :] > 0)
    )
    if rows.size == 0:
        return 0.0
    incidence = np.zeros((n + m, rows.size))
    incidence[rows, np.arange(rows.size)] = 1.0
    incidence[n + cols, np.arange(rows.size)] = 1.0
    costs = weights[rows, cols]
    unit = float(costs.max())
    solution = optimize.linprog(
        -costs / unit,
        A_ub=incidence,
        b_ub=np.concatenate([row_caps, col_caps]).astype(float),
        bounds=(0.0, 1.0),
        method="highs",
        options={
            "dual_feasibility_tolerance": 1e-10,
            "primal_feasibility_tolerance": 1e-10,
        },
    )
    assert solution.status == 0, solution.message
    return float(-solution.fun) * unit
