"""Top-k candidate pruning: the scalable approximate solver.

At platform scale the dense worker×task benefit matrix is the enemy:
|W|·|T| candidate edges make even greedy's heap O(nm log nm).  The
standard systems remedy — and the kind of optimization the paper's
prototype needs to hit its throughput numbers — is **candidate
pruning**: keep only each worker's top-``k`` tasks (by combined
benefit) and each task's top-``k`` workers, and run greedy on that
sparse union.

Rationale: an edge outside both top-``k`` lists can only matter when
every better partner of *both* endpoints is exhausted, which at
realistic capacity/replication ratios is rare; F17 (the pruning
ablation added by this reproduction) measures quality-vs-speed as
``k`` shrinks.

The pruning itself is vectorized (two ``argpartition`` calls), so the
end-to-end cost is O(nm + E_k log E_k) with E_k = k(n + m) surviving
edges.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, register_solver
from repro.errors import ValidationError
from repro.matching.greedy import ranked_edges, take_in_order
from repro.utils.rng import SeedLike


def top_k_edge_mask(combined: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask keeping each row's and each column's top-k entries.

    An entry survives if it is in its row's top-k *or* its column's
    top-k — the union keeps both sides' best options alive.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    n, m = combined.shape
    mask = np.zeros((n, m), dtype=bool)
    if n == 0 or m == 0:
        return mask
    k_row = min(k, m)
    # argpartition puts the k largest (by -value) first, unordered.
    row_top = np.argpartition(-combined, k_row - 1, axis=1)[:, :k_row]
    mask[np.arange(n)[:, np.newaxis], row_top] = True
    k_col = min(k, n)
    col_top = np.argpartition(-combined, k_col - 1, axis=0)[:k_col, :]
    mask[col_top, np.arange(m)[np.newaxis, :]] = True
    return mask


@register_solver("pruned-greedy")
class PrunedGreedySolver(Solver):
    """Greedy restricted to the top-k pruned candidate set.

    Parameters
    ----------
    k:
        Candidate-list length per worker and per task.  Larger k means
        better quality and more work; k >= max(capacity, replication)
        is the sensible floor.
    """

    def __init__(self, k: int = 10) -> None:
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        self.k = k

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        combined = problem.benefits.combined
        # Memoized on the problem so repeated solves (and the sharded
        # solver's boundary refinement) share one pruning pass; duck
        # problems without the cache fall back to a direct computation.
        top_k = getattr(problem, "top_k_candidates", None)
        if top_k is not None:
            mask = top_k(self.k)
        else:
            mask = top_k_edge_mask(combined, self.k)
        caps_w = problem.worker_capacities()
        caps_t = problem.task_capacities()
        rows, cols = ranked_edges(combined, caps_w, caps_t, mask=mask)
        return self._finish(problem, take_in_order(rows, cols, caps_w, caps_t))
