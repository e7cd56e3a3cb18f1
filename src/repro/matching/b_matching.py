"""Maximum-weight capacitated b-matching by successive shortest paths.

The problem is the min-cost flow on the standard network:

* source → worker ``i`` with capacity = worker capacity, cost 0;
* worker ``i`` → task ``j`` with capacity 1 (a worker answers a task at
  most once), cost = −weight[i, j];
* task ``j`` → sink with capacity = task replication, cost 0.

Augmenting along cheapest paths and stopping at the first path whose
true cost is non-negative yields the flow of maximum total weight —
the optimal b-matching for an additive objective.  Edges with
non-positive weight are never candidates: assigning one can only lower
the total.

The kernel keeps that network implicit, as dense arrays: forward arc
costs ``(n, m)`` (``−weight`` on unmatched candidate edges, ``+inf``
elsewhere), each worker's matched tasks in a slot table of width
``max(row_capacities)`` (the backward arcs), per-side loads, and
worker, task and sink potentials.  Each augmentation runs one
multi-source label-correcting search from every worker with spare
capacity.  A relaxation round is one numpy reduction over the rows
(workers → tasks) or the slot table (tasks → workers) of the nodes
whose labels changed in the previous round, on reduced costs that the
potentials keep non-negative.  Labels at or above the cheapest
spare-capacity task found so far are pruned, the potentials move by
``min(dist, D)``, and the path is pushed by walking parent pointers.
The explicit-network formulation is
:func:`repro.matching.reference.b_matching_reference`, the test oracle.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.utils.stats import edge_matrix_sum
from repro.utils.validation import check_capacities, check_weights

#: Stop tolerance: augment only while the cheapest path's true cost is
#: below ``-_EPS`` (the same rule as ``min_cost_flow``).
_EPS = 1e-9


def max_weight_b_matching(
    weights: np.ndarray,
    row_capacities: np.ndarray,
    col_capacities: np.ndarray,
) -> tuple[list[tuple[int, int]], float]:
    """Maximum-weight b-matching of a dense bipartite weight matrix.

    Parameters
    ----------
    weights:
        ``(n, m)`` finite edge weights; only positive-weight edges are
        candidates.
    row_capacities / col_capacities:
        Per-row (worker) and per-column (task) degree bounds, as
        non-negative integers.  Both inputs are checked by the shared
        rules of :mod:`repro.utils.validation`.

    Returns
    -------
    (edges, total)
        Chosen edges as (row, col) pairs, sorted, and their summed
        weight.
    """
    weights = check_weights(weights)
    n, m = weights.shape
    row_capacities = check_capacities("row_capacities", row_capacities, n)
    col_capacities = check_capacities("col_capacities", col_capacities, m)
    candidate = (
        (weights > 0)
        & (row_capacities[:, None] > 0)
        & (col_capacities[None, :] > 0)
    )
    n_candidates = int(np.count_nonzero(candidate))
    augmentations = rounds = 0
    if n_candidates:
        slot_task, augmentations, rounds = _augment(
            weights, candidate, row_capacities, col_capacities
        )
        rows, slots = np.nonzero(slot_task < m)
        cols = slot_task[rows, slots]
        order = np.lexsort((cols, rows))
        edges = list(zip(rows[order].tolist(), cols[order].tolist()))
    else:
        edges = []
    obs.count("b_matching.augmentations", augmentations)
    obs.count("b_matching.search_rounds", rounds)
    obs.count("b_matching.candidate_edges", n_candidates)
    obs.count("b_matching.matched_edges", len(edges))
    return edges, edge_matrix_sum(weights, edges)


def _augment(
    weights: np.ndarray,
    candidate: np.ndarray,
    row_capacities: np.ndarray,
    col_capacities: np.ndarray,
) -> tuple[np.ndarray, int, int]:
    """Successive shortest paths; returns the final slot table (task
    ``m`` marks an empty slot), the augmentation count and the number
    of relaxation rounds."""
    n, m = weights.shape
    forward = np.where(candidate, -weights, np.inf)
    width = int(min(row_capacities.max(), m))
    slot_task = np.full((n, width), m)
    slot_weight = np.zeros((n, width))
    row_load = np.zeros(n, dtype=int)
    col_load = np.zeros(m, dtype=int)
    # Potentials start at the Bellman-Ford distances of the empty flow
    # (an acyclic network).  Index m of the task arrays is the empty
    # slot's dummy task: its label stays +inf, so it never relaxes.
    worker_pot = np.zeros(n)
    column_best = forward.min(axis=0)
    task_pot = np.zeros(m + 1)
    task_pot[:m] = np.where(np.isfinite(column_best), column_best, 0.0)
    sink_pot = task_pot[:m].min()
    all_rows = np.arange(n)
    augmentations = rounds = 0
    while True:
        # Reduced costs of the source → worker and task → sink arcs.
        worker_dist = np.where(
            row_load < row_capacities, np.maximum(-worker_pot, 0.0), np.inf
        )
        exit_cost = np.where(
            col_load < col_capacities,
            np.maximum(task_pot[:m] - sink_pot, 0.0),
            np.inf,
        )
        # Backward (matched task → worker) reduced costs are fixed for
        # the whole search; only the task labels added to them change.
        back_cost = slot_weight + task_pot[slot_task]
        back_cost -= worker_pot[:, None]
        np.maximum(back_cost, 0.0, out=back_cost)
        task_dist = np.full(m + 1, np.inf)
        worker_parent = np.full(n, -1)
        task_parent = np.full(m, -1)
        best, best_task = np.inf, -1
        rows = np.flatnonzero(np.isfinite(worker_dist))
        while rows.size:
            rounds += 1
            reduced = forward[rows] + worker_pot[rows, None]
            reduced -= task_pot[:m]
            np.maximum(reduced, 0.0, out=reduced)
            reduced += worker_dist[rows, None]
            label = reduced.min(axis=0)
            cols = np.flatnonzero((label < task_dist[:m]) & (label < best))
            if not cols.size:
                break
            task_dist[cols] = label[cols]
            task_parent[cols] = rows[reduced[:, cols].argmin(axis=0)]
            through = task_dist[cols] + exit_cost[cols]
            k = through.argmin()
            if through[k] < best:
                best, best_task = through[k], cols[k]
            cols = cols[task_dist[cols] < best]
            changed = np.full(m + 1, np.inf)
            changed[cols] = task_dist[cols]
            reduced = back_cost + changed[slot_task]
            arg = reduced.argmin(axis=1)
            label = reduced[all_rows, arg]
            rows = np.flatnonzero((label < worker_dist) & (label < best))
            worker_dist[rows] = label[rows]
            worker_parent[rows] = slot_task[rows, arg[rows]]
        # The path's true cost is its reduced length plus the sink's
        # potential (the source's stays 0).
        if best_task < 0 or best + sink_pot >= -_EPS:
            return slot_task, augmentations, rounds
        worker_pot += np.minimum(worker_dist, best)
        task_pot += np.minimum(task_dist, best)
        sink_pot += best
        task = best_task
        col_load[task] += 1
        while True:
            worker = task_parent[task]
            forward[worker, task] = np.inf
            released = worker_parent[worker]
            # The new task takes the slot of the one released (or a
            # free slot at the path's first worker).
            slot = np.flatnonzero(
                slot_task[worker] == (m if released < 0 else released)
            )[0]
            slot_task[worker, slot] = task
            slot_weight[worker, slot] = weights[worker, task]
            if released < 0:
                row_load[worker] += 1
                break
            forward[worker, released] = -weights[worker, released]
            task = released
        augmentations += 1
