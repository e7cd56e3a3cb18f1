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

The kernel keeps that network implicit: forward arc costs ``(n, m)``
(``−weight`` on unmatched candidate edges, ``+inf`` elsewhere), the
backward arcs of the matched edges, per-side loads, and worker, task
and sink potentials that keep reduced costs non-negative.  Both
searches below start from the same potentials, find the cheapest
augmenting path from every worker with spare capacity, prune labels at
or above the cheapest spare-capacity task found so far, move the
potentials by ``min(dist, D)`` and push the path by walking parent
pointers.  The search has two forms, chosen by block size:

* **array** (:func:`_augment`, blocks above ``_SMALL_BLOCK`` cells):
  a multi-source label-correcting search.  The backward arcs are a
  slot table of width ``max(row_capacities)``, and a relaxation round
  is one numpy reduction over the rows (workers → tasks) or the slot
  table (tasks → workers) of the nodes whose labels changed in the
  previous round.
* **scalar** (:func:`_augment_small`, micro-batch windows and other
  small blocks): one dense ``O(V²)`` Dijkstra over Python lists, which
  settles one worker or task per round.  The backward arcs are the
  workers matched to each task.  At these sizes numpy's per-call
  overhead costs more than the arithmetic it saves.

Validation, the candidate mask, the start potentials, the edge output
and the ``b_matching.*`` work counters are shared.  The
explicit-network formulation is
:func:`repro.matching.reference.b_matching_reference`, the test oracle.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.utils.stats import edge_matrix_sum
from repro.utils.validation import check_capacities, check_weights

#: Stop tolerance: augment only while the cheapest path's true cost is
#: below ``-_EPS`` (the same rule as ``min_cost_flow``).
_EPS = 1e-9

#: Blocks of at most this many cells (``n * m``) take the scalar search
#: of :func:`_augment_small`, larger ones the array search of
#: :func:`_augment`.  Measured crossover, median ms per solve on random
#: ``U(0, 1)`` blocks, worker capacities 1-3, task capacity 1 (2-vCPU
#: x86-64 host, CPython 3.11, numpy 2.4):
#:
#: ======== ===== ===== ===== ===== ===== ===== =======
#: block     6x6  13x16 16x16 18x18 20x20 32x32 200x200
#: array    0.87  1.92  1.76  2.19  2.59  4.67    85
#: scalar   0.27  1.14  1.38  1.97  2.84  10.2  1556
#: ======== ===== ===== ===== ===== ===== ===== =======
#:
#: The scalar search's cost grows as ``(n + m)^2`` per augmentation, the
#: array search's per-call overhead stays flat; tall blocks (``n > m``)
#: cross a little earlier, 32x8 at 0.90 against 0.99.
_SMALL_BLOCK = 256


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
        forward = np.where(candidate, -weights, np.inf)
        # Potentials start at the Bellman-Ford distances of the empty
        # flow (an acyclic network): 0 for workers, each task's
        # cheapest forward arc, and the cheapest task for the sink.
        column_best = forward.min(axis=0)
        task_pot = np.where(np.isfinite(column_best), column_best, 0.0)
        search = _augment_small if n * m <= _SMALL_BLOCK else _augment
        forward, augmentations, rounds = search(
            weights, forward, task_pot, row_capacities, col_capacities
        )
        # A candidate edge's forward arc is +inf exactly while it is
        # matched; nonzero lists them in (row, col) order.
        rows, cols = np.nonzero(candidate & np.isinf(forward))
        edges = list(zip(rows.tolist(), cols.tolist()))
    else:
        edges = []
    obs.count("b_matching.augmentations", augmentations)
    obs.count("b_matching.search_rounds", rounds)
    obs.count("b_matching.candidate_edges", n_candidates)
    obs.count("b_matching.matched_edges", len(edges))
    return edges, edge_matrix_sum(weights, edges)


def _augment(
    weights: np.ndarray,
    forward: np.ndarray,
    task_pot: np.ndarray,
    row_capacities: np.ndarray,
    col_capacities: np.ndarray,
) -> tuple[np.ndarray, int, int]:
    """Successive shortest paths by array reductions; updates the
    forward arc costs in place and returns them, the augmentation count
    and the number of relaxation rounds."""
    n, m = weights.shape
    width = int(min(row_capacities.max(), m))
    slot_task = np.full((n, width), m)
    slot_weight = np.zeros((n, width))
    row_load = np.zeros(n, dtype=int)
    col_load = np.zeros(m, dtype=int)
    # Index m of the task arrays is the empty slot's dummy task: its
    # label stays +inf, so it never relaxes.
    worker_pot = np.zeros(n)
    task_pot = np.append(task_pot, 0.0)
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
            return forward, augmentations, rounds
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


def _augment_small(
    weights: np.ndarray,
    forward: np.ndarray,
    task_pot: np.ndarray,
    row_capacities: np.ndarray,
    col_capacities: np.ndarray,
) -> tuple[list[list[float]], int, int]:
    """The search of :func:`_augment` over Python lists, for blocks
    where numpy's per-call overhead outweighs its arithmetic.

    Each augmentation is one dense Dijkstra: a round settles the
    cheapest unsettled worker or task and relaxes its arcs.  Labels,
    pruning, potential update and push follow :func:`_augment` term
    for term, so without ties both searches find the same paths.
    Returns the forward arc costs as nested lists, the augmentation
    count and the number of settled nodes."""
    n, m = weights.shape
    inf = math.inf
    gain = weights.tolist()
    cost = forward.tolist()
    columns = [[j for j, arc in enumerate(row) if arc < inf] for row in cost]
    task_pot = task_pot.tolist()
    sink_pot = min(task_pot)
    worker_pot = [0.0] * n
    row_spare = row_capacities.tolist()
    col_spare = col_capacities.tolist()
    # The backward arcs: the workers matched to each task.
    holders: list[list[int]] = [[] for _ in range(m)]
    augmentations = rounds = 0
    while True:
        worker_dist = [
            max(-pot, 0.0) if spare else inf
            for pot, spare in zip(worker_pot, row_spare)
        ]
        task_dist = [inf] * m
        # Labels of the nodes not yet settled (+inf once settled).
        worker_open = worker_dist[:]
        task_open = [inf] * m
        worker_parent = [-1] * n
        task_parent = [-1] * m
        best, best_task = inf, -1
        while True:
            worker_label = min(worker_open)
            task_label = min(task_open)
            if worker_label <= task_label:
                if worker_label >= best:
                    break
                rounds += 1
                worker = worker_open.index(worker_label)
                worker_open[worker] = inf
                pot = worker_pot[worker]
                row = cost[worker]
                for task in columns[worker]:
                    label = row[task] + pot - task_pot[task]
                    if label < 0.0:
                        label = 0.0
                    label += worker_label
                    if label < task_dist[task] and label < best:
                        task_dist[task] = task_open[task] = label
                        task_parent[task] = worker
            else:
                if task_label >= best:
                    break
                rounds += 1
                task = task_open.index(task_label)
                task_open[task] = inf
                pot = task_pot[task]
                if col_spare[task]:
                    through = pot - sink_pot
                    if through < 0.0:
                        through = 0.0
                    through += task_label
                    if through < best:
                        best, best_task = through, task
                for worker in holders[task]:
                    label = gain[worker][task] + pot - worker_pot[worker]
                    if label < 0.0:
                        label = 0.0
                    label += task_label
                    if label < worker_dist[worker] and label < best:
                        worker_dist[worker] = worker_open[worker] = label
                        worker_parent[worker] = task
        if best_task < 0 or best + sink_pot >= -_EPS:
            return cost, augmentations, rounds
        worker_pot = [
            pot + (dist if dist < best else best)
            for pot, dist in zip(worker_pot, worker_dist)
        ]
        task_pot = [
            pot + (dist if dist < best else best)
            for pot, dist in zip(task_pot, task_dist)
        ]
        sink_pot += best
        task = best_task
        col_spare[task] -= 1
        while True:
            worker = task_parent[task]
            cost[worker][task] = inf
            holders[task].append(worker)
            released = worker_parent[worker]
            if released < 0:
                row_spare[worker] -= 1
                break
            cost[worker][released] = -gain[worker][released]
            holders[released].remove(worker)
            task = released
        augmentations += 1
