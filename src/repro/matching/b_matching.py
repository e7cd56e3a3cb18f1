"""Maximum-weight capacitated b-matching by successive shortest paths.

The problem is the min-cost flow on the standard network:

* source → worker ``i`` with capacity = worker capacity, cost 0;
* worker ``i`` → task ``j`` with capacity 1 (a worker answers a task at
  most once), cost = −weight[i, j];
* task ``j`` → sink with capacity = task replication, cost 0.

Edges with non-positive weight are never candidates: assigning one can
only lower the total.  The kernel keeps the network implicit: forward
arc costs ``(n, m)`` (``−weight`` on unmatched candidate edges, ``+inf``
elsewhere), the backward arcs of the matched edges, loads and
potentials that keep reduced costs non-negative.  The search has two
forms, chosen by block size:

* **array** (:func:`_push_units`, blocks above ``_SMALL_BLOCK``
  cells): each capacity unit of the side with fewer units (capacities
  capped at the node's candidate edges) is pushed from its own node by
  one Dijkstra (Ahuja, Magnanti & Orlin, *Network Flows*, §9.7).  A
  zero-cost "leave unfilled" arc from every pushed node to the sink
  lets a unit stay unassigned, or give its partner up to a better
  unit.  Potentials start at ``max(0, best weight)`` on pushed nodes,
  0 elsewhere.  Settling a pushed node relaxes its row of forward
  costs in one numpy pass; settling an other-side node relaxes its
  matched partners and its sink arc.  The search stops at the sink,
  and only settled nodes move their potentials, by ``dist − D``.
* **scalar** (:func:`_augment_small`, micro-batch windows and other
  small blocks): one dense ``O(V²)`` Dijkstra over Python lists from
  every worker with spare capacity, which settles one worker or task
  per round, prunes labels at or above the cheapest spare-capacity
  task found so far and stops at the first path whose true cost is
  non-negative.

Validation, the candidate mask, the edge output and the
``b_matching.*`` work counters are shared.  The explicit-network
formulation is :func:`repro.matching.reference.b_matching_reference`,
the test oracle.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro import obs
from repro.utils.stats import edge_matrix_sum
from repro.utils.validation import check_capacities, check_weights

#: Stop tolerance of the scalar search: augment only while the
#: cheapest path's true cost is below ``-_EPS``.
_EPS = 1e-9

#: Blocks of at most this many cells (``n * m``) take the scalar search,
#: larger ones the array search.  Median ms per solve on random
#: ``U(0, 1)`` blocks, worker capacities 1-3, task capacity 1 (2-vCPU
#: x86-64 host, CPython 3.11, numpy 2.4):
#:
#: ======== ===== ===== ===== ===== ===== ===== =======
#: block     6x6   8x8  13x16 16x16 20x20 32x32 200x200
#: array    0.34  0.41  0.82  0.77  0.63  0.84   6.6
#: scalar   0.31  0.47  1.71  2.02  2.13  6.97  1625
#: ======== ===== ===== ===== ===== ===== ===== =======
#:
#: The array search wins from about 8x8, but ``stream_monitored``'s
#: windows (at most 143 cells) run faster on the scalar one, 0.08 s
#: against 0.11 s over the 255 windows at seed 0, and the pinned
#: micro-batch stream digests are recorded on it.
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
        if n * m <= _SMALL_BLOCK:
            forward, augmentations, rounds = _augment_small(
                weights, forward, row_capacities, col_capacities
            )
        else:
            forward, augmentations, rounds = _push_units(
                forward, row_capacities, col_capacities
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


def _push_units(
    forward: np.ndarray,
    row_capacities: np.ndarray,
    col_capacities: np.ndarray,
) -> tuple[np.ndarray, int, int]:
    """Successive shortest paths, one Dijkstra per capacity unit of the
    side with fewer units; updates the forward arc costs in place and
    returns them, the count of pushes that matched one more edge and
    the number of settled nodes."""
    candidate = np.isfinite(forward)
    row_units = np.minimum(row_capacities, candidate.sum(axis=1))
    col_units = np.minimum(col_capacities, candidate.sum(axis=0))
    # Rows of ``cost`` are the pushed nodes, columns the other side.
    if row_units.sum() < col_units.sum():
        cost, units, spare = forward, row_units, col_capacities.tolist()
    else:
        cost = np.ascontiguousarray(forward.T)
        units, spare = col_units, row_capacities.tolist()
    n_other = cost.shape[1]
    inf = math.inf
    push_pot = np.maximum(-cost.min(axis=1), 0.0).tolist()
    other_pot = np.zeros(n_other)
    # ``other_pot`` with the nodes settled in the current search at
    # -inf, so that no relaxation reaches them again.
    open_pot = other_pot.copy()
    # The backward arcs: the pushed nodes matched to each other-side
    # node, with the edge weight.
    partners: list[dict[int, float]] = [{} for _ in range(n_other)]
    augmentations = rounds = 0
    for source, count in enumerate(units.tolist()):
        for _ in range(count):
            label = np.full(n_other, inf)
            heap = [(0.0, source)]
            push_label = {source: 0.0}
            push_parent: dict[int, int] = {}
            # Settled pushed nodes in order with ``dist + potential``;
            # settled other-side nodes: distance, pushed nodes before.
            order: list[int] = []
            bases: list[float] = []
            settled: dict[int, tuple[float, int]] = {}
            best, end = inf, -1
            while True:
                node = int(label.argmin())
                dist = float(label[node])
                if heap and heap[0][0] < dist:
                    dist, node = heapq.heappop(heap)
                    if dist >= best:
                        break
                    if push_label[node] < dist:
                        continue
                    push_label[node] = -inf
                    rounds += 1
                    base = dist + push_pot[node]
                    order.append(node)
                    bases.append(base)
                    # The "leave unfilled" arc to the sink.
                    if base < best:
                        best, end = base, node
                    reached = cost[node] - open_pot
                    reached += base
                    np.minimum(label, reached, out=label)
                    continue
                if dist >= best:
                    break
                rounds += 1
                label[node] = inf
                open_pot[node] = -inf
                settled[node] = dist, len(order)
                pot = float(other_pot[node])
                if spare[node]:
                    through = dist + pot
                    if through < best:
                        best, end = through, ~node
                for held, weight in partners[node].items():
                    reached = dist + weight + pot - push_pot[held]
                    if reached < push_label.get(held, inf):
                        push_label[held] = reached
                        push_parent[held] = node
                        heapq.heappush(heap, (reached, held))
            # Walk the path back from its last node.  An other-side
            # node's parent is the first pushed node settled before it
            # whose relaxation gave its label; recomputing it from the
            # unchanged costs and potentials spares a parent array.
            node = ~end
            if end < 0:
                spare[node] -= 1
                augmentations += 1
            elif end != source:
                node = push_parent[end]
                cost[end, node] = -partners[node].pop(end)
            while end != source:
                k = settled[node][1]
                reached = cost[order[:k], node] - other_pot[node] + bases[:k]
                held = order[int(reached.argmin())]
                partners[node][held] = -cost[held, node]
                cost[held, node] = inf
                if held == source:
                    break
                node = push_parent[held]
                cost[held, node] = -partners[node].pop(held)
            # Settled nodes move by ``dist - best``, so the sink's
            # potential stays 0.
            for held, base in zip(order, bases):
                push_pot[held] = base - best
            nodes = list(settled)
            other_pot[nodes] += [dist - best for dist, _ in settled.values()]
            open_pot[nodes] = other_pot[nodes]
    return (cost if cost is forward else cost.T), augmentations, rounds


def _augment_small(
    weights: np.ndarray,
    forward: np.ndarray,
    row_capacities: np.ndarray,
    col_capacities: np.ndarray,
) -> tuple[list[list[float]], int, int]:
    """Successive shortest paths from every worker with spare capacity
    over Python lists, for small blocks.

    Each augmentation is one dense Dijkstra: a round settles the
    cheapest unsettled worker or task and relaxes its arcs.  Without
    ties it finds the same optimum as :func:`_push_units`.  Returns the
    forward arc costs as nested lists, the augmentation count and the
    number of settled nodes."""
    n, m = weights.shape
    inf = math.inf
    gain = weights.tolist()
    cost = forward.tolist()
    columns = [[j for j, arc in enumerate(row) if arc < inf] for row in cost]
    # Potentials start at the Bellman-Ford distances of the empty flow
    # (an acyclic network): 0 for workers, each task's cheapest forward
    # arc, and the cheapest task for the sink.
    task_pot = [min(0.0, arc) for arc in forward.min(axis=0).tolist()]
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
