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
potentials that keep reduced costs non-negative.

The search is generic successive shortest paths (Ahuja, Magnanti &
Orlin, *Network Flows*, §9.7): each capacity unit of the side with
fewer units (capacities capped at the node's candidate edges) is
pushed from its own node by one Dijkstra.  A zero-cost "leave
unfilled" arc from every pushed node to the sink lets a unit stay
unassigned, or give its partner up to a better unit.  Potentials start
at ``max(0, best weight)`` on pushed nodes, 0 elsewhere.  Settling a
pushed node relaxes its row of forward costs; settling an other-side
node relaxes its matched partners and its sink arc.  The search stops
at the sink, and only settled nodes move their potentials, by
``dist − D``.  It has two data layouts, chosen by block size, that
return the same edges and counts: numpy rows
(:func:`_push_units`, blocks above ``_SMALL_BLOCK`` cells) and Python
lists (:func:`_push_lists`, micro-batch windows and other small
blocks).

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

#: Blocks of at most this many cells (``n * m``) take the list form of
#: the search, larger ones the array form.  Median ms per solve on
#: random ``U(0, 1)`` blocks, worker capacities 1-3, task capacity 1
#: (2-vCPU x86-64 host, CPython 3.11, numpy 2.4):
#:
#: ====== ===== ===== ===== ===== ===== ===== ===== ======= =======
#: block   6x6  13x16 20x20 32x32 45x45 50x50 64x64 200x100 200x200
#: list   0.08  0.26  0.45  0.88  1.01  1.15  1.88    8.8    24.7
#: array  0.17  0.48  0.84  1.28  1.03  1.21  1.42    2.5     7.8
#: ====== ===== ===== ===== ===== ===== ===== ===== ======= =======
#:
#: The forms cross near 2,000-2,500 cells.  On the 49 windows of
#: ``stream_micro_batch/n=10000`` (median 39x60) they are even from
#: 1,500 to 2,500 cells, and the array form wins above.
_SMALL_BLOCK = 2048


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
    edges: list[tuple[int, int]] = []
    if n_candidates:
        # The side with fewer capacity units (capacities capped at the
        # node's candidate edges; the columns on a tie) is pushed, one
        # row of ``cost`` per pushed node.  Its potentials start at
        # max(0, best weight), the other side's at 0.
        row_units = np.minimum(row_capacities, candidate.sum(axis=1))
        col_units = np.minimum(col_capacities, candidate.sum(axis=0))
        forward = np.where(candidate, -weights, np.inf)
        if row_units.sum() < col_units.sum():
            cost, units, spare = forward, row_units, col_capacities
        else:
            cost = np.ascontiguousarray(forward.T)
            units, spare = col_units, row_capacities
        push_pot = np.maximum(-cost.min(axis=1), 0.0).tolist()
        search = _push_lists if n * m <= _SMALL_BLOCK else _push_units
        partners, augmentations, rounds = search(
            cost, units.tolist(), spare.tolist(), push_pot
        )
        pairs = [
            (held, node)
            for node, held_by in enumerate(partners)
            for held in held_by
        ]
        edges = sorted(pairs if cost is forward else [(j, i) for i, j in pairs])
    obs.count("b_matching.augmentations", augmentations)
    obs.count("b_matching.search_rounds", rounds)
    obs.count("b_matching.candidate_edges", n_candidates)
    obs.count("b_matching.matched_edges", len(edges))
    return edges, edge_matrix_sum(weights, edges)


def _push_units(
    cost: np.ndarray,
    units: list[int],
    spare: list[int],
    push_pot: list[float],
) -> tuple[list[dict[int, float]], int, int]:
    """Successive shortest paths, one Dijkstra per capacity unit of the
    pushed side (the rows of ``cost``, start potentials ``push_pot``),
    over numpy rows; updates ``cost``, ``spare`` and ``push_pot`` in
    place.  Returns the pushed nodes matched to each other-side node
    with the edge weight, the count of pushes that matched one more edge
    and the number of settled nodes."""
    n_other = cost.shape[1]
    inf = math.inf
    other_pot = np.zeros(n_other)
    # ``other_pot`` with the nodes settled in the current search at
    # -inf, so that no relaxation reaches them again.
    open_pot = other_pot.copy()
    # The backward arcs: the pushed nodes matched to each other-side
    # node, with the edge weight.
    partners: list[dict[int, float]] = [{} for _ in range(n_other)]
    augmentations = rounds = 0
    for source, count in enumerate(units):
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
    return partners, augmentations, rounds


def _push_lists(
    cost: np.ndarray,
    units: list[int],
    spare: list[int],
    push_pot: list[float],
) -> tuple[list[dict[int, float]], int, int]:
    """The search of :func:`_push_units` over Python lists, for small
    blocks: the same pushes, labels, tie-breaks and potentials, and the
    same result and counts.  A settled pushed node's row is relaxed in
    a loop over its candidate columns, one heap holds both sides, and
    other-side parents are stored instead of recomputed."""
    inf = math.inf
    table = cost.tolist()
    columns = [[j for j, arc in enumerate(row) if arc < inf] for row in table]
    n_other = len(spare)
    other_pot = [0.0] * n_other
    partners: list[dict[int, float]] = [{} for _ in range(n_other)]
    augmentations = rounds = 0
    for source, count in enumerate(units):
        for _ in range(count):
            # Heap entries are (label, kind, node): other-side nodes
            # (kind 0) before pushed nodes on a tie, as in the array
            # form.  Settled other-side nodes sit at -inf in ``label``.
            heap = [(0.0, 1, source)]
            label = [inf] * n_other
            parent = [-1] * n_other
            push_label = {source: 0.0}
            push_parent: dict[int, int] = {}
            pushed: list[tuple[int, float]] = []
            settled: list[tuple[int, float]] = []
            best, end = inf, -1
            while heap:
                dist, kind, node = heapq.heappop(heap)
                if dist >= best:
                    break
                if kind:
                    if push_label[node] < dist:
                        continue
                    push_label[node] = -inf
                    rounds += 1
                    base = dist + push_pot[node]
                    pushed.append((node, base))
                    if base < best:
                        best, end = base, node
                    row = table[node]
                    for j in columns[node]:
                        reached = row[j] - other_pot[j] + base
                        if reached < label[j]:
                            label[j] = reached
                            parent[j] = node
                            heapq.heappush(heap, (reached, 0, j))
                    continue
                if label[node] < dist:
                    continue
                label[node] = -inf
                rounds += 1
                settled.append((node, dist))
                pot = other_pot[node]
                if spare[node]:
                    through = dist + pot
                    if through < best:
                        best, end = through, ~node
                for held, weight in partners[node].items():
                    reached = dist + weight + pot - push_pot[held]
                    if reached < push_label.get(held, inf):
                        push_label[held] = reached
                        push_parent[held] = node
                        heapq.heappush(heap, (reached, 1, held))
            node = ~end
            if end < 0:
                spare[node] -= 1
                augmentations += 1
            elif end != source:
                node = push_parent[end]
                table[end][node] = -partners[node].pop(end)
            while end != source:
                held = parent[node]
                partners[node][held] = -table[held][node]
                table[held][node] = inf
                if held == source:
                    break
                node = push_parent[held]
                table[held][node] = -partners[node].pop(held)
            for held, base in pushed:
                push_pot[held] = base - best
            for node, dist in settled:
                other_pot[node] += dist - best
    return partners, augmentations, rounds
