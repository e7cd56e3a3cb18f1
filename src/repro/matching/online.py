"""Online bipartite matching algorithms.

Left vertices (workers) arrive one at a time; each must be matched
immediately and irrevocably to a still-available right vertex (task
slot) or dropped.  Three algorithms:

* :func:`online_greedy_matching` — match each arrival to its best
  available edge.  1/2-competitive for weighted matching under random
  order.
* :func:`ranking_matching` — the Karp–Vazirani–Vazirani RANKING
  algorithm for *unweighted* matching, (1−1/e)-competitive against
  adversarial order.  Included as the classical baseline.
* :func:`two_phase_matching` — observe the first ``sample_fraction``
  of arrivals greedily, then use the optimal matching on the observed
  prefix as a price guide for the remainder (the sample-and-price
  design used by the TGOA line of online task-assignment algorithms).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.matching.hungarian import max_weight_assignment
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_capacities, check_fraction

#: Returns the weight of (left, right) or None if the edge is absent.
WeightFn = Callable[[int, int], float | None]


def _check_order(order: Sequence[int], n_left: int) -> None:
    if sorted(order) != list(range(n_left)):
        raise ValidationError(
            f"order must be a permutation of range({n_left})"
        )


def _remaining(right_capacities: Sequence[int] | None, n_right: int) -> list[int]:
    """Spare capacity per right vertex, one each when not given."""
    if right_capacities is None:
        return [1] * n_right
    return check_capacities(
        "right_capacities", right_capacities, n_right
    ).tolist()


def online_greedy_matching(
    order: Sequence[int],
    n_right: int,
    weight_of: WeightFn,
    right_capacities: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """Greedy online weighted matching with optional right capacities.

    Each arriving left vertex takes its maximum-positive-weight right
    vertex among those with remaining capacity, or stays unmatched if
    every candidate edge is non-positive/absent.
    """
    _check_order(order, len(order))
    remaining = _remaining(right_capacities, n_right)
    matches: list[tuple[int, int]] = []
    for left in order:
        best_right = -1
        best_weight = 0.0
        for right in range(n_right):
            if remaining[right] <= 0:
                continue
            w = weight_of(left, right)
            if w is not None and w > best_weight:
                best_weight = w
                best_right = right
        if best_right >= 0:
            remaining[best_right] -= 1
            matches.append((left, best_right))
    return matches


def ranking_matching(
    order: Sequence[int],
    n_right: int,
    neighbors: Callable[[int], Sequence[int]],
    seed: SeedLike = None,
) -> list[tuple[int, int]]:
    """KVV RANKING for unweighted online bipartite matching.

    Right vertices are ranked uniformly at random up front; each
    arriving left vertex matches its *highest-ranked* free neighbour.
    """
    _check_order(order, len(order))
    rng = as_rng(seed)
    rank = rng.permutation(n_right)
    free = [True] * n_right
    matches: list[tuple[int, int]] = []
    for left in order:
        candidates = [r for r in neighbors(left) if 0 <= r < n_right and free[r]]
        if candidates:
            chosen = min(candidates, key=lambda r: rank[r])
            free[chosen] = False
            matches.append((left, chosen))
    return matches


def two_phase_matching(
    order: Sequence[int],
    n_right: int,
    weight_of: WeightFn,
    right_capacities: Sequence[int] | None = None,
    sample_fraction: float = 0.5,
) -> list[tuple[int, int]]:
    """Sample-and-price online matching.

    Phase 1 (the first ``sample_fraction`` of arrivals): match greedily
    — these arrivals still produce value, unlike the classical
    secretary algorithm that discards its sample.

    Phase 2: compute the optimal assignment of the *observed* left
    vertices to the remaining right capacity; the weight each right
    vertex earns there becomes its price.  Later arrivals only take a
    right vertex if they beat its price, which filters out
    low-value grabs that would block high-value future edges.
    """
    _check_order(order, len(order))
    check_fraction("sample_fraction", sample_fraction)
    n_left = len(order)
    cutoff = int(round(sample_fraction * n_left))
    sample, rest = list(order[:cutoff]), list(order[cutoff:])

    remaining = _remaining(right_capacities, n_right)
    matches: list[tuple[int, int]] = []

    def greedy_step(left: int, threshold: Sequence[float]) -> None:
        best_right, best_weight = -1, 0.0
        for right in range(n_right):
            if remaining[right] <= 0:
                continue
            w = weight_of(left, right)
            if w is None:
                continue
            if w > threshold[right] and w > best_weight:
                best_weight = w
                best_right = right
        if best_right >= 0:
            remaining[best_right] -= 1
            matches.append((left, best_right))

    zero_threshold = [0.0] * n_right
    for left in sample:
        greedy_step(left, zero_threshold)

    # Price each right vertex by its earnings in the optimal assignment
    # of the sampled left vertices (capacity-expanded columns).  Only
    # vertices with remaining capacity get slots: an exhausted vertex
    # can never be taken in phase 2, and a phantom slot for it would
    # absorb sample rows that should price the live vertices.
    prices = [0.0] * n_right
    slots: list[int] = []
    for right in range(n_right):
        if remaining[right] > 0:
            slots.extend([right] * remaining[right])
    if sample and slots:
        weight_rows = np.zeros((len(sample), len(slots)))
        for si, left in enumerate(sample):
            for ci, right in enumerate(slots):
                w = weight_of(left, right)
                weight_rows[si, ci] = w if w is not None else 0.0
        assignment, _total = max_weight_assignment(weight_rows)
        for si, ci in enumerate(assignment):
            if ci >= 0:
                right = slots[ci]
                prices[right] = max(prices[right], float(weight_rows[si, ci]))

    for left in rest:
        greedy_step(left, prices)
    return matches
