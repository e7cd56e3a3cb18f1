"""Online bipartite matching algorithms.

Left vertices (workers) arrive one at a time; each must be matched
immediately and irrevocably to a still-available right vertex (task
slot) or dropped.  Two algorithms:

* :func:`two_phase_matching` — observe the first ``sample_fraction``
  of arrivals greedily, then use the optimal matching on the observed
  prefix as a price guide for the remainder (the sample-and-price
  design used by the TGOA line of online task-assignment algorithms).
  The prices come from :func:`match_prices`, one call of the exact
  b-matching kernel.  :func:`online_greedy_matching` — each arrival
  takes its best available edge, 1/2-competitive for weighted
  matching under random order — is its empty-sample case.  Its scalar
  scan is the reference for :func:`take_best`, the vectorized
  take-best step the ``online-*`` solvers and the stream policies
  share.
* :func:`ranking_matching` — the Karp–Vazirani–Vazirani RANKING
  algorithm for *unweighted* matching, (1−1/e)-competitive against
  adversarial order.  Included as the classical baseline.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.matching.b_matching import max_weight_b_matching
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


def match_prices(
    weights: np.ndarray, row_caps: Sequence[int], col_caps: Sequence[int]
) -> np.ndarray:
    """Per-column prices from the optimal b-matching of ``weights``.

    A column's price is the largest weight it earns in
    :func:`~repro.matching.b_matching.max_weight_b_matching` under the
    given degree bounds, or 0 when it is left unmatched.  The kernel
    takes each (row, column) edge at most once, so a row of capacity
    ``c`` prices up to ``c`` distinct columns.
    """
    edges, _total = max_weight_b_matching(weights, row_caps, col_caps)
    prices = np.zeros(weights.shape[1])
    for row, col in edges:
        prices[col] = max(prices[col], weights[row, col])
    return prices


def take_best(
    scores: np.ndarray, capacity: int, floor: float | np.ndarray = 0.0
) -> np.ndarray:
    """Positions of the ``capacity`` highest ``scores`` strictly above
    ``max(floor, 0)``, best first.

    The take-best step of online assignment: one arrival with
    ``capacity`` units takes its best candidates above their prices
    (``floor``, a scalar or one entry per score).  Ties go to the
    lowest position, the order :func:`two_phase_matching`'s scan keeps.
    """
    if capacity <= 0:
        return np.zeros(0, dtype=np.intp)
    accepted = np.flatnonzero(scores > np.maximum(floor, 0.0))
    order = np.argsort(-scores[accepted], kind="stable")
    return accepted[order[:capacity]]


def online_greedy_matching(
    order: Sequence[int],
    n_right: int,
    weight_of: WeightFn,
    right_capacities: Sequence[int] | None = None,
) -> list[tuple[int, int]]:
    """Greedy online weighted matching with optional right capacities.

    Each arriving left vertex takes its maximum-positive-weight right
    vertex among those with remaining capacity, or stays unmatched if
    every candidate edge is non-positive/absent.  This is
    :func:`two_phase_matching` with an empty sample: every price is 0.
    """
    return two_phase_matching(
        order, n_right, weight_of, right_capacities, sample_fraction=0.0
    )


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

    Phase 2: compute the optimal b-matching of the *observed* left
    vertices (one edge each) to the remaining right capacity; the
    largest weight each right vertex earns there becomes its price
    (:func:`match_prices`).  Later arrivals only take a
    right vertex if they beat its price, which filters out
    low-value grabs that would block high-value future edges.
    """
    _check_order(order, len(order))
    check_fraction("sample_fraction", sample_fraction)
    cutoff = int(round(sample_fraction * len(order)))
    sample, rest = list(order[:cutoff]), list(order[cutoff:])

    remaining = _remaining(right_capacities, n_right)
    matches: list[tuple[int, int]] = []

    def greedy_step(left: int, threshold: Sequence[float]) -> None:
        best_right, best_weight = -1, 0.0
        for right in range(n_right):
            w = weight_of(left, right) if remaining[right] > 0 else None
            if w is not None and w > threshold[right] and w > best_weight:
                best_right, best_weight = right, w
        if best_right >= 0:
            remaining[best_right] -= 1
            matches.append((left, best_right))

    prices = [0.0] * n_right
    for left in sample:
        greedy_step(left, prices)

    # Price each right vertex by its earnings in the optimal b-matching
    # of the sampled left vertices (one edge each) to the capacity the
    # sample left: an exhausted vertex can never be taken in phase 2,
    # so it must not absorb sample rows that should price the others.
    weight_rows = np.array(
        [[weight_of(left, right) or 0.0 for right in range(n_right)]
         for left in sample],
        dtype=float,
    ).reshape(len(sample), n_right)
    prices = match_prices(weight_rows, [1] * len(sample), remaining).tolist()

    for left in rest:
        greedy_step(left, prices)
    return matches
