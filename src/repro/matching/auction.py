"""Bertsekas' auction algorithm for maximum-weight assignment.

Persons (rows) bid for objects (columns); prices rise until everyone
holds an object they (almost) maximally value.  With ε-scaling and
integer-scaled values the final assignment is exactly optimal when
``epsilon < 1/n`` times the value resolution.

Two bidding schedules are provided:

* ``mode="gauss-seidel"`` (default) — the classic sequential auction:
  one unassigned person bids per iteration, prices update immediately.
  This loop is kept verbatim as the reference implementation.
* ``mode="jacobi"`` — batched bidding: every unassigned person bids in
  one vectorized step against the same price vector (top-2 values via
  ``np.partition``, price raises via ``np.maximum.at``), and each
  object goes to its highest bidder with ties broken deterministically
  toward the lowest person index.  The batched mode additionally keeps
  a per-person top-``K`` candidate cache and carries the assignment
  across ε-phases (dropping only pairs that violate the new phase's
  ε-complementary slackness), which is what makes it fast — see
  :func:`_auction_jacobi` for the invariants.

Which mode wins is a property of the instance, not of the code: on
*structured* markets (specialist/diagonally-dominant benefit matrices,
where most persons want different objects) the batched mode does a
handful of large rounds and is several times faster than the
sequential loop; on *reward-dominated* (near-rank-1) matrices where
everyone covets the same few objects, simultaneous bids are mostly
wasted and the sequential mode remains the right choice.  Batching
applies to square instances; rectangular inputs are padded and routed
through the sequential loop, where zero-weight dummy rows spread
naturally instead of stampeding (see the padding comment in
:func:`auction_assignment`).  See ``docs/performance.md`` for
measurements of both regimes.

Both modes reach the same optimum under the same ε-schedule, so tests
cross-validate them against each other, scipy's assignment optimum,
and the min-cost-flow solver on random instances.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.errors import ConvergenceError, ValidationError
from repro.utils.validation import check_start, check_weights

_MODES = ("gauss-seidel", "jacobi")

#: Candidate-cache width of the Jacobi mode (top-K objects per person).
_JACOBI_CACHE_WIDTH = 16


def auction_assignment(
    weights: np.ndarray,
    epsilon_start: float | None = None,
    scaling: float = 4.0,
    max_rounds: int = 10_000_000,
    mode: str = "gauss-seidel",
    start_prices: np.ndarray | None = None,
    return_state: bool = False,
) -> tuple[list[int], float] | tuple[list[int], float, np.ndarray]:
    """Maximum-weight perfect assignment via ε-scaling auction.

    Parameters
    ----------
    weights:
        ``(n, m)`` finite value matrix with ``n <= m``; every row gets
        a distinct column.
    epsilon_start:
        Initial ε (defaults to ``max|w| / 2``).
    scaling:
        Factor by which ε shrinks between scaling phases.
    max_rounds:
        Bidding-iteration budget across all phases (a Jacobi step of
        ``k`` simultaneous bids counts as ``k`` iterations).
    mode:
        ``"gauss-seidel"`` for the sequential reference loop,
        ``"jacobi"`` for vectorized batched bidding.
    start_prices:
        Optional length-``m`` initial object prices (a warm start from
        a previous, similar instance).  Any finite vector is *correct*
        — each ε-phase rebuilds the assignment from scratch and ends in
        ε-complementary slackness regardless of where prices began — so
        staleness costs only extra bidding rounds, never optimality.
    return_state:
        When true, additionally return the final price vector so
        callers can warm-start the next round.

    Returns
    -------
    (assignment, total): ``assignment[i]`` is the column row ``i``
    takes and ``total`` the summed weight of those cells; with
    ``return_state`` a third element carries the final length-``m``
    prices.
    """
    weights = check_weights(weights, wide=True)
    if mode not in _MODES:
        raise ValidationError(
            f"unknown auction mode {mode!r}; expected one of {_MODES}"
        )
    n, m = weights.shape
    if start_prices is None:
        initial_prices = np.zeros(m)
    else:
        initial_prices = check_start("start_prices", start_prices, m)
    if n == 0:
        if return_state:
            return [], 0.0, initial_prices
        return [], 0.0

    span = float(np.abs(weights).max())
    if span <= 0.0:
        if return_state:
            return list(range(n)), 0.0, initial_prices
        return list(range(n)), 0.0
    if n < m:
        # Pad to a square problem with zero-weight dummy persons: the
        # epsilon-scaling optimality argument needs every object
        # assigned (otherwise prices raised in an early phase on an
        # object that ends up unassigned break epsilon-complementary
        # slackness).  Dummies absorb the leftover objects at weight 0,
        # so the square optimum restricted to the real rows is exactly
        # the rectangular optimum.
        padded = np.zeros((m, m))
        padded[:n] = weights
        # Batched bidding is square-only: the zero-weight dummy rows
        # are value-identical, so in a Jacobi round they all tie on
        # the same cheapest object (lowest-index argmax) and exactly
        # one wins — settling m - n dummies costs O((m - n)^2) bids
        # *per ε-phase*.  The sequential loop spreads dummies
        # naturally (prices update between their bids), so rectangular
        # instances always take the sequential path; ``mode="jacobi"``
        # still validates and agrees, it just does not batch here.
        try:
            # Columns (hence prices) are unchanged by row padding, so a
            # warm price vector threads straight through the recursion.
            square = auction_assignment(
                padded,
                epsilon_start,
                scaling,
                max_rounds,
                "gauss-seidel",
                start_prices=start_prices,
                return_state=return_state,
            )
        except ConvergenceError as error:
            # Re-key the square problem's partial to the real rows so
            # callers can salvage it (dummy rows carry no value).
            if error.partial is not None:
                error.partial = [
                    (i, j) for i, j in error.partial if i < n
                ]
            raise
        assignment = square[0]
        real = assignment[:n]
        total = float(weights[np.arange(n), real].sum())
        if return_state:
            return real, total, square[2]
        return real, total
    # Optimality requires final epsilon < (min value gap)/n; for float
    # inputs we target a resolution proportional to the value span.
    epsilon_final = span * 1e-9 / max(n, 1) + 1e-12
    epsilon = epsilon_start if epsilon_start is not None else span / 2.0
    # A subnormal epsilon (possible when the value span itself is
    # subnormal) would add nothing to bids and deadlock the bidding
    # loop; never start below the final resolution.
    epsilon = max(epsilon, epsilon_final)

    if mode == "jacobi":
        assigned, prices = _auction_jacobi(
            weights,
            epsilon,
            epsilon_final,
            scaling,
            max_rounds,
            span,
            initial_prices,
        )
        total = float(weights[np.arange(n), assigned].sum())
        if return_state:
            return assigned.tolist(), total, prices
        return assigned.tolist(), total

    prices = initial_prices
    owner = [-1] * m  # column -> row
    assigned = [-1] * n  # row -> column
    rounds = 0
    phases = 0

    while True:
        phases += 1
        # Reset assignment each ε-phase (prices persist: that is the
        # point of scaling — good prices transfer between phases).
        owner = [-1] * m
        assigned = [-1] * n
        unassigned = list(range(n))
        while unassigned:
            rounds += 1
            if rounds > max_rounds:
                # The phase's in-progress matching is feasible (each
                # person holds at most one object and vice versa), so
                # hand it to callers as a salvageable partial result.
                raise ConvergenceError(
                    f"auction exceeded {max_rounds} bidding rounds",
                    rounds,
                    partial=[
                        (i, j)
                        for i, j in enumerate(assigned)
                        if j != -1
                    ],
                )
            person = unassigned.pop()
            values = weights[person] - prices
            best = int(np.argmax(values))
            best_value = values[best]
            values[best] = -math.inf
            second_value = float(values.max()) if m > 1 else best_value - span
            bid = prices[best] + (best_value - second_value) + epsilon
            prices[best] = bid
            previous = owner[best]
            owner[best] = person
            assigned[person] = best
            if previous != -1:
                assigned[previous] = -1
                unassigned.append(previous)
        if epsilon <= epsilon_final:
            break
        epsilon = max(epsilon / scaling, epsilon_final)

    # Gauss-Seidel updates one price per bid, so bids == price updates.
    obs.count("auction.bids", rounds)
    obs.count("auction.price_updates", rounds)
    obs.count("auction.phases", phases)
    total = float(weights[np.arange(n), np.asarray(assigned)].sum())
    if return_state:
        return assigned, total, prices
    return assigned, total


def _auction_jacobi(
    weights: np.ndarray,
    epsilon: float,
    epsilon_final: float,
    scaling: float,
    max_rounds: int,
    span: float,
    start_prices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """ε-scaling auction with batched (Jacobi) bidding on a square matrix.

    Every unassigned person computes their bid against the *same*
    price vector; each contested object then goes to its highest
    bidder (lowest person index on exact bid ties) at that bid, and
    the displaced owners rejoin the unassigned pool.

    Three structural optimizations ride on one invariant — **prices
    only rise** (``np.maximum.at``), hence values only fall:

    * *Candidate cache.*  Each person caches their top-``K`` objects
      and the value of the (K+1)-th best (``thresh``) at the snapshot
      prices.  Because non-candidate values were ``<= thresh`` at the
      snapshot and can only have fallen since, the cached argmax is
      the true best while it stays ``>= thresh``; once it dips below
      ("burned"), the row is re-scanned.  Bids therefore cost O(K)
      instead of O(m).  The second-best value used in the bid is
      ``max(cached second, thresh)`` — an upper bound on the true
      second-best, which underbids but preserves ε-complementary
      slackness (the winner's post-bid value is ``sv_used - ε >=
      true_second - ε``).
    * *Phase retention.*  Instead of restarting every ε-phase from an
      empty matching (as the sequential reference does), holders keep
      their object if it still satisfies the new phase's ε-CS:
      ``held_value >= best_value - ε``.  A cached per-person slack
      lower bound (``held - best_upper_bound``) makes this check a
      single vector compare when no price changed since it was
      computed, so late phases on settled instances cost O(n) each.
    * *Scalar cascade step.*  Eviction chains produce long runs of
      rounds with a single bidder, where the fixed overhead of the
      vectorized round dominates; those take a direct scalar path
      over the candidate cache.

    The ε-schedule matches the Gauss-Seidel loop exactly and every
    phase ends with a full assignment satisfying ε-CS, so both modes
    reach the same optimum and are cross-validated on the same
    instances.
    """
    n, m = weights.shape
    cache_width = min(_JACOBI_CACHE_WIDTH, m)
    prices = start_prices
    candidates = np.empty((n, cache_width), dtype=np.int64)
    thresh = np.empty(n)
    owner = np.full(m, -1, dtype=np.int64)
    assigned = np.full(n, -1, dtype=np.int64)
    # slack[i] lower-bounds (held value - best value) for holder i;
    # valid only between price changes (see phase-retention above).
    slack = np.full(n, np.inf)
    slack_valid = False
    rounds = 0
    phases = 0
    price_updates = 0

    def refresh(people: np.ndarray) -> None:
        """Re-scan full rows: cache top-K objects + the (K+1)-th value."""
        values = weights[people] - prices
        if cache_width < m:
            part = np.argpartition(values, m - cache_width - 1, axis=1)
            candidates[people] = part[:, m - cache_width:]
            thresh[people] = values[
                np.arange(people.size), part[:, m - cache_width - 1]
            ]
        else:
            candidates[people] = np.arange(m)[np.newaxis, :]
            thresh[people] = -np.inf

    def cached_best(
        people: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(best value, second-best bound, best object) per person."""
        while True:
            cols = candidates[people]
            values = weights[people[:, np.newaxis], cols] - prices[cols]
            row_index = np.arange(people.size)
            best_slot = np.argmax(values, axis=1)
            best_value = values[row_index, best_slot]
            burned = best_value < thresh[people]
            if not burned.any():
                break
            refresh(people[burned])
        if cache_width > 1:
            second = np.maximum(
                np.partition(values, cache_width - 2, axis=1)[:, -2],
                thresh[people],
            )
        else:
            second = np.maximum(best_value - span, thresh[people])
        return best_value, second, cols[row_index, best_slot]

    refresh(np.arange(n, dtype=np.int64))
    while True:
        phases += 1
        if (assigned >= 0).any():
            if not slack_valid:
                holders = np.flatnonzero(assigned >= 0)
                held = (
                    weights[holders, assigned[holders]]
                    - prices[assigned[holders]]
                )
                # Loose upper bound on the true best value: cached
                # candidates at current prices, or the snapshot
                # threshold for burned rows — either dominates every
                # non-candidate, so no full re-scan is needed here.
                cols = candidates[holders]
                best_bound = np.maximum(
                    (weights[holders[:, np.newaxis], cols]
                     - prices[cols]).max(axis=1),
                    thresh[holders],
                )
                slack[:] = np.inf
                slack[holders] = held - best_bound
                slack_valid = True
            # Exact ε-CS check only where the loose bound is violated.
            suspect = np.flatnonzero(slack < -epsilon)
            if suspect.size:
                best_value, _, _ = cached_best(suspect)
                held = (
                    weights[suspect, assigned[suspect]]
                    - prices[assigned[suspect]]
                )
                slack[suspect] = held - best_value
                dropped = suspect[slack[suspect] < -epsilon]
                if dropped.size:
                    owner[assigned[dropped]] = -1
                    assigned[dropped] = -1
        unassigned = list(np.flatnonzero(assigned < 0))
        if unassigned:
            slack_valid = False
        while unassigned:
            rounds += len(unassigned)
            if rounds > max_rounds:
                raise ConvergenceError(
                    f"auction exceeded {max_rounds} bidding rounds",
                    rounds,
                    partial=[
                        (int(i), int(j))
                        for i, j in enumerate(assigned)
                        if j != -1
                    ],
                )
            if len(unassigned) == 1:
                # Scalar cascade step (see docstring).
                person = int(unassigned.pop())
                while True:
                    cols = candidates[person]
                    values = weights[person, cols] - prices[cols]
                    best_slot = int(np.argmax(values))
                    best_value = float(values[best_slot])
                    if best_value >= thresh[person]:
                        break
                    refresh(np.array([person], dtype=np.int64))
                if cache_width > 1:
                    second = max(
                        float(np.partition(values, cache_width - 2)[-2]),
                        float(thresh[person]),
                    )
                else:
                    second = max(best_value - span, float(thresh[person]))
                obj = int(cols[best_slot])
                prices[obj] += (best_value - second) + epsilon
                price_updates += 1
                previous = int(owner[obj])
                owner[obj] = person
                assigned[person] = obj
                if previous >= 0:
                    assigned[previous] = -1
                    unassigned.append(previous)
                continue
            people = np.array(unassigned, dtype=np.int64)
            best_value, second, best_obj = cached_best(people)
            bids = prices[best_obj] + (best_value - second) + epsilon
            # Highest bid per object; every accepted bid strictly
            # exceeds the old price, so the maximum IS the winning bid.
            np.maximum.at(prices, best_obj, bids)
            # Winner per object: sort by (object, -bid, person) and
            # keep the first row of each object group — the highest
            # bid, ties broken toward the lowest person index.
            order = np.lexsort((people, -bids, best_obj))
            ordered_obj = best_obj[order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = ordered_obj[1:] != ordered_obj[:-1]
            winners = order[first]
            won_obj = best_obj[winners]
            won_person = people[winners]
            price_updates += int(winners.size)
            evicted = owner[won_obj]
            evicted = evicted[evicted >= 0]
            assigned[evicted] = -1
            owner[won_obj] = won_person
            assigned[won_person] = won_obj
            lost = np.ones(people.size, dtype=bool)
            lost[winners] = False
            unassigned = list(people[lost]) + list(evicted)
        if epsilon <= epsilon_final:
            break
        epsilon = max(epsilon / scaling, epsilon_final)
    obs.count("auction.bids", rounds)
    obs.count("auction.price_updates", price_updates)
    obs.count("auction.phases", phases)
    return assigned, prices
