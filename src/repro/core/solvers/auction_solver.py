"""Auction-based assignment solver.

Reduces the capacitated MBA assignment to a *unit* assignment by
expanding each worker into ``capacity`` bidder copies and each task
into ``replication`` slot copies, then runs Bertsekas' ε-scaling
auction (:func:`repro.matching.auction.auction_assignment`).

The expansion solves a relaxation: two copies of worker ``i`` may both
grab copies of task ``j`` (a worker answering a task twice), which the
real problem forbids.  That only arises when *both* the worker's
capacity and the task's replication exceed 1; the solver repairs it by
keeping one copy of each duplicated pair and greedily refilling the
freed capacity with the best unused positive edges.  Consequences,
locked by tests:

* **exact** whenever every worker capacity is 1 or every task
  replication is 1 (the expansion is then duplicate-free);
* otherwise a high-quality approximation (within a few percent of the
  flow optimum on random instances).

Why keep it?  The auction is the *decentralized* algorithm — bidders
act on local prices — which is how one shards assignment across
machines, and it cross-validates the flow reduction at whole-solver
level on the exact cases.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, register_solver
from repro.errors import ConvergenceError
from repro.matching.auction import auction_assignment
from repro.matching.greedy import candidate_edges, take_in_order
from repro.utils.rng import SeedLike


@register_solver("auction")
class AuctionSolver(Solver):
    """ε-scaling auction on the capacity-expanded unit assignment.

    ``max_rounds`` bounds the total bidding iterations; exceeding it
    raises :class:`repro.errors.ConvergenceError` whose ``partial``
    carries the best feasible edge set recovered from the auction's
    in-progress matching (repaired and refilled exactly like a
    completed run), so resilient callers can salvage instead of
    discarding the work.
    """

    def __init__(
        self,
        max_rounds: int = 10_000_000,
        epsilon_start: float | None = None,
        scaling: float = 4.0,
        mode: str = "gauss-seidel",
    ) -> None:
        self.max_rounds = max_rounds
        self.epsilon_start = epsilon_start
        self.scaling = scaling
        self.mode = mode

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        assignment, _prices = self.solve_with_prices(problem)
        return assignment

    def solve_with_prices(
        self,
        problem: MBAProblem,
        start_task_prices: np.ndarray | None = None,
    ) -> tuple[Assignment, np.ndarray]:
        """Solve and expose per-task auction prices for warm starts.

        ``start_task_prices`` is a length-``n_tasks`` vector broadcast
        to every slot copy of a task on entry; the returned vector is
        the per-task *maximum* over its slot copies' final prices (the
        binding one).  Any finite starting prices are correct — see
        :func:`repro.matching.auction.auction_assignment` — so callers
        may feed prices recorded under a previous market snapshot.
        """
        caps_w = problem.worker_capacities()
        caps_t = problem.task_capacities()

        bidders = np.repeat(
            np.arange(problem.n_workers), caps_w.astype(int)
        ).tolist()
        slots = np.repeat(
            np.arange(problem.n_tasks), caps_t.astype(int)
        ).tolist()
        if not bidders or not slots:
            return self._finish(problem, []), np.zeros(problem.n_tasks)

        clipped = np.maximum(problem.benefits.combined, 0.0)
        values = clipped[np.ix_(bidders, slots)].astype(float)
        # Clipped values are >= 0, so "no positive edge" is max <= 0.
        if float(values.max()) <= 0.0:
            return self._finish(problem, []), np.zeros(problem.n_tasks)

        # Auction needs n_rows <= n_cols; pad with zero-value dummy
        # slots (meaning "stay unassigned") when bidders outnumber
        # slots.
        n_b, n_s = values.shape
        if n_b > n_s:
            padded = np.zeros((n_b, n_b))
            padded[:, :n_s] = values
            values = padded

        start_prices = None
        if start_task_prices is not None:
            per_slot = np.asarray(start_task_prices, dtype=float)[
                np.asarray(slots, dtype=int)
            ]
            start_prices = np.zeros(values.shape[1])
            start_prices[:n_s] = per_slot

        try:
            assignment, _total, slot_prices = auction_assignment(
                values,
                epsilon_start=self.epsilon_start,
                scaling=self.scaling,
                max_rounds=self.max_rounds,
                mode=self.mode,
                start_prices=start_prices,
                return_state=True,
            )
        except ConvergenceError as error:
            # Translate the matching-level partial (bidder copy ->
            # slot copy) into problem-level edges and re-raise so the
            # resilience executor can salvage it.
            error.partial = self._collect_edges(
                problem, error.partial or [], bidders, slots, values, n_s
            )
            raise
        pairs = [
            (bidder_position, slot_position)
            for bidder_position, slot_position in enumerate(assignment)
        ]
        edges = self._collect_edges(
            problem, pairs, bidders, slots, values, n_s
        )
        task_prices = np.zeros(problem.n_tasks)
        np.maximum.at(
            task_prices, np.asarray(slots, dtype=int), slot_prices[:n_s]
        )
        return self._finish(problem, edges), task_prices

    @staticmethod
    def _collect_edges(
        problem: MBAProblem,
        pairs: list[tuple[int, int]],
        bidders: list[int],
        slots: list[int],
        values: np.ndarray,
        n_s: int,
    ) -> list[tuple[int, int]]:
        """Copy-level picks -> valid edge set (dedup + greedy refill).

        Drops dummy-slot and zero-value picks and duplicate (i, j)
        pairs, then greedily refills the capacity those drops freed
        with the best unused positive edges — the repair step shared by
        completed and salvaged-partial auctions.
        """
        combined = problem.benefits.combined
        caps_w = problem.worker_capacities()
        caps_t = problem.task_capacities()
        edges: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        load_w = np.zeros(problem.n_workers, dtype=int)
        load_t = np.zeros(problem.n_tasks, dtype=int)
        for bidder_position, slot_position in pairs:
            if slot_position < 0 or slot_position >= n_s:
                continue
            i = bidders[bidder_position]
            j = slots[slot_position]
            if values[bidder_position, slot_position] <= 0:
                continue
            if (i, j) in seen:
                continue  # duplicate pair: repaired below by refill
            seen.add((i, j))
            load_w[i] += 1
            load_t[j] += 1
            edges.append((i, j))

        # Greedy refill of capacity freed by dropped duplicates.
        unseen = np.ones(combined.shape, dtype=bool)
        if seen:
            taken = np.asarray(sorted(seen), dtype=int)
            unseen[taken[:, 0], taken[:, 1]] = False
        spare_w = caps_w - load_w
        spare_t = caps_t - load_t
        rows, cols = candidate_edges(combined, spare_w, spare_t, mask=unseen)
        # Highest value first; on ties, highest (i, j) — the order
        # `sorted(..., reverse=True)` of (value, i, j) tuples gave.
        rows, cols = rows[::-1], cols[::-1]
        order = np.argsort(-combined[rows, cols], kind="stable")
        edges += take_in_order(rows[order], cols[order], spare_w, spare_t)
        return edges

    @staticmethod
    def exact_for_problem(problem: MBAProblem) -> bool:
        """True when the expansion is duplicate-free, hence optimal."""
        if not problem.combiner.decomposes_over_edges:
            return False
        return (
            bool((problem.worker_capacities() <= 1).all())
            or bool((problem.task_capacities() <= 1).all())
        )
