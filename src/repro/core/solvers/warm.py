"""Warm-started solving: replay, delta-solve, or fall back to cold.

Round-over-round markets change slowly — most workers and tasks
persist — yet the baseline loop re-solves every round from scratch.
:class:`WarmStartSolver` wraps any supported base solver with a
three-tier strategy driven by a :class:`~repro.core.solvers.state.WarmState`:

1. **Replay** (exact): when the new round's
   :func:`~repro.core.solvers.state.problem_fingerprint` equals the
   recorded one, the previous *planned* edges are, by determinism of
   the base solver, exactly what a cold solve would produce — return
   them without solving.  This is the bit-identity guarantee the perf
   harness and property tests pin.
2. **Warm delta-solve** (approximate mode only, ``exact=False``, auction
   base only): when membership churn since the last record stays at or
   below ``churn_threshold``, the auction's object prices are re-keyed
   by task id and fed back to the kernel
   (:meth:`AuctionSolver.solve_with_prices`).  The auction is *correct
   for any finite start prices* (see
   :func:`repro.matching.auction.auction_assignment`), so staleness
   costs bidding rounds, never the objective — only tie-breaks may
   differ from a cold solve, which is why this tier is gated behind
   ``exact=False``.
3. **Cold solve**: anything else — and the fresh solution plus its
   prices become the next round's warm state.

The state lives on the solver object, so it rides simulation
checkpoints through the engine's solver pickling; a resumed run
replays/warm-solves exactly as the uninterrupted one would.
"""

from __future__ import annotations

from repro import obs
from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.core.solvers.auction_solver import AuctionSolver
from repro.core.solvers.base import Solver, get_solver, register_solver
from repro.core.solvers.state import WarmState, problem_fingerprint
from repro.errors import ValidationError
from repro.utils.rng import SeedLike

#: Bases the warm wrapper may delegate to.  All are deterministic and
#: seed-ignoring, which is what makes the replay tier *exact*.
SUPPORTED_BASES: tuple[str, ...] = (
    "auction",
    "flow",
    "greedy",
    "local-search",
    "pruned-greedy",
    "sharded",
)


@register_solver("warm")
class WarmStartSolver(Solver):
    """Replay / delta-solve / cold-solve wrapper around a base solver.

    Parameters
    ----------
    base:
        One of :data:`SUPPORTED_BASES`.
    base_kwargs:
        Constructor kwargs for the base solver.
    churn_threshold:
        Maximum membership-churn fraction for the delta-solve tier.
    exact:
        ``True`` restricts reuse to the provably bit-identical replay
        tier; ``False`` additionally enables price-warmed delta-solving
        for the ``"auction"`` base.
    warm_state:
        Injectable state (e.g. restored from a checkpoint); a fresh
        empty :class:`WarmState` when omitted.
    """

    carries_warm_state = True

    def __init__(
        self,
        base: str = "auction",
        base_kwargs: dict | None = None,
        churn_threshold: float = 0.25,
        exact: bool = True,
        warm_state: WarmState | None = None,
    ) -> None:
        if base not in SUPPORTED_BASES:
            raise ValidationError(
                f"warm base must be one of {SUPPORTED_BASES}, got {base!r}"
            )
        self.base = base
        self.base_kwargs = dict(base_kwargs or {})
        if not 0.0 <= churn_threshold <= 1.0:
            raise ValidationError(
                f"churn_threshold must lie in [0, 1], got {churn_threshold}"
            )
        self.churn_threshold = churn_threshold
        self.exact = exact
        self.warm_state = warm_state if warm_state is not None else WarmState()
        self.last_warm_outcome: str | None = None
        self.last_report = None

    # -- solving ---------------------------------------------------------

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        state = self.warm_state
        fingerprint = problem_fingerprint(problem)

        if state.fingerprint == fingerprint and state.edges is not None:
            state.replays += 1
            self.last_warm_outcome = "replay"
            obs.count("solver.warm.replays")
            return self._finish(problem, list(state.edges))

        churn = state.churn_fraction(problem.market)
        use_warm_kernel = (
            not self.exact
            and self.base == "auction"
            and churn <= self.churn_threshold
        )
        if self.base == "auction":
            start = state.price_vector(problem.market) if use_warm_kernel else None
            assignment, prices = AuctionSolver(
                **self.base_kwargs
            ).solve_with_prices(problem, start_task_prices=start)
            edges = list(assignment.edges)
            state.task_prices = {
                task.task_id: float(prices[j])
                for j, task in enumerate(problem.market.tasks)
            }
        else:
            base_solver = get_solver(self.base, **self.base_kwargs)
            edges = list(base_solver.solve(problem, seed).edges)
            self.last_report = getattr(base_solver, "last_report", None)

        assignment = self._finish(problem, edges)
        state.record(problem, fingerprint, assignment)
        if use_warm_kernel:
            state.warm_solves += 1
            self.last_warm_outcome = "warm"
            obs.count("solver.warm.warm_solves")
        else:
            state.cold_solves += 1
            self.last_warm_outcome = "cold"
            obs.count("solver.warm.cold_solves")
        return assignment

