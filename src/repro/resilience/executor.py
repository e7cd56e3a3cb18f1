"""The resilient solver executor.

:class:`ResilientSolver` wraps any registered solver with the full
graceful-degradation stack:

1. **deadline** — each attempt is timed; a result that arrives after
   the policy's wall-clock deadline missed the bus and is discarded;
2. **salvage** — a :class:`~repro.errors.ConvergenceError` carrying a
   feasible ``partial`` edge set (the auction solver populates one) is
   accepted as a degraded result instead of burning a retry;
3. **retries** — the primary solver is re-run with escalating
   iteration budgets (``budget_scale**attempt``) and deterministic
   seeded backoff jitter between attempts;
4. **fallback chain** — once retries are exhausted, strictly more
   conservative solvers are tried in order (one attempt each), ending
   at a tier that essentially cannot fail.

Every solve produces a :class:`SolveReport` saying which tier actually
delivered, how many attempts failed first, and how long the whole
stack took — degradation is recorded, never silent.  When every tier
fails, :class:`~repro.errors.ResilienceExhaustedError` carries the
whole attempt log.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass

from repro import obs
from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, get_solver, register_solver
from repro.errors import (
    ConvergenceError,
    DeadlineExceededError,
    InfeasibleError,
    ResilienceExhaustedError,
    SolverError,
    ValidationError,
)
from repro.resilience.policy import RetryPolicy, get_profile
from repro.utils.rng import SeedLike, derive_rng
from repro.utils.timer import Timer

#: Constructor argument names understood as iteration budgets; retries
#: escalate whichever of these the primary solver accepts.
BUDGET_KWARGS = ("max_rounds", "max_moves", "max_iterations", "max_passes")


@dataclass(frozen=True)
class SolveReport:
    """How one resilient solve actually went.

    ``tier`` is 0 when the primary produced the assignment and ``k``
    when the ``k``-th fallback did; ``solver_name`` names that tier.
    ``retries`` counts the failed attempts (all tiers) that preceded
    success.  ``salvaged`` marks a partial result recovered from a
    :class:`~repro.errors.ConvergenceError` rather than a clean solve.
    """

    solver_name: str
    tier: int
    retries: int
    wall_time: float
    salvaged: bool = False
    forced_failure: str | None = None


@register_solver("resilient")
class ResilientSolver(Solver):
    """Deadline + retry + fallback wrapper around a registered solver.

    Parameters
    ----------
    primary:
        Registered solver name (budget escalation re-instantiates it
        per retry) or a prebuilt :class:`Solver` instance (reused
        as-is on every attempt — no escalation).
    policy:
        A :class:`RetryPolicy`, a profile name, or ``None`` for the
        ``"default"`` profile.
    solver_kwargs:
        Constructor arguments for a name-based primary.
    fallback_chain:
        Overrides the policy's chain; entries equal to the primary are
        skipped (retrying the primary again is what retries are for).
    """

    def __init__(
        self,
        primary: str | Solver = "auction",
        policy: RetryPolicy | str | None = None,
        solver_kwargs: dict | None = None,
        fallback_chain: tuple[str, ...] | None = None,
    ) -> None:
        if policy is None:
            policy = get_profile("default")
        elif isinstance(policy, str):
            policy = get_profile(policy)
        self.policy = policy
        self._solver_kwargs = dict(solver_kwargs or {})
        if isinstance(primary, Solver):
            self._primary = primary
            self._primary_name = primary.name
            self._rebuild_primary = False
        else:
            self._primary = get_solver(primary, **self._solver_kwargs)
            self._primary_name = primary
            self._rebuild_primary = True
        chain = (
            fallback_chain
            if fallback_chain is not None
            else policy.fallback_chain
        )
        self._fallbacks: list[Solver] = [
            get_solver(name)
            for name in chain
            if name != self._primary_name
        ]
        self.last_report: SolveReport | None = None

    # -- Solver contract -------------------------------------------------

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        assignment, report = self.solve_resilient(problem, seed=seed)
        self.last_report = report
        # The registry contract tags assignments with the registered
        # name; the delivering tier stays visible in ``last_report``.
        return self._finish(problem, list(assignment.edges))

    def observe_round(
        self, problem: MBAProblem, assignment: Assignment
    ) -> None:
        """Keep every history-aware tier current, whichever delivered."""
        self._primary.observe_round(problem, assignment)
        for fallback in self._fallbacks:
            fallback.observe_round(problem, assignment)

    # -- the resilient stack ---------------------------------------------

    def solve_resilient(
        self,
        problem: MBAProblem,
        seed: SeedLike = None,
        forced_failure: str | None = None,
    ) -> tuple[Assignment, SolveReport]:
        """Run the full deadline/retry/fallback stack once.

        ``forced_failure`` (``"convergence"`` or ``"deadline"``) makes
        the first primary attempt fail that way — the hook fault
        injection uses to simulate an overloaded assignment service.
        """
        policy = self.policy
        problem.benefits  # a non-finite block raises here, not per attempt
        attempts: list[tuple[str, Exception]] = []
        with Timer() as total:
            outcome = self._run_tiers(
                problem, seed, forced_failure, attempts
            )
        if outcome is None:
            raise ResilienceExhaustedError(
                f"all {1 + policy.max_retries} primary attempt(s) and "
                f"{len(self._fallbacks)} fallback tier(s) failed for "
                f"solver {self._primary_name!r}: "
                + "; ".join(
                    f"{name}: {type(err).__name__}" for name, err in attempts
                ),
                attempts,
            )
        assignment, tier, tier_name, salvaged = outcome
        report = SolveReport(
            solver_name=tier_name,
            tier=tier,
            retries=len(attempts),
            wall_time=total.elapsed,
            salvaged=salvaged,
            forced_failure=forced_failure,
        )
        obs.count("resilience.solves")
        obs.count("resilience.failed_attempts", len(attempts))
        if tier > 0:
            obs.count("resilience.fallback_solves")
        if salvaged:
            obs.count("resilience.salvaged_solves")
        self.last_report = report
        return assignment, report

    def _run_tiers(
        self,
        problem: MBAProblem,
        seed: SeedLike,
        forced_failure: str | None,
        attempts: list[tuple[str, Exception]],
    ) -> tuple[Assignment, int, str, bool] | None:
        policy = self.policy
        for attempt in range(1 + policy.max_retries):
            if attempt > 0:
                delay = policy.backoff_delay(
                    attempt - 1, derive_rng(policy.seed, attempt)
                )
                if delay > 0:
                    time.sleep(delay)
            injected = forced_failure if attempt == 0 else None
            result = self._attempt(
                self._primary_instance(attempt),
                problem,
                seed,
                attempts,
                injected,
                tier=0,
                attempt_index=attempt,
            )
            if result is not None:
                assignment, salvaged = result
                return assignment, 0, self._primary_name, salvaged
        for tier, fallback in enumerate(self._fallbacks, start=1):
            result = self._attempt(
                fallback, problem, seed, attempts, None,
                tier=tier, attempt_index=0,
            )
            if result is not None:
                assignment, salvaged = result
                return assignment, tier, fallback.name, salvaged
        return None

    def _attempt(
        self,
        solver: Solver,
        problem: MBAProblem,
        seed: SeedLike,
        attempts: list[tuple[str, Exception]],
        injected: str | None,
        tier: int = 0,
        attempt_index: int = 0,
    ) -> tuple[Assignment, bool] | None:
        """One traced attempt; ``None`` means it failed (and was logged).

        The span carries the tier (0 = primary, k = k-th fallback),
        the retry index within the tier, and the outcome: ``ok``,
        ``salvaged``, or ``failed`` plus the failure's exception type
        (with a ``fault`` tag when the failure was injected).
        """
        before = len(attempts)
        with obs.span(
            "attempt",
            solver=solver.name,
            tier=tier,
            retry=attempt_index,
        ) as attempt_span:
            if injected is not None:
                attempt_span.tag(fault=injected)
            result = self._attempt_once(
                solver, problem, seed, attempts, injected
            )
            if result is not None:
                _assignment, salvaged = result
                attempt_span.tag(
                    outcome="salvaged" if salvaged else "ok"
                )
            else:
                failure = (
                    type(attempts[-1][1]).__name__
                    if len(attempts) > before
                    else "unknown"
                )
                attempt_span.tag(outcome="failed", error=failure)
        obs.count("resilience.attempts")
        return result

    def _attempt_once(
        self,
        solver: Solver,
        problem: MBAProblem,
        seed: SeedLike,
        attempts: list[tuple[str, Exception]],
        injected: str | None,
    ) -> tuple[Assignment, bool] | None:
        """One timed attempt; ``None`` means it failed (and was logged)."""
        policy = self.policy
        deadline = policy.deadline
        if injected == "deadline":
            budget = deadline if deadline is not None else 0.0
            attempts.append(
                (
                    solver.name,
                    DeadlineExceededError(
                        "injected deadline overrun", budget, budget
                    ),
                )
            )
            return None
        if injected == "convergence":
            attempts.append(
                (
                    solver.name,
                    ConvergenceError("injected convergence failure", 0),
                )
            )
            return None
        try:
            with Timer() as timer:
                assignment = solver.solve(problem, seed=seed)
        except InfeasibleError:
            # A property of the input, not a transient failure: no
            # retry or fallback can conjure a feasible edge.
            raise
        except ConvergenceError as error:
            salvage = self._salvage(solver, problem, error)
            if salvage is not None:
                return salvage, True
            attempts.append((solver.name, error))
            return None
        except SolverError as error:
            attempts.append((solver.name, error))
            return None
        except Exception as error:
            if not policy.contain_crashes:
                raise
            attempts.append((solver.name, error))
            return None
        if deadline is not None and timer.elapsed > deadline:
            attempts.append(
                (
                    solver.name,
                    DeadlineExceededError(
                        f"attempt took {timer.elapsed:.3f}s against a "
                        f"{deadline:.3f}s deadline",
                        timer.elapsed,
                        deadline,
                    ),
                )
            )
            return None
        return assignment, False

    def _salvage(
        self,
        solver: Solver,
        problem: MBAProblem,
        error: ConvergenceError,
    ) -> Assignment | None:
        """Best feasible partial carried by ``error``, validated."""
        if not self.policy.salvage_partials or error.partial is None:
            return None
        try:
            return Assignment(
                problem, list(error.partial), solver_name=solver.name
            )
        except ValidationError:
            # A malformed partial is worth less than a retry.
            return None

    def _primary_instance(self, attempt: int) -> Solver:
        """The primary, with its iteration budget escalated on retries.

        Only name-based primaries escalate: the solver is rebuilt with
        every budget-like constructor argument it accepts scaled by
        ``budget_scale**attempt``.  Instance primaries are reused
        untouched (we cannot know their constructor arguments).
        """
        if attempt == 0 or not self._rebuild_primary:
            return self._primary
        scale = self.policy.budget_scale**attempt
        kwargs = dict(self._solver_kwargs)
        parameters = inspect.signature(
            type(self._primary).__init__
        ).parameters
        for name, parameter in parameters.items():
            if name not in BUDGET_KWARGS:
                continue
            base = kwargs.get(name, parameter.default)
            if isinstance(base, bool) or not isinstance(base, int):
                continue
            kwargs[name] = max(1, int(base * scale))
        return get_solver(self._primary_name, **kwargs)
