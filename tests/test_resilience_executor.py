"""Tests for the resilient solver executor (``repro.resilience.executor``)."""

from __future__ import annotations

import time

import pytest

from repro.core.solvers import get_solver, list_solvers
from repro.core.solvers.base import SOLVER_REGISTRY, Solver, register_solver
from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    DeadlineExceededError,
    InfeasibleError,
    ResilienceExhaustedError,
    SolverError,
)
from repro.resilience import (
    RESILIENCE_PROFILES,
    ResilientSolver,
    RetryPolicy,
    get_profile,
)
from repro.utils.rng import derive_rng


class FlakySolver(Solver):
    """Fails its first ``failures`` solve calls, then delegates to greedy."""

    name = "flaky-stub"

    def __init__(self, failures: int, error: Exception | None = None):
        self.failures = failures
        self.calls = 0
        self.error = error
        self.observed = 0

    def solve(self, problem, seed=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error or ConvergenceError("still flaky", self.calls)
        return get_solver("greedy").solve(problem, seed=seed)

    def observe_round(self, problem, assignment):
        self.observed += 1


class SlowSolver(Solver):
    name = "slow-stub"

    def solve(self, problem, seed=None):
        time.sleep(0.02)
        return get_solver("greedy").solve(problem, seed=seed)


@pytest.fixture
def stub_registration():
    """Register stub solver classes for name-based lookup, then clean up."""
    added: list[str] = []

    def add(name: str, cls: type[Solver]) -> type[Solver]:
        register_solver(name)(cls)
        added.append(name)
        return cls

    yield add
    for name in added:
        SOLVER_REGISTRY.pop(name, None)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(budget_scale=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.5)

    def test_backoff_disabled_by_default(self):
        policy = RetryPolicy()
        assert policy.backoff_delay(0, derive_rng(0, 0)) == 0.0

    def test_backoff_escalates_and_is_deterministic(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, jitter=0.25
        )
        first = policy.backoff_delay(0, derive_rng(0, 0))
        again = policy.backoff_delay(0, derive_rng(0, 0))
        later = policy.backoff_delay(3, derive_rng(0, 3))
        assert first == again
        assert 0.075 <= first <= 0.125
        assert later > first

    def test_profiles(self):
        assert get_profile("failfast").max_retries == 0
        assert get_profile("no-fallback").fallback_chain == ()
        assert set(RESILIENCE_PROFILES) >= {"default", "failfast"}
        with pytest.raises(ConfigurationError):
            get_profile("heroic")


class TestRegistry:
    def test_resilient_is_lazily_registered(self):
        assert "resilient" in list_solvers()
        solver = get_solver("resilient", primary="greedy")
        assert isinstance(solver, ResilientSolver)

    def test_primary_excluded_from_fallbacks(self):
        solver = ResilientSolver(
            primary="greedy", fallback_chain=("greedy", "flow")
        )
        assert [f.name for f in solver._fallbacks] == ["flow"]


class TestResilientSolve:
    def test_healthy_primary_is_tier_zero(self, small_problem):
        solver = ResilientSolver(primary="greedy")
        assignment, report = solver.solve_resilient(small_problem, seed=0)
        assert len(assignment) > 0
        assert (report.tier, report.retries, report.salvaged) == (0, 0, False)
        assert report.solver_name == "greedy"
        assert report.wall_time >= 0.0
        assert solver.last_report is report

    def test_flaky_primary_recovers_via_retry(self, small_problem):
        flaky = FlakySolver(failures=2)
        solver = ResilientSolver(
            primary=flaky, policy=RetryPolicy(max_retries=2)
        )
        assignment, report = solver.solve_resilient(small_problem, seed=0)
        assert len(assignment) > 0
        assert report.tier == 0
        assert report.retries == 2
        assert flaky.calls == 3

    def test_fallback_chain_delivers_in_order(self, small_problem):
        flaky = FlakySolver(failures=99)
        solver = ResilientSolver(
            primary=flaky,
            policy=RetryPolicy(max_retries=1, salvage_partials=False),
        )
        assignment, report = solver.solve_resilient(small_problem, seed=0)
        assert len(assignment) > 0
        assert report.tier == 1
        assert report.solver_name == "flow"
        assert report.retries == 2  # both primary attempts failed

    def test_exhaustion_raises_with_attempt_log(self, small_problem):
        flaky = FlakySolver(failures=99, error=SolverError("boom"))
        solver = ResilientSolver(
            primary=flaky,
            policy=RetryPolicy(max_retries=1, fallback_chain=()),
        )
        with pytest.raises(ResilienceExhaustedError) as excinfo:
            solver.solve_resilient(small_problem, seed=0)
        attempts = excinfo.value.attempts
        assert len(attempts) == 2
        assert all(name == "flaky-stub" for name, _err in attempts)
        assert all(isinstance(err, SolverError) for _name, err in attempts)

    def test_partial_result_is_salvaged(self, small_problem):
        edges = list(get_solver("greedy").solve(small_problem, seed=0).edges)
        flaky = FlakySolver(
            failures=99,
            error=ConvergenceError("ran out", 10, partial=edges),
        )
        solver = ResilientSolver(primary=flaky)
        assignment, report = solver.solve_resilient(small_problem, seed=0)
        assert sorted(assignment.edges) == sorted(edges)
        assert report.salvaged
        assert report.tier == 0
        assert report.retries == 0  # salvage does not burn a retry

    def test_malformed_partial_is_rejected(self, small_problem):
        flaky = FlakySolver(
            failures=99,
            error=ConvergenceError("ran out", 10, partial=[(0, 9999)]),
        )
        solver = ResilientSolver(
            primary=flaky, policy=RetryPolicy(max_retries=0)
        )
        assignment, report = solver.solve_resilient(small_problem, seed=0)
        assert not report.salvaged
        assert report.tier == 1  # fell through to flow

    def test_salvage_can_be_disabled(self, small_problem):
        edges = list(get_solver("greedy").solve(small_problem, seed=0).edges)
        flaky = FlakySolver(
            failures=99,
            error=ConvergenceError("ran out", 10, partial=edges),
        )
        solver = ResilientSolver(
            primary=flaky,
            policy=RetryPolicy(max_retries=0, salvage_partials=False),
        )
        _assignment, report = solver.solve_resilient(small_problem, seed=0)
        assert not report.salvaged
        assert report.tier == 1

    def test_late_result_is_discarded(self, small_problem, stub_registration):
        # The fallback answers at once with one fixed edge, so it beats
        # the deadline on any host and its edges differ from the slow
        # primary's greedy result.
        fixed = [get_solver("greedy").solve(small_problem, seed=0).edges[0]]

        class FixedSolver(Solver):
            def solve(self, problem, seed=None):
                return self._finish(problem, fixed)

        stub_registration("fixed-stub", FixedSolver)
        solver = ResilientSolver(
            primary=SlowSolver(),
            policy=RetryPolicy(
                max_retries=0, deadline=0.001, fallback_chain=("fixed-stub",)
            ),
        )
        assignment, report = solver.solve_resilient(small_problem, seed=0)
        # The deadline applies to every tier, so the slow primary is
        # skipped and the fallback that beats the clock delivers.
        assert report.tier >= 1
        assert report.retries >= 1
        assert report.solver_name != "slow-stub"
        assert list(assignment.edges) == fixed

    def test_exhaustion_records_deadline_error(self, small_problem):
        solver = ResilientSolver(
            primary=SlowSolver(),
            policy=RetryPolicy(
                max_retries=0, deadline=0.001, fallback_chain=()
            ),
        )
        with pytest.raises(ResilienceExhaustedError) as excinfo:
            solver.solve_resilient(small_problem, seed=0)
        (_name, error), = excinfo.value.attempts
        assert isinstance(error, DeadlineExceededError)
        assert error.elapsed > error.deadline

    def test_forced_failure_burns_first_attempt_only(self, small_problem):
        solver = ResilientSolver(primary="greedy")
        assignment, report = solver.solve_resilient(
            small_problem, seed=0, forced_failure="convergence"
        )
        assert len(assignment) > 0
        assert report.tier == 0
        assert report.retries == 1
        assert report.forced_failure == "convergence"

    def test_forced_deadline_failure(self, small_problem):
        solver = ResilientSolver(primary="greedy")
        _assignment, report = solver.solve_resilient(
            small_problem, seed=0, forced_failure="deadline"
        )
        assert report.retries == 1
        assert report.forced_failure == "deadline"

    def test_infeasible_propagates_immediately(self, small_problem):
        flaky = FlakySolver(failures=99, error=InfeasibleError("no edges"))
        solver = ResilientSolver(primary=flaky)
        with pytest.raises(InfeasibleError):
            solver.solve_resilient(small_problem, seed=0)
        assert flaky.calls == 1  # no retry can fix an infeasible input

    def test_crash_containment_on_and_off(self, small_problem):
        contained = ResilientSolver(
            primary=FlakySolver(failures=99, error=RuntimeError("bug")),
            policy=RetryPolicy(max_retries=0),
        )
        _assignment, report = contained.solve_resilient(
            small_problem, seed=0
        )
        assert report.tier == 1
        strict = ResilientSolver(
            primary=FlakySolver(failures=99, error=RuntimeError("bug")),
            policy=RetryPolicy(max_retries=0, contain_crashes=False),
        )
        with pytest.raises(RuntimeError):
            strict.solve_resilient(small_problem, seed=0)

    def test_budget_escalation_rebuilds_primary(
        self, small_problem, stub_registration
    ):
        class BudgetedStub(Solver):
            """Succeeds only once its iteration budget is big enough."""

            def __init__(self, max_rounds: int = 2):
                self.max_rounds = max_rounds

            def solve(self, problem, seed=None):
                if self.max_rounds < 8:
                    raise ConvergenceError("budget too small", self.max_rounds)
                return get_solver("greedy").solve(problem, seed=seed)

        stub_registration("budgeted-stub", BudgetedStub)
        solver = ResilientSolver(
            primary="budgeted-stub",
            policy=RetryPolicy(max_retries=2, budget_scale=4.0),
        )
        assignment, report = solver.solve_resilient(small_problem, seed=0)
        assert len(assignment) > 0
        assert report.tier == 0
        assert report.retries == 1  # 2 -> 8 on the first escalation

    def test_solve_matches_solve_resilient(self, small_problem):
        via_solve = ResilientSolver(primary="greedy").solve(
            small_problem, seed=0
        )
        via_resilient, _report = ResilientSolver(
            primary="greedy"
        ).solve_resilient(small_problem, seed=0)
        assert sorted(via_solve.edges) == sorted(via_resilient.edges)

    def test_deterministic_across_runs(self, small_problem):
        runs = [
            ResilientSolver(primary="auction")
            .solve_resilient(small_problem, seed=7)[0]
            .edges
            for _ in range(2)
        ]
        assert sorted(runs[0]) == sorted(runs[1])

    def test_observe_round_reaches_every_tier(self, small_problem):
        flaky = FlakySolver(failures=0)
        solver = ResilientSolver(primary=flaky)
        assignment, _report = solver.solve_resilient(small_problem, seed=0)
        solver.observe_round(small_problem, assignment)
        assert flaky.observed == 1
