"""Behavioural tests for every registered solver."""

import numpy as np
import pytest

from repro.benefit.mutual import LinearCombiner
from repro.core.problem import MBAProblem
from repro.core.solvers import SOLVER_REGISTRY, get_solver, list_solvers
from repro.datagen import uniform_market
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import UnknownSolverError, ValidationError

ALL_SOLVERS = sorted(SOLVER_REGISTRY)


class TestRegistry:
    def test_expected_solvers_present(self):
        expected = {
            "exact", "flow", "greedy", "local-search", "online-greedy",
            "online-two-phase", "quality-only", "worker-only", "random",
            "round-robin",
        }
        assert expected <= set(list_solvers())

    def test_unknown_name(self):
        with pytest.raises(UnknownSolverError):
            get_solver("nope")

    def test_kwargs_forwarded(self):
        solver = get_solver("online-two-phase", sample_fraction=0.3)
        assert solver.sample_fraction == 0.3

    def test_solver_names_match_registry_keys(self):
        for name, cls in SOLVER_REGISTRY.items():
            assert cls.name == name


@pytest.mark.parametrize("solver_name", ALL_SOLVERS)
class TestEverySolver:
    """Invariants every solver must satisfy on a generated instance."""

    @pytest.fixture
    def problem(self):
        market = generate_market(
            SyntheticConfig(
                n_workers=12, n_tasks=6, replication_choices=(1, 2),
                capacity_low=1, capacity_high=2,
            ),
            seed=5,
        )
        return MBAProblem(market, combiner=LinearCombiner(0.5))

    def test_returns_valid_assignment(self, solver_name, problem):
        assignment = get_solver(solver_name).solve(problem, seed=0)
        # Assignment.__init__ validates; reaching here means all
        # capacity/index constraints held.
        assert assignment.solver_name == solver_name

    def test_deterministic_given_seed(self, solver_name, problem):
        a = get_solver(solver_name).solve(problem, seed=3)
        b = get_solver(solver_name).solve(problem, seed=3)
        assert a.edges == b.edges

    def test_nonnegative_combined_value(self, solver_name, problem):
        """No solver should return a net-harmful assignment here."""
        assignment = get_solver(solver_name).solve(problem, seed=0)
        assert assignment.combined_total() >= -1e-9

    def test_respects_inactive_workers(self, solver_name):
        market = generate_market(
            SyntheticConfig(n_workers=10, n_tasks=5), seed=7
        )
        for index in (0, 3, 4):
            market.workers[index].active = False
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        assignment = get_solver(solver_name).solve(problem, seed=0)
        used = {i for i, _j in assignment.edges}
        assert used.isdisjoint({0, 3, 4})


class TestFlowOptimality:
    def test_flow_matches_exact_on_linear(self):
        """Flow solver is provably optimal for the linear combiner."""
        for seed in range(8):
            market = generate_market(
                SyntheticConfig(
                    n_workers=8, n_tasks=4, replication_choices=(1, 2),
                    capacity_low=1, capacity_high=2,
                ),
                seed=seed,
            )
            problem = MBAProblem(market, combiner=LinearCombiner(0.5))
            flow_value = get_solver("flow").solve(problem).combined_total()
            exact_value = get_solver("exact").solve(problem).combined_total()
            assert flow_value == pytest.approx(exact_value, abs=1e-7)

    def test_flow_beats_or_ties_everything_on_linear(self):
        market = generate_market(
            SyntheticConfig(n_workers=30, n_tasks=15), seed=11
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        flow_value = get_solver("flow").solve(problem, seed=0).combined_total()
        for solver_name in ALL_SOLVERS:
            if solver_name in ("flow", "exact"):
                continue
            value = (
                get_solver(solver_name).solve(problem, seed=0).combined_total()
            )
            assert value <= flow_value + 1e-7, solver_name

    def test_exact_for_problem_flag(self):
        from repro.benefit.mutual import NashCombiner
        from repro.core.solvers.flow import FlowSolver

        market = generate_market(
            SyntheticConfig(n_workers=5, n_tasks=3), seed=0
        )
        linear = MBAProblem(market, combiner=LinearCombiner(0.5))
        nash = MBAProblem(market, combiner=NashCombiner())
        assert FlowSolver.exact_for_problem(linear)
        assert not FlowSolver.exact_for_problem(nash)


class TestGreedyGuarantee:
    def test_greedy_at_least_half_of_exact_linear(self):
        """Matroid-intersection greedy bound, measured empirically."""
        for seed in range(10):
            market = generate_market(
                SyntheticConfig(
                    n_workers=8, n_tasks=4, replication_choices=(1, 2),
                    capacity_low=1, capacity_high=2,
                ),
                seed=100 + seed,
            )
            problem = MBAProblem(market, combiner=LinearCombiner(0.5))
            greedy_value = get_solver("greedy").solve(problem).combined_total()
            exact_value = get_solver("exact").solve(problem).combined_total()
            if exact_value > 1e-9:
                assert greedy_value >= 0.5 * exact_value - 1e-9

    def test_greedy_on_coverage_at_least_half_of_exact(self):
        from repro.core.objective import CoverageObjective

        factory = lambda p: CoverageObjective(p, lam=0.7)  # noqa: E731
        for seed in range(6):
            market = generate_market(
                SyntheticConfig(
                    n_workers=7, n_tasks=3, replication_choices=(2, 3),
                    capacity_low=1, capacity_high=2,
                ),
                seed=200 + seed,
            )
            problem = MBAProblem(market, combiner=LinearCombiner(0.5))
            greedy = get_solver("greedy", objective_factory=factory)
            exact = get_solver(
                "exact", objective_factory=factory, max_edges=60
            )
            objective = factory(problem)
            greedy_value = objective.value(
                list(greedy.solve(problem).edges)
            )
            exact_value = objective.value(list(exact.solve(problem).edges))
            if exact_value > 1e-9:
                assert greedy_value >= 0.5 * exact_value - 1e-9

    def test_min_gain_threshold(self):
        market = generate_market(
            SyntheticConfig(n_workers=10, n_tasks=5), seed=3
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        loose = get_solver("greedy").solve(problem)
        strict = get_solver("greedy", min_gain=10.0).solve(problem)
        assert len(strict) <= len(loose)
        for i, j in strict.edges:
            assert problem.benefits.combined[i, j] > 10.0


class TestLocalSearch:
    def test_never_worse_than_greedy(self):
        for seed in range(5):
            market = generate_market(
                SyntheticConfig(n_workers=10, n_tasks=5), seed=300 + seed
            )
            problem = MBAProblem(market, combiner=LinearCombiner(0.5))
            greedy_value = get_solver("greedy").solve(problem).combined_total()
            ls_value = (
                get_solver("local-search").solve(problem).combined_total()
            )
            assert ls_value >= greedy_value - 1e-9

    def test_improves_egalitarian(self):
        """On the min-combiner, local search should balance the sides."""
        from repro.benefit.mutual import EgalitarianCombiner

        market = generate_market(
            SyntheticConfig(n_workers=12, n_tasks=6), seed=9
        )
        problem = MBAProblem(market, combiner=EgalitarianCombiner())
        greedy_value = get_solver("greedy").solve(problem).combined_total()
        ls_value = get_solver("local-search").solve(problem).combined_total()
        assert ls_value >= greedy_value - 1e-9


class TestExactSolver:
    def test_refuses_large_instances(self):
        market = generate_market(
            SyntheticConfig(n_workers=50, n_tasks=50), seed=0
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        with pytest.raises(ValidationError, match="exact solver"):
            get_solver("exact").solve(problem)

    def test_refuses_a_search_over_its_node_budget(self):
        """72 candidate edges pass the edge guard, but task capacities
        up to 5 make the search tree far larger than the node budget."""
        problem = MBAProblem(uniform_market(12, 6, seed=0))
        with pytest.raises(ValidationError, match="search nodes"):
            get_solver("exact").solve(problem)

    def test_node_budget_counts_explored_nodes(self, monkeypatch):
        """The refusal comes from the node count, not the instance: a
        problem solved under the default budget is refused under a
        budget smaller than its search."""
        from repro.core.solvers import exact

        market = generate_market(
            SyntheticConfig(n_workers=6, n_tasks=3), seed=0
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        assert get_solver("exact").solve(problem).edges
        monkeypatch.setattr(exact, "MAX_NODES", 5)
        with pytest.raises(ValidationError, match="limited to 5 search"):
            get_solver("exact").solve(problem)

    def test_handles_all_negative_edges(self):
        """If nothing is beneficial the optimum is the empty assignment."""
        from repro.market.categories import CategoryTaxonomy
        from repro.market.market import LaborMarket
        from repro.market.task import Task
        from repro.market.worker import Worker

        taxonomy = CategoryTaxonomy.default(1)
        workers = [
            Worker(worker_id=0, skills=np.array([0.2]),
                   reservation_wage=50.0)
        ]
        tasks = [Task(task_id=0, category=0, payment=0.1)]
        market = LaborMarket(workers, tasks, taxonomy)
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        assignment = get_solver("exact").solve(problem)
        assert len(assignment) == 0
