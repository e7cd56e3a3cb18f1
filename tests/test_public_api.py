"""The public API surface: imports, exports, and the documented flow."""

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_present(self):
        assert repro.__version__

    def test_solver_registry_nonempty(self):
        names = repro.list_solvers()
        assert "flow" in names
        assert "greedy" in names
        assert "stable-matching" in names
        assert "auction" in names

    def test_subpackage_exports(self):
        from repro.crowd import BetaSkillEstimator, two_coin_dawid_skene
        from repro.core import BudgetConstraint, ConstrainedGreedySolver
        from repro.stream import StreamDispatcher
        from repro.eval import Table

        assert BetaSkillEstimator and two_coin_dawid_skene
        assert BudgetConstraint and ConstrainedGreedySolver
        assert StreamDispatcher and Table


class TestDocumentedFlow:
    def test_readme_quickstart_flow(self):
        market = repro.uniform_market(n_workers=30, n_tasks=12, seed=7)
        problem = repro.MBAProblem(
            market, combiner=repro.LinearCombiner(lam=0.5)
        )
        assignment = repro.get_solver("flow").solve(problem)
        assert len(assignment) > 0
        assert assignment.requester_total() > 0
        assert assignment.worker_total() > 0

    def test_simulation_flow(self):
        market = repro.uniform_market(20, 10, seed=1)
        scenario = repro.Scenario(market=market, n_rounds=2, retention=None)
        result = repro.Simulation(scenario).run(seed=0)
        assert len(result.rounds) == 2

    def test_errors_are_catchable_via_base(self):
        with pytest.raises(repro.ReproError):
            repro.CategoryTaxonomy([])
        with pytest.raises(repro.ReproError):
            repro.get_solver("not-a-solver")
