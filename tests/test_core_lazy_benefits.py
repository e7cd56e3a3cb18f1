"""Benefit matrices built on first read, and accounting at the edges.

An :class:`MBAProblem` over a market builds its full benefit matrices
only when ``problem.benefits`` is read.  An assignment is accounted
from the problem's edge values: gathered from the matrices when they
are built, evaluated on the assigned block when they are not.  Both
must give the same totals, bit for bit.
"""

import numpy as np
import pytest

from repro import obs
from repro.benefit import (
    EgalitarianCombiner,
    LinearCombiner,
    NashCombiner,
    NetRewardBenefit,
    NormalizedBenefit,
    QualityGainBenefit,
)
from repro.benefit.base import BenefitModel
from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.crowd import BetaSkillEstimator
from repro.datagen import amt_like_market, uniform_market
from repro.errors import ValidationError
from repro.market.drift import SkillDriftModel
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario

MARKETS = {
    "amt-like": lambda seed: amt_like_market(40, 20, seed=seed),
    "synthetic-uniform": lambda seed: uniform_market(40, 20, seed=seed),
}
COMBINERS = {
    "linear": lambda: LinearCombiner(0.3),
    "nash": NashCombiner,
    "egalitarian": EgalitarianCombiner,
}


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    obs.disable()
    yield
    obs.disable()


def _totals(assignment: Assignment):
    return (
        assignment.requester_total(),
        assignment.worker_total(),
        assignment.combined_total(),
        assignment.per_worker_benefit(),
    )


class TestEdgeAccounting:
    @pytest.mark.parametrize("market_name", sorted(MARKETS))
    @pytest.mark.parametrize("combiner_name", sorted(COMBINERS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_totals_equal_the_built_matrices_bit_for_bit(
        self, market_name, combiner_name, seed
    ):
        market = MARKETS[market_name](seed)
        combiner = COMBINERS[combiner_name]()
        built = MBAProblem(market, combiner=combiner)
        edges = list(get_solver("greedy").solve(built, seed=0).edges)
        assert edges
        fresh = MBAProblem(market, combiner=combiner)
        assert _totals(Assignment(fresh, edges)) == _totals(
            Assignment(built, edges)
        )
        assert "benefits" not in fresh.__dict__

    @pytest.mark.parametrize("seed", [0, 1])
    def test_whole_market_models_take_the_full_build(self, seed):
        market = amt_like_market(40, 20, seed=seed)
        models = dict(
            requester_model=NormalizedBenefit(QualityGainBenefit()),
            worker_model=NormalizedBenefit(NetRewardBenefit(), "mean-pos"),
        )
        built = MBAProblem(market, **models)
        edges = list(get_solver("greedy").solve(built, seed=0).edges)
        with obs.tracing() as tracer:
            fresh = MBAProblem(market, **models)
            totals = _totals(Assignment(fresh, edges))
        assert totals == _totals(Assignment(built, edges))
        # Built once, at construction, from the whole market.
        assert tracer.metrics.counters["benefit.matrix_builds"] == 1

    def test_accounting_builds_no_matrices(self):
        market = uniform_market(40, 20, seed=0)
        edges = list(
            get_solver("flow").solve(MBAProblem(market), seed=0).edges
        )
        fresh = MBAProblem(market)
        with obs.tracing() as tracer:
            _totals(Assignment(fresh, edges))
        assert "benefit.matrix_builds" not in tracer.metrics.counters

    def test_empty_assignment_totals_zero(self):
        fresh = MBAProblem(uniform_market(10, 5, seed=0))
        assert _totals(Assignment(fresh, [])) == (0.0, 0.0, 0.0, {})

    def test_non_finite_block_is_refused_like_a_full_build(self):
        class AllNaN(BenefitModel):
            def matrix(self, market) -> np.ndarray:
                return np.full_like(
                    QualityGainBenefit().matrix(market), np.nan
                )

        market = uniform_market(10, 5, seed=0)
        problem = MBAProblem(market, requester_model=AllNaN())
        with pytest.raises(ValidationError) as error:
            Assignment(problem, [(0, 0)]).requester_total()
        assert str(error.value) == "requester benefits must be finite"
        with pytest.raises(ValidationError) as error:
            problem.benefits
        assert str(error.value) == "requester benefits must be finite"


    def test_non_finite_entry_off_the_assigned_block_goes_unseen(self):
        """An accounted problem checks the block it evaluates; the
        rest of the market is checked when ``benefits`` is read."""

        class NaNOnDearestTask(BenefitModel):
            def matrix(self, market) -> np.ndarray:
                payments = market.task_payments()
                return np.where(
                    payments == DEAREST,
                    np.nan,
                    QualityGainBenefit().matrix(market),
                )

        market = uniform_market(10, 5, seed=0)
        DEAREST = market.task_payments().max()
        dearest = int(market.task_payments().argmax())
        edges = [(j, j) for j in range(market.n_tasks) if j != dearest]
        problem = MBAProblem(market, requester_model=NaNOnDearestTask())
        assert np.isfinite(Assignment(problem, edges).requester_total())
        with pytest.raises(ValidationError, match="must be finite"):
            problem.benefits


class TestMarketSnapshot:
    """A problem describes the market as it was when it was stated."""

    def test_later_skill_changes_do_not_reach_the_problem(self):
        market = uniform_market(40, 20, seed=0)
        eager = MBAProblem(market)
        eager.benefits
        edges = list(get_solver("greedy").solve(eager, seed=0).edges)
        accounted, built = MBAProblem(market), MBAProblem(market)
        for worker in market.workers:
            worker.skills[:] = 0.5
        assert _totals(Assignment(accounted, edges)) == _totals(
            Assignment(eager, edges)
        )
        assert np.array_equal(built.benefits.combined, eager.benefits.combined)

    def test_drift_after_the_round_leaves_its_benefits_alone(
        self, monkeypatch
    ):
        """With an estimator, drift and no retention, nothing reads the
        true-skill problem's values before drift mutates the skills;
        the round's benefits must still be those of the skills it was
        planned and realized on."""
        import repro.sim.engine as engine

        def run():
            scenario = Scenario(
                market=amt_like_market(30, 15, seed=0),
                solver_name="greedy",
                n_rounds=3,
                retention=None,
                estimator=BetaSkillEstimator(),
                drift=SkillDriftModel(learning_rate=0.5, decay_rate=0.3),
            )
            return [
                (
                    r.requester_benefit,
                    r.worker_benefit,
                    r.combined_benefit,
                    r.benefit_gini,
                )
                for r in Simulation(scenario).run(seed=0).rounds
            ]

        lazy = run()

        class EagerProblem(MBAProblem):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.benefits

        monkeypatch.setattr(engine, "MBAProblem", EagerProblem)
        assert lazy == run()


class TestBuildCount:
    """Round after round the planning problem takes over the previous
    round's matrices and re-evaluates only the rows whose worker moved
    (``MBAProblem.succeed``); the true-skill problem of a round planned
    on estimates is accounted at its assigned edges and never built."""

    def _run(self, estimator, drift=None):
        scenario = Scenario(
            market=amt_like_market(30, 15, seed=0),
            solver_name="greedy",
            n_rounds=3,
            retention=None,
            estimator=estimator,
            drift=drift,
        )
        with obs.tracing() as tracer:
            Simulation(scenario).run(seed=0)
        counters = tracer.metrics.counters
        return (
            counters["benefit.matrix_builds"],
            counters.get("benefit.rows_rebuilt"),
        )

    def test_one_build_then_the_moved_rows_with_an_estimator(self):
        # Rounds 1 and 2 re-evaluate the 57 of 2 x 30 rows whose
        # estimated skills moved.
        assert self._run(BetaSkillEstimator()) == (1, 57)

    def test_one_build_and_no_rows_without_an_estimator(self):
        assert self._run(None) == (1, 0)

    def test_drift_that_moves_every_row_builds_every_round(self):
        drift = SkillDriftModel(learning_rate=0.5, decay_rate=0.3)
        assert self._run(None, drift) == (3, None)
