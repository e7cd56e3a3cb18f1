"""A round's problem takes over the previous round's benefit matrices.

:meth:`MBAProblem.succeed` names the problem a new one follows; on its
first read of ``benefits`` the new problem takes over the predecessor's
three matrices and re-evaluates only the rows whose worker moved, or
builds afresh when the two are not over the same tasks, worker count,
combiner and side models, or every row moved.  The results must equal
a fresh build bit for bit, the predecessor must never see the
successor's values, and multi-round runs must give the results the
engine gave when it built every round afresh
(``tests/succession_pins.py``).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.benefit import LinearCombiner, NetRewardBenefit
from repro.core.problem import MBAProblem
from repro.core.solvers.state import problem_fingerprint
from repro.crowd import BetaSkillEstimator
from repro.datagen import amt_like_market
from repro.market.market import LaborMarket
from repro.market.retention import RetentionModel
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from tests import succession_pins


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    obs.disable()
    yield
    obs.disable()


def _clone(market: LaborMarket) -> LaborMarket:
    """An independent copy of ``market``'s workers over its tasks."""
    workers = [
        w.clone(w.skills.copy(), w.interests.copy()) for w in market.workers
    ]
    return LaborMarket(
        workers, market.tasks, market.taxonomy, market.requesters
    )


def _moved(market: LaborMarket, rows=(1, 4, 7)) -> LaborMarket:
    """A copy of ``market`` whose workers ``rows`` have new skills."""
    moved = _clone(market)
    for i in rows:
        moved.workers[i].skills[:] = np.clip(
            moved.workers[i].skills + 0.1, 0.0, 1.0
        )
    return moved


def _matrices(problem: MBAProblem):
    benefits = problem.benefits
    return benefits.requester, benefits.worker, benefits.combined


def _assert_same_matrices(problem: MBAProblem, market: LaborMarket) -> None:
    fresh = MBAProblem(market, combiner=problem.combiner)
    for got, want in zip(_matrices(problem), _matrices(fresh)):
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def _succeed(old: MBAProblem, market: LaborMarket, **kwargs) -> MBAProblem:
    new = MBAProblem(market, **{"combiner": old.combiner, **kwargs})
    new.succeed(old)
    return new


def _counters(read) -> dict:
    with obs.tracing() as tracer:
        read()
    return tracer.metrics.counters


class TestHandOver:
    def test_moved_rows_are_re_evaluated_and_the_rest_carried_over(self):
        market = amt_like_market(40, 20, seed=0)
        old = MBAProblem(market, combiner=LinearCombiner(0.3))
        old.benefits
        later = _moved(market)
        new = _succeed(old, later)
        counters = _counters(lambda: new.benefits)
        assert counters["benefit.rows_rebuilt"] == 3
        assert "benefit.matrix_builds" not in counters
        _assert_same_matrices(new, later)

    @pytest.mark.parametrize("field", ["interests", "reservation_wage"])
    def test_interests_and_reservation_wages_move_a_row(self, field):
        market = amt_like_market(40, 20, seed=1)
        old = MBAProblem(market)
        old.benefits
        later = _clone(market)
        for i in (0, 5):
            worker = later.workers[i]
            if field == "interests":
                worker.interests[:] = 1.0 - worker.interests
            else:
                worker.reservation_wage += 0.5
        new = _succeed(old, later)
        counters = _counters(lambda: new.benefits)
        assert counters["benefit.rows_rebuilt"] == 2
        _assert_same_matrices(new, later)

    def test_nothing_moved_carries_every_row_over(self):
        market = amt_like_market(30, 15, seed=2)
        old = MBAProblem(market)
        old.benefits
        new = _succeed(old, _clone(market))
        counters = _counters(lambda: new.benefits)
        assert counters["benefit.rows_rebuilt"] == 0
        _assert_same_matrices(new, market)

    def test_the_predecessor_rebuilds_its_own_values(self):
        market = amt_like_market(40, 20, seed=3)
        old = MBAProblem(market)
        old.benefits
        mask = old.top_k_candidates(3)
        problem_fingerprint(old)
        later = _moved(market, rows=range(0, 40, 3))
        new = _succeed(old, later)
        new.benefits
        # The hand-over leaves nothing of the matrices behind.
        assert "benefits" not in old.__dict__
        assert old._candidate_masks == {}
        assert old._fingerprint is None
        fresh = MBAProblem(market)
        rows, cols = np.array([0, 3, 3, 9]), np.array([1, 0, 5, 2])
        for got, want in zip(
            old.edge_benefits(rows, cols), fresh.edge_benefits(rows, cols)
        ):
            assert np.array_equal(got, want)
        rebuilt = old.top_k_candidates(3)
        assert rebuilt is not mask
        assert np.array_equal(rebuilt, fresh.top_k_candidates(3))
        assert problem_fingerprint(old) == problem_fingerprint(fresh)
        _assert_same_matrices(old, market)
        # ... and the successor keeps what it took over.
        _assert_same_matrices(new, later)


class TestFreshBuild:
    """Every condition of the hand-over, broken one at a time."""

    @staticmethod
    def _repriced(market: LaborMarket) -> LaborMarket:
        tasks = [
            dataclasses.replace(task, payment=task.payment * 1.1)
            for task in market.tasks
        ]
        return LaborMarket(
            market.workers, tasks, market.taxonomy, market.requesters
        )

    @pytest.mark.parametrize(
        "change",
        ["payments", "worker_count", "combiner", "model", "every_row"],
    )
    def test_builds_afresh_and_releases_the_predecessor(self, change):
        market = amt_like_market(40, 20, seed=4)
        old = MBAProblem(market, combiner=LinearCombiner(0.5))
        old.benefits
        later, kwargs = market, {}
        if change == "payments":
            later = self._repriced(market)
        elif change == "worker_count":
            later = market.subset(worker_indices=range(39))
        elif change == "combiner":
            kwargs = {"combiner": LinearCombiner(0.5)}
        elif change == "model":
            kwargs = {"worker_model": NetRewardBenefit()}
        else:
            later = _moved(market, rows=range(40))
        new = _succeed(old, later, **kwargs)
        counters = _counters(lambda: new.benefits)
        assert counters["benefit.matrix_builds"] == 1
        assert "benefit.rows_rebuilt" not in counters
        assert "benefits" not in old.__dict__
        fresh = MBAProblem(later, **{"combiner": new.combiner, **kwargs})
        for got, want in zip(_matrices(new), _matrices(fresh)):
            assert np.array_equal(got, want)

    def test_a_predecessor_that_never_built_hands_nothing_over(self):
        market = amt_like_market(30, 15, seed=5)
        old = MBAProblem(market)
        new = _succeed(old, _moved(market))
        counters = _counters(lambda: new.benefits)
        assert counters["benefit.matrix_builds"] == 1

    def test_problems_over_given_matrices_are_left_alone(self):
        market = amt_like_market(30, 15, seed=6)
        built = MBAProblem(market)
        given = MBAProblem.from_benefits(
            built.benefits,
            built.worker_capacities(),
            built.task_capacities(),
        )
        new = MBAProblem(market)
        new.succeed(given)
        counters = _counters(lambda: new.benefits)
        assert counters["benefit.matrix_builds"] == 1
        assert given.benefits is built.benefits


class TestRecordedRuns:
    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(succession_pins.FIXTURE.read_text())

    @pytest.mark.parametrize("name", succession_pins.SCENARIOS)
    def test_rounds_equal_the_recorded_ones(self, name, recorded):
        assert succession_pins.capture(name) == recorded[name]

    def test_a_resumed_run_does_one_full_build(self, tmp_path):
        scenario = Scenario(
            market=amt_like_market(40, 20, seed=0),
            solver_name="greedy",
            n_rounds=2,
            retention=RetentionModel(),
            estimator=BetaSkillEstimator(),
        )
        Simulation(scenario).run(seed=0, checkpoint=tmp_path)
        longer = dataclasses.replace(scenario, n_rounds=4)
        with obs.tracing() as tracer:
            resumed = Simulation(longer).run(
                seed=0, checkpoint=tmp_path, resume=True
            )
        assert tracer.metrics.counters["benefit.matrix_builds"] == 1
        assert tracer.metrics.counters["benefit.rows_rebuilt"] > 0
        straight = Simulation(longer).run(seed=0)
        key = lambda r: dataclasses.replace(r, solver_wall_time=0.0)
        assert list(map(key, resumed.rounds)) == list(
            map(key, straight.rounds)
        )


class TestWorkerClone:
    def test_with_skills_gives_each_worker_its_own_row(self):
        market = amt_like_market(30, 15, seed=0)
        market.workers[3].active = False
        skills = np.full((30, len(market.taxonomy)), 0.7)
        estimated = market.with_skills(skills)
        for before, after, row in zip(
            market.workers, estimated.workers, skills
        ):
            assert np.array_equal(after.skills, row)
            # One copy per row, not views of one copied matrix.
            assert after.skills.base is None
            assert after.interests is before.interests
            assert (after.worker_id, after.capacity, after.active) == (
                before.worker_id, before.capacity, before.active,
            )
            assert after.reservation_wage == before.reservation_wage
        skills[0, 0] = 0.1
        assert estimated.workers[0].skills[0] == 0.7
        assert estimated.tasks == market.tasks
        assert estimated.requesters == market.requesters
        assert estimated.taxonomy is market.taxonomy
        assert estimated.active_worker_indices() == (
            market.active_worker_indices()
        )

    def test_clone_carries_every_field(self):
        worker = amt_like_market(5, 3, seed=0).workers[2]
        worker.active = False
        skills, interests = worker.skills.copy(), worker.interests.copy()
        clone = worker.clone(skills, interests)
        assert type(clone) is type(worker)
        assert clone.skills is skills and clone.interests is interests
        for field in dataclasses.fields(worker):
            assert np.array_equal(
                getattr(clone, field.name), getattr(worker, field.name)
            ), field.name
