"""Property tests for the warm-start solver wrapper.

The contract under test: in exact mode a warm-started sequence of
solves is *bit-identical* to solving cold every round (replay only
fires on identical problems), and in approximate mode the warm kernels
land on the same objective as their cold counterparts while reusing
dual state.  The state must also survive simulation checkpoints.
"""

from __future__ import annotations

import math

import pytest

from repro.benefit.mutual import LinearCombiner
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.core.solvers.state import WarmState
from repro.core.solvers.warm import SUPPORTED_BASES, WarmStartSolver
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario


def _problem(seed: int = 11, **config):
    config.setdefault("n_workers", 20)
    config.setdefault("n_tasks", 10)
    market = generate_market(SyntheticConfig(**config), seed=seed)
    return MBAProblem(market, combiner=LinearCombiner(0.5))


def _comparable(rounds):
    out = []
    for r in rounds:
        d = dict(r.__dict__)
        d.pop("solver_wall_time", None)
        out.append(d)
    return out


def _assert_rounds_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(_comparable(a), _comparable(b)):
        assert x.keys() == y.keys()
        for key in x:
            vx, vy = x[key], y[key]
            if isinstance(vx, float) and math.isnan(vx):
                assert math.isnan(vy), key
            else:
                assert vx == vy, (key, vx, vy)


class TestReplayTier:
    def test_identical_problem_replays_bit_identically(self):
        problem = _problem()
        warm = get_solver("warm", base="pruned-greedy")
        first = warm.solve(problem, seed=0)
        assert warm.last_warm_outcome == "cold"
        second = warm.solve(problem, seed=0)
        assert warm.last_warm_outcome == "replay"
        assert second.edges == first.edges
        assert warm.warm_state.replays == 1
        assert warm.warm_state.cold_solves == 1

    def test_equal_content_different_instance_still_replays(self):
        warm = get_solver("warm", base="pruned-greedy")
        first = warm.solve(_problem(seed=11), seed=0)
        # A distinct problem object with identical content fingerprints
        # the same, so the replay tier must still fire.
        second = warm.solve(_problem(seed=11), seed=0)
        assert warm.last_warm_outcome == "replay"
        assert second.edges == first.edges

    def test_changed_problem_does_not_replay(self):
        warm = get_solver("warm", base="pruned-greedy")
        warm.solve(_problem(seed=11), seed=0)
        warm.solve(_problem(seed=12), seed=0)
        assert warm.last_warm_outcome == "cold"
        assert warm.warm_state.replays == 0


class TestExactModeBitIdentity:
    @pytest.mark.parametrize("base", ["pruned-greedy", "auction"])
    def test_exact_warm_matches_cold_across_churn(self, base):
        # Every round the matrix changes (fresh seed), so exact mode
        # must cold-solve each time and match a fresh base solver.
        warm = get_solver("warm", base=base, exact=True)
        for seed in (21, 22, 23, 24):
            problem = _problem(seed=seed)
            warm_edges = warm.solve(problem, seed=0).edges
            if base == "auction":
                cold_edges = get_solver("auction").solve(
                    problem, seed=0
                ).edges
            else:
                cold_edges = get_solver(base).solve(problem, seed=0).edges
            assert warm_edges == cold_edges
            assert warm.last_warm_outcome == "cold"


class TestWarmKernels:
    def test_warm_auction_matches_cold_objective(self):
        warm = get_solver(
            "warm", base="auction", exact=False, churn_threshold=1.0
        )
        warm.solve(_problem(seed=31), seed=0)
        # Same entity ids (sequential), new matrix: churn 0, warm path.
        problem = _problem(seed=32)
        total = warm.solve(problem, seed=0).combined_total()
        assert warm.last_warm_outcome == "warm"
        cold_total = get_solver("auction").solve(
            problem, seed=0
        ).combined_total()
        assert total == pytest.approx(cold_total, rel=0.02, abs=1e-9)

    def test_churn_threshold_gates_warm_kernel(self):
        warm = get_solver(
            "warm", base="auction", exact=False, churn_threshold=0.0
        )
        warm.solve(_problem(seed=31, n_workers=20, n_tasks=10), seed=0)
        # Doubling the market leaves half the ids unseen: churn 0.5
        # exceeds the zero threshold, so this must cold-solve.
        warm.solve(_problem(seed=32, n_workers=40, n_tasks=20), seed=0)
        assert warm.last_warm_outcome == "cold"


class TestStateInjection:
    def test_carries_warm_state_contract(self):
        assert WarmStartSolver.carries_warm_state is True

    def test_injected_state_is_used_verbatim(self):
        problem = _problem()
        donor = get_solver("warm", base="pruned-greedy")
        first = donor.solve(problem, seed=0)
        recipient = get_solver(
            "warm", base="pruned-greedy", warm_state=donor.warm_state
        )
        assert recipient.warm_state is donor.warm_state
        replayed = recipient.solve(problem, seed=0)
        assert recipient.last_warm_outcome == "replay"
        assert replayed.edges == first.edges

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            WarmStartSolver(base="resilient")
        with pytest.raises(ValidationError):
            WarmStartSolver(churn_threshold=1.5)
        assert "sharded" in SUPPORTED_BASES

    def test_fresh_state_by_default(self):
        a = WarmStartSolver(base="pruned-greedy")
        b = WarmStartSolver(base="pruned-greedy")
        assert isinstance(a.warm_state, WarmState)
        assert a.warm_state is not b.warm_state


class TestCheckpointRideAlong:
    def test_resumed_run_replays_like_uninterrupted(self, tmp_path):
        market = generate_market(
            SyntheticConfig(n_workers=12, n_tasks=8), seed=1
        )

        def scenario(n_rounds):
            return Scenario(
                market=market,
                solver_name="warm",
                solver_kwargs={"base": "pruned-greedy"},
                n_rounds=n_rounds,
            )

        straight = Simulation(scenario(6)).run(seed=42)

        ckpt = tmp_path / "ckpt"
        Simulation(scenario(3)).run(seed=42, checkpoint=ckpt)
        resumed = Simulation(scenario(6)).run(
            seed=42, checkpoint=ckpt, resume=True
        )
        # The WarmState pickles inside the engine snapshot, so the
        # resumed tail must replay/cold-solve exactly as the
        # uninterrupted run did — bit-identical round metrics.
        _assert_rounds_equal(straight.rounds, resumed.rounds)
