"""Multi-round runs whose per-round results are pinned bit for bit.

Each scenario below plans several rounds in a row, so every round's
planning problem follows the one before it.  :func:`capture` runs one
and returns every round's :class:`RoundMetrics` fields but the wall
time (as ``repr`` strings, so ``nan`` compares equal and every float is
exact) and, for each round that solved, a digest of the planning
problem's three benefit matrices and one of the final assignment's
edges and their true-side values.

``tests/fixtures/succession_pins.json`` holds those results as recorded
by the implementation that built every round's matrices afresh; the
tests compare with ``==``.  Re-record (only when a result is meant to
change) with::

    PYTHONPATH=src python tests/succession_pins.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from repro.crowd import BetaSkillEstimator
from repro.datagen import amt_like_market
from repro.market.drift import SkillDriftModel
from repro.market.retention import RetentionModel
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.spec import compile_spec

FIXTURE = Path(__file__).resolve().parent / "fixtures" / "succession_pins.json"

#: The ``batch_large`` benchmark workload at its smoke size.
BATCH_LARGE_SMALL = {
    "schema": "repro-spec/1",
    "market": {
        "workload": "amt-like", "workers": 300, "tasks": 160, "seed": 0,
    },
    "scenario": {
        "solver": "pruned-greedy",
        "solver_kwargs": {"k": 30},
        "lam": 0.5,
        "n_rounds": 3,
        "aggregator": "dawid-skene",
    },
    "estimator": {"enabled": True},
}


def _repriced_tasks(market):
    """A ``task_refresh`` that reprices every task each round, so no
    two rounds share their task arrays."""

    def refresh(round_index: int) -> list:
        return [
            dataclasses.replace(
                task, payment=task.payment * (1.0 + 0.05 * round_index)
            )
            for task in market.tasks
        ]

    return refresh


def _scenario(name: str) -> Scenario:
    if name == "batch_large_small":
        return compile_spec(BATCH_LARGE_SMALL)
    market = amt_like_market(60, 30, seed=1)
    base = dict(market=market, solver_name="greedy", n_rounds=4)
    drift = SkillDriftModel(learning_rate=0.5, decay_rate=0.3)
    if name == "estimator_drift":
        return Scenario(
            **base, retention=None, estimator=BetaSkillEstimator(),
            drift=drift,
        )
    if name == "drift_every_row":
        return Scenario(**base, retention=None, drift=drift)
    if name == "retention_no_estimator":
        return Scenario(
            market=market, solver_name="greedy", n_rounds=6,
            retention=RetentionModel(),
        )
    if name == "task_refresh":
        return Scenario(
            **base, retention=RetentionModel(),
            estimator=BetaSkillEstimator(),
            task_refresh=_repriced_tasks(market),
        )
    if name == "warm":
        return Scenario(
            market=market, solver_name="warm", n_rounds=5,
            retention=RetentionModel(), estimator=BetaSkillEstimator(),
        )
    if name == "warm_replay":
        # Nothing moves between rounds: every round after the first
        # replays the recorded solve.
        return Scenario(
            market=market, solver_name="warm", n_rounds=3, retention=None,
        )
    if name == "incremental_flow":
        return Scenario(
            market=market, solver_name="incremental-flow", n_rounds=5,
            retention=RetentionModel(), estimator=BetaSkillEstimator(),
        )
    raise KeyError(name)


SCENARIOS = (
    "batch_large_small",
    "estimator_drift",
    "drift_every_row",
    "retention_no_estimator",
    "task_refresh",
    "warm",
    "warm_replay",
    "incremental_flow",
)


def _digest(*arrays: np.ndarray) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array).data)
    return digest.hexdigest()


def capture(name: str) -> dict[str, list]:
    """Run scenario ``name`` at seed 0: its rounds' metrics, and the
    benefit and edge digests of each round that solved, in order."""
    planned: list[str] = []
    realized: list[str] = []
    solve_round = Simulation._solve_round
    apply_retention = Simulation._apply_retention

    def recording_solve(self, solver, problem, rng, faults):
        out = solve_round(self, solver, problem, rng, faults)
        benefits = problem.benefits
        planned.append(
            _digest(benefits.requester, benefits.worker, benefits.combined)
        )
        return out

    def recording_retention(retention, market, assignment, rng):
        edges = np.array(assignment.edges, dtype=np.int64).reshape(-1, 2)
        realized.append(_digest(edges, *assignment.edge_values))
        return apply_retention(retention, market, assignment, rng)

    Simulation._solve_round = recording_solve
    Simulation._apply_retention = staticmethod(recording_retention)
    try:
        result = Simulation(_scenario(name)).run(seed=0)
    finally:
        Simulation._solve_round = solve_round
        Simulation._apply_retention = staticmethod(apply_retention)
    rounds = []
    for metrics in result.rounds:
        fields = dataclasses.asdict(metrics)
        fields.pop("solver_wall_time")
        rounds.append({key: repr(value) for key, value in fields.items()})
    return {"rounds": rounds, "benefits": planned, "edges": realized}


def main() -> None:
    pins = {name: capture(name) for name in SCENARIOS}
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
