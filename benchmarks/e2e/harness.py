"""The four end-to-end workloads: inputs, execution, outcomes, checks.

Every workload is a frozen spec under ``workloads/`` and goes through
the same public compile -> run path as the CLI: ``compile_spec`` then
``Simulation.run`` (like ``repro simulate``), ``compile_stream`` then
``StreamDispatcher.run`` with records written through a
``BatchWriter`` (like ``repro stream --output``), or ``compile_stream``
+ ``compile_slo`` with an installed ``TimeseriesStore`` and
``SloMonitor.run`` at the end (like ``repro monitor``).  The seed
replaces ``market.seed`` and the run seed; the library receives only
the compiled inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.spec as spec_api
from repro import obs
from repro.sim.engine import Simulation
from repro.stream import BatchWriter, StreamDispatcher

WORKLOAD_DIR = Path(__file__).with_name("workloads")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload and how it is driven.

    ``smoke`` holds knob overrides that shrink it to a few seconds for
    the smoke tests; the frozen spec holds the measured size.
    ``instances`` is how many distinct inputs one run covers: outcome
    metrics are averaged over them, so it is larger where one input's
    outcomes vary more from seed to seed and one execution is cheap.
    """

    name: str
    loop: str  # "batch" (closed, round after round) or "stream" (open)
    instances: int
    smoke: dict = field(default_factory=dict)
    #: Check round 0 against the b-matching LP optimum (exact solver).
    lp_oracle: bool = False
    #: Write every record through a BatchWriter, as ``repro stream
    #: --output`` does.
    writes_records: bool = False
    #: Run under the ``[slo]`` monitor, as ``repro monitor`` does.
    monitored: bool = False

    @property
    def spec_path(self) -> Path:
        return WORKLOAD_DIR / f"{self.name}.toml"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "batch_exact",
            "batch",
            10,
            smoke={"market.workers": 60, "market.tasks": 30},
            lp_oracle=True,
        ),
        Workload(
            "batch_large",
            "batch",
            8,
            smoke={"market.workers": 300, "market.tasks": 160},
        ),
        Workload(
            "stream_greedy",
            "stream",
            6,
            smoke={
                "market.workers": 2000,
                "market.tasks": 2000,
                "stream.task_rate": 8.0,
                "stream.worker_rate": 8.0,
            },
            writes_records=True,
        ),
        Workload(
            "stream_monitored",
            "stream",
            8,
            smoke={
                "market.workers": 600,
                "market.tasks": 600,
                "stream.task_rate": 2.4,
                "stream.worker_rate": 2.4,
            },
            monitored=True,
        ),
    )
}


def load_payload(workload: Workload, seed: int, smoke: bool) -> dict:
    """The frozen spec with the seed (and, for smoke, the sizes) set."""
    payload = spec_api.load_spec(workload.spec_path)
    overrides = {"market.seed": seed, "run.seed": seed}
    if smoke:
        overrides.update(workload.smoke)
    for knob, value in overrides.items():
        section, key = knob.split(".")
        payload.setdefault(section, {})[key] = value
    return payload


@dataclass
class Inputs:
    """Compiled program inputs (the product of set-up)."""

    seed: int
    scenario: object | None = None
    stream: object | None = None
    slo: tuple | None = None


def setup(workload: Workload, payload: dict) -> Inputs:
    """Compile the spec, market generation included."""
    seed = int(payload["run"]["seed"])
    if workload.loop == "batch":
        return Inputs(seed, scenario=spec_api.compile_spec(payload))
    return Inputs(
        seed,
        stream=spec_api.compile_stream(payload),
        slo=spec_api.compile_slo(payload) if workload.monitored else None,
    )


@dataclass
class Execution:
    """One run of a workload and what it produced."""

    result: object
    #: Stream runs: ``(simulated tick, wall clock)`` at the start of
    #: each tick that emitted a record, bracketed by run start and end.
    stamps: list[tuple[int, float]] = field(default_factory=list)

    def tick_seconds(self) -> list[float]:
        """Wall seconds spent per unit of simulated time, one per tick."""
        out: list[float] = []
        for (k1, t1), (k2, t2) in zip(self.stamps, self.stamps[1:]):
            if k2 > k1:
                out.extend([(t2 - t1) / (k2 - k1)] * (k2 - k1))
        return out


def execute(
    workload: Workload, inputs: Inputs, output: Path | None = None
) -> Execution:
    """Run the workload once on compiled inputs (the timed unit)."""
    if workload.loop == "batch":
        return Execution(Simulation(inputs.scenario).run(seed=inputs.seed))

    compiled = inputs.stream
    dispatcher = StreamDispatcher(
        compiled.market,
        compiled.config,
        combiner=compiled.combiner,
        scenario=compiled.scenario,
    )
    stamps: list[tuple[int, float]] = [(0, perf_counter())]
    current = 0
    writer = None

    def on_record(record) -> None:
        nonlocal current
        tick = int(record.time)
        if tick != current:
            current = tick
            stamps.append((tick, perf_counter()))
        if writer is not None:
            writer.write(record)

    if workload.writes_records:
        with BatchWriter(
            output, batch_size=compiled.config.writer_batch
        ) as writer:
            result = dispatcher.run(seed=inputs.seed, on_record=on_record)
    elif workload.monitored:
        rules, window = inputs.slo
        tracer = obs.Tracer()
        tracer.timeseries = obs.TimeseriesStore(window=window)
        with obs.tracing(tracer):
            result = dispatcher.run(seed=inputs.seed, on_record=on_record)
        obs.SloMonitor(rules, tracer.timeseries).run()
    else:
        result = dispatcher.run(seed=inputs.seed, on_record=on_record)
    stamps.append((math.ceil(result.end_time) + 1, perf_counter()))
    return Execution(result, stamps)


# -- outcome metrics --------------------------------------------------------


def objective(execution: Execution) -> float:
    """Total realized combined benefit of one execution."""
    result = execution.result
    if hasattr(result, "rounds"):
        return float(sum(r.combined_benefit for r in result.rounds))
    return float(result.combined_benefit)


def outcomes(
    workload: Workload, inputs: Inputs, execution: Execution
) -> dict[str, float]:
    """What the market achieved; deterministic for a given seed.

    Batch: total realized combined benefit, assigned edges over posted
    task slots, the engine's mean per-round participation and mean
    aggregated accuracy.  Stream: total combined benefit, assigned over
    posted tasks, the share of logged-in workers that got any work,
    the mean probability that an assigned worker answers their task
    correctly (no answers are simulated in the stream), and the p95
    time to assignment in simulated time units.
    """
    result = execution.result
    if workload.loop == "batch":
        rounds = result.rounds
        slots = len(rounds) * sum(
            task.replication for task in inputs.scenario.market.tasks
        )
        return {
            "objective": objective(execution),
            "fill_rate": sum(r.n_assigned_edges for r in rounds) / slots,
            "participation": result.mean_participation,
            "accuracy": result.mean_accuracy,
        }
    market = inputs.stream.market
    records = result.records
    accuracy = [
        market.workers[r.worker_index].accuracy_on(
            market.tasks[r.task_index].category,
            market.tasks[r.task_index].difficulty,
        )
        for r in records
    ]
    assigned_workers = {r.worker_index for r in records}
    return {
        "objective": objective(execution),
        "fill_rate": result.fill_rate,
        "participation": len(assigned_workers) / max(result.logins, 1),
        "accuracy": float(np.mean(accuracy)) if accuracy else 0.0,
        "wait_p95": result.latency_summary().get("p95", 0.0),
    }


# -- output checks ----------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """``observed`` must lie within ``tolerance`` of ``expected``.

    ``expected`` is ``None`` when the reference could not be computed
    (the LP oracle without scipy): the check is then unchecked, not
    passed.
    """

    name: str
    observed: float
    expected: float | None
    tolerance: float

    @property
    def status(self) -> str:
        if self.expected is None:
            return "unchecked"
        if abs(self.observed - self.expected) <= self.tolerance:
            return "pass"
        return "FAIL"

    def corrupted(self) -> "Check":
        """The same check against a deliberately wrong expected value."""
        expected = 0.0 if self.expected is None else self.expected
        return replace(
            self, expected=expected + self.tolerance + max(1.0, abs(expected))
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "observed": self.observed,
            "expected": self.expected,
            "tolerance": self.tolerance,
        }


def checks(
    workload: Workload,
    inputs: Inputs,
    execution: Execution,
    output: Path | None = None,
) -> list[Check]:
    """Verify one execution's outputs (run outside the timed region).

    The LP oracle of ``lp_oracle`` workloads is not among them: it
    imports scipy and builds a problem of its own, so it runs apart
    (:func:`lp_check`), after the run's memory has been read.
    """
    result = execution.result
    if workload.loop == "batch":
        return [_combiner_identity(inputs.scenario.combiner, result.rounds)]

    compiled = inputs.stream
    benefits = [r.benefit for r in result.records]
    scale = max(1.0, math.fsum(abs(b) for b in benefits))
    found = [
        Check(
            "posted_accounting",
            compiled.market.n_tasks,
            result.assignments + result.expired_tasks + result.dropped_tasks,
            0.0,
        ),
        Check(
            "objective_is_record_sum",
            result.combined_benefit,
            math.fsum(benefits),
            1e-9 * scale,
        ),
    ]
    if workload.writes_records:
        found.append(_edge_benefits(compiled, result.records, inputs.seed))
        with open(output, encoding="utf-8") as handle:
            lines = sum(1 for _ in handle)
        found.append(Check("jsonl_lines", lines, len(result.records), 0.0))
    return found


def _combiner_identity(combiner, rounds) -> Check:
    """combined = λ·requester + (1−λ)·worker in every round."""
    lam = combiner.lam
    deviation = max(
        abs(
            r.combined_benefit
            - (lam * r.requester_benefit + (1.0 - lam) * r.worker_benefit)
        )
        for r in rounds
    )
    scale = max(
        max(1.0, abs(r.requester_benefit), abs(r.worker_benefit))
        for r in rounds
    )
    return Check("combiner_identity", deviation, 0.0, 1e-9 * scale)


def lp_check(inputs: Inputs, round0_objective: float) -> Check:
    """Round 0's objective against the b-matching LP optimum."""
    return Check(
        "lp_optimum_round0", round0_objective, *_lp_optimum(inputs.scenario)
    )


def _lp_optimum(scenario) -> tuple[float | None, float]:
    """(optimum, tolerance) of the round-0 b-matching LP.

    The constraint matrix is totally unimodular, so the LP optimum is
    the integral max-weight b-matching value.  ``(None, 0.0)`` when
    scipy is not installed.
    """
    try:
        from scipy.optimize import linprog
        from scipy.sparse import coo_matrix
    except ImportError:
        return None, 0.0
    from repro.core.problem import MBAProblem

    problem = MBAProblem(scenario.market, combiner=scenario.combiner)
    combined = problem.benefits.combined
    caps_w = problem.worker_capacities()
    caps_t = problem.task_capacities()
    rows, cols = np.nonzero(
        (combined > 0) & (caps_w[:, None] > 0) & (caps_t[None, :] > 0)
    )
    if rows.size == 0:
        return 0.0, 1e-9
    edges = np.arange(rows.size)
    constraints = coo_matrix(
        (
            np.ones(2 * rows.size),
            (
                np.concatenate([rows, problem.n_workers + cols]),
                np.concatenate([edges, edges]),
            ),
        ),
        shape=(problem.n_workers + problem.n_tasks, rows.size),
    )
    solution = linprog(
        -combined[rows, cols],
        A_ub=constraints.tocsr(),
        b_ub=np.concatenate([caps_w, caps_t]).astype(float),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if solution.status != 0:
        raise RuntimeError(f"LP oracle failed: {solution.message}")
    optimum = float(-solution.fun)
    return optimum, 1e-6 * max(1.0, abs(optimum))


def _edge_benefits(compiled, records, seed: int) -> Check:
    """200 seeded sampled records against ``RowwiseBenefit.edge``."""
    from repro.benefit.rows import RowwiseBenefit

    rows = RowwiseBenefit(compiled.market, combiner=compiled.combiner)
    rng = np.random.default_rng(seed)
    sample = rng.choice(len(records), size=min(200, len(records)), replace=False)
    deviation = max(
        (
            abs(records[i].benefit - rows.edge(
                records[i].worker_index, records[i].task_index
            ))
            for i in sample
        ),
        default=0.0,
    )
    return Check("record_edge_benefits", deviation, 0.0, 1e-12)
