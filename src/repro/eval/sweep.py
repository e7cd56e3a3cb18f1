"""Parameter sweeps with repetition, timing, and run-level durability.

Sweeps are *restartable work*, not one-shot loops: with a checkpoint
directory every completed (parameter, repetition) point is persisted
atomically the moment it finishes, and ``resume=True`` skips the
recorded points bit-identically (each point's RNG is spawned up front
from the sweep seed, so values never depend on which process — or
which *run* — computed them).  With ``workers > 1`` the points execute
under :class:`repro.resilience.runtime.SupervisedPool`, which survives
worker crashes, hangs, and Ctrl-C; see ``docs/resilience.md``.

Pools never nest: a sweep worker that runs the sharded solver with
``parallel_workers`` set gets the serial in-process path, because
:class:`repro.core.solvers.sharded.ShardedSolver` detects it is
already inside a child process (``multiprocessing.parent_process()``)
and declines to spawn a second pool.  Shard parallelism is for
top-level solves; point parallelism belongs to the sweep.
"""

from __future__ import annotations

import json
import pickle
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.errors import ValidationError
from repro.resilience.faults import ChaosPlan
from repro.resilience.runtime import (
    CheckpointStore,
    RunStats,
    RuntimePolicy,
    SupervisedPool,
)
from repro.utils.rng import spawn_rngs
from repro.utils.timer import Timer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spec.lattice import Lattice


@dataclass(frozen=True)
class SweepPoint:
    """One (parameter value, repetition) measurement."""

    parameter: object
    repetition: int
    value: float
    elapsed: float


def _measure_point(
    args: tuple[
        Callable[[object, np.random.Generator], float],
        object,
        int,
        np.random.Generator,
        bool,
    ],
) -> tuple[SweepPoint, dict | None]:
    """Run one (parameter, repetition) measurement; top-level so
    process pools can pickle it.

    ``collect`` marks jobs dispatched *to a pool worker* while the
    parent had tracing on.  Such jobs run under a fresh local tracer
    whose spans and metric snapshot ride home with the result for the
    parent to merge — a fresh one explicitly, because ``fork``-method
    workers inherit the parent's active tracer as a useless copy.  In
    the parent (serial path) the active tracer records the span
    directly and the payload stays ``None``.
    """
    measure, parameter, repetition, rng, collect = args
    tracer = obs.enable() if collect else None
    try:
        with obs.span(
            "sweep.point", parameter=repr(parameter), repetition=repetition
        ):
            with Timer() as timer:
                value = measure(parameter, rng)
        obs.count("sweep.points")
    finally:
        if collect:
            obs.disable()
    point = SweepPoint(parameter, repetition, float(value), timer.elapsed)
    if tracer is None:
        return point, None
    return point, {
        "spans": [span.to_dict() for span in tracer.spans],
        "metrics": tracer.metrics.snapshot(),
        # Windowed telemetry scraped inside the worker (e.g. by the
        # engine's per-round scrape); None when the measure recorded
        # none.  The parent folds it into its own store on adoption.
        "timeseries": (
            tracer.timeseries.to_dict()
            if tracer.timeseries is not None
            else None
        ),
    }


def _check_picklable(measure: Callable, workers: int) -> None:
    """Fail fast — with an actionable message — on unpicklable sweeps.

    Process pools pickle every job, and under the ``spawn`` start
    method (the macOS/Windows default) the worker re-imports the
    callable's module from scratch; a lambda or closure fails either
    way, but mid-run and with an opaque ``PicklingError``.  Checking up
    front turns that into an immediate :class:`ValidationError`.
    """
    try:
        pickle.dumps(measure)
    except (pickle.PicklingError, TypeError, AttributeError) as error:
        raise ValidationError(
            f"measure must be picklable to sweep with workers={workers}: "
            "pass a module-level function (not a lambda or closure) whose "
            f"module is importable in worker processes ({error})"
        ) from None


@dataclass(frozen=True)
class SweepOutcome:
    """The full result of a durable sweep run.

    ``points`` holds the completed measurements in canonical job order
    (parameter-major, repetition-minor); quarantined or interrupted
    points are simply absent.  ``stats`` is the supervision ledger —
    check ``stats.interrupted`` and ``stats.quarantined`` before
    treating the sweep as complete.
    """

    points: list[SweepPoint]
    stats: RunStats
    checkpoint_dir: Path | None = None

    @property
    def complete(self) -> bool:
        return not self.stats.interrupted and not self.stats.quarantined


def _point_key(parameter: object, repetition: int) -> str:
    """Checkpoint key for one (parameter, repetition) measurement."""
    return CheckpointStore.key_for(
        ["sweep-point", repr(parameter), int(repetition)]
    )


def _point_record(position: int, point: SweepPoint) -> dict:
    return {
        "position": position,
        "parameter": repr(point.parameter),
        "repetition": point.repetition,
        "value": point.value,
        "elapsed": point.elapsed,
    }


def run_sweep(
    parameter_values: Sequence[object],
    measure: Callable[[object, np.random.Generator], float],
    repetitions: int = 3,
    seed: int | None = 0,
    workers: int = 1,
    mp_context: str | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    policy: RuntimePolicy | None = None,
    chaos: ChaosPlan | None = None,
) -> SweepOutcome:
    """Measure a function over parameter values, durably.

    ``measure(parameter, rng)`` returns the metric; each (parameter,
    repetition) pair gets an independent RNG derived from ``seed``.
    All generators are spawned up front, so measured *values* are
    bit-identical across worker counts, scheduling orders, retries,
    and checkpoint resumes; only ``elapsed`` timings vary.

    ``checkpoint`` names a :class:`CheckpointStore` directory: every
    completed point is recorded atomically as it finishes, keyed by
    the content id of its ``(parameter repr, repetition)`` identity,
    and the store's manifest fingerprints the whole sweep
    configuration (a mismatched directory is refused).  ``resume=True``
    loads the recorded points and computes only the rest.  Checkpoint
    identity relies on ``repr(parameter)`` being stable across runs —
    true for strings, numbers, and the canonical-JSON parameters of
    :func:`sweep_spec`.

    ``workers > 1`` runs the points under a supervised process pool
    (timeouts, seeded-backoff retries, broken-pool recovery, poison
    quarantine — see :class:`RuntimePolicy`), optionally sabotaged by
    a seeded :class:`ChaosPlan` for durability testing.  ``measure``
    must be picklable — a module-level function, not a lambda or
    closure — and its module importable in a fresh interpreter;
    violations fail fast with a :class:`ValidationError`.

    ``KeyboardInterrupt``/SIGTERM do not propagate: workers are torn
    down, the completed points are returned, and
    ``stats.interrupted`` is set — with a checkpoint directory the
    interrupted run resumes exactly where it stopped.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if resume and checkpoint is None:
        raise ValidationError(
            "resume=True needs a checkpoint directory to resume from"
        )
    if chaos is not None and workers == 1:
        raise ValidationError(
            "chaos injection sabotages pool workers; it needs "
            "workers > 1"
        )
    if workers > 1:
        _check_picklable(measure, workers)
    context = None
    if mp_context is not None:
        import multiprocessing

        try:
            context = multiprocessing.get_context(mp_context)
        except ValueError:
            raise ValidationError(
                f"unknown multiprocessing context {mp_context!r}; "
                "expected 'fork', 'spawn', or 'forkserver'"
            ) from None
    collect = obs.enabled() and workers > 1
    rngs = spawn_rngs(seed, len(parameter_values) * repetitions)
    identities = [
        (parameter, repetition)
        for parameter in parameter_values
        for repetition in range(repetitions)
    ]
    jobs = [
        (measure, parameter, repetition, rngs[position], collect)
        for position, (parameter, repetition) in enumerate(identities)
    ]
    store = None
    done: dict[int, SweepPoint] = {}
    if checkpoint is not None:
        store = CheckpointStore(
            checkpoint,
            {
                "kind": "sweep",
                "measure": f"{measure.__module__}.{measure.__qualname__}",
                "parameters": [repr(p) for p in parameter_values],
                "repetitions": repetitions,
                "seed": seed,
            },
        )
        if resume:
            with obs.span("runtime.resume", kind="sweep") as span:
                for position, (parameter, repetition) in enumerate(
                    identities
                ):
                    record = store.load(_point_key(parameter, repetition))
                    if record is None:
                        continue
                    done[position] = SweepPoint(
                        parameter,
                        repetition,
                        float(record["value"]),
                        float(record["elapsed"]),
                    )
                span.tag(skipped=len(done))
            obs.count("resilience.runtime.checkpoint.hits", len(done))
    remaining = [
        position for position in range(len(jobs)) if position not in done
    ]

    def _record(position: int, point: SweepPoint) -> None:
        if store is not None:
            store.store(
                _point_key(point.parameter, point.repetition),
                _point_record(position, point),
            )

    if workers == 1:
        stats = RunStats(skipped=len(done))
        try:
            for position in remaining:
                point, _ = _measure_point(jobs[position])
                done[position] = point
                stats.completed += 1
                _record(position, point)
        except KeyboardInterrupt:
            stats.interrupted = True
            obs.count("resilience.runtime.interrupts")
    else:
        tracer = obs.active()

        def _on_result(index: int, outcome) -> None:
            point, payload = outcome
            if tracer is not None and payload is not None:
                tracer.adopt(
                    [
                        obs.SpanRecord.from_dict(span)
                        for span in payload["spans"]
                    ],
                    payload["metrics"],
                    timeseries=payload.get("timeseries"),
                )
            _record(remaining[index], point)

        pool = SupervisedPool(
            workers, policy=policy, chaos=chaos, mp_context=context
        )
        results, stats = pool.run(
            _measure_point,
            [jobs[position] for position in remaining],
            on_result=_on_result,
        )
        stats.skipped += len(done)
        for index, (point, _) in results.items():
            done[remaining[index]] = point
    points = [done[position] for position in sorted(done)]
    return SweepOutcome(
        points=points,
        stats=stats,
        checkpoint_dir=Path(checkpoint) if checkpoint is not None else None,
    )


def sweep(
    parameter_values: Sequence[object],
    measure: Callable[[object, np.random.Generator], float],
    repetitions: int = 3,
    seed: int | None = 0,
    workers: int = 1,
    mp_context: str | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    policy: RuntimePolicy | None = None,
    chaos: ChaosPlan | None = None,
) -> list[SweepPoint]:
    """Measure a function over parameter values with seeded repetitions.

    The classic list-of-points view of :func:`run_sweep` — same
    durability machinery (checkpoints, supervision, chaos), but
    returning just the completed points.  Callers that need the
    supervision ledger (interrupted? quarantined? resumed?) use
    :func:`run_sweep` directly.
    """
    return run_sweep(
        parameter_values,
        measure,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
        mp_context=mp_context,
        checkpoint=checkpoint,
        resume=resume,
        policy=policy,
        chaos=chaos,
    ).points


def measure_spec_point(
    parameter: object, rng: np.random.Generator
) -> float:
    """Default spec-sweep measure: simulate and return mean accuracy.

    ``parameter`` is the canonical JSON of one lattice point's payload
    (a string so it is hashable for :func:`aggregate` and picklable for
    process pools); the repetition's ``rng`` seeds the simulation, so
    repetitions vary exactly as in any other sweep while the scenario
    itself stays pinned by the payload.
    """
    from repro.sim.engine import Simulation
    from repro.spec.compile import compile_spec

    scenario = compile_spec(json.loads(str(parameter)))
    result = Simulation(scenario).run(seed=rng)
    return float(result.mean_accuracy)


@dataclass(frozen=True)
class SpecSweep:
    """A sweep driven by a spec's ``[axes]`` lattice.

    ``stats`` carries the supervision ledger when the sweep ran with
    durability features (``None`` predates them in saved pickles and
    means "ran to completion serially").
    """

    lattice: "Lattice"
    points: list[SweepPoint]
    stats: RunStats | None = None

    def by_scenario(self) -> dict[str, tuple[float, float]]:
        """Scenario id -> (mean value, mean elapsed), lattice order."""
        parameters = aggregate(self.points)
        result = {}
        for point in self.lattice.points:
            parameter = json.dumps(point.payload, sort_keys=True)
            if parameter in parameters:
                result[point.id] = parameters[parameter]
        return result


def sweep_spec(
    source,
    measure: Callable[[object, np.random.Generator], float] | None = None,
    repetitions: int = 3,
    seed: int | None = 0,
    workers: int = 1,
    mp_context: str | None = None,
    limit: int | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    policy: RuntimePolicy | None = None,
    chaos: ChaosPlan | None = None,
) -> SpecSweep:
    """Sweep the checker-clean lattice of a scenario spec.

    The spec's ``[axes]`` product is expanded and statically checked
    first (see :func:`repro.spec.lattice.expand`), so the sweep only
    ever spends compute on valid scenarios; invalid corners are dropped
    by the checker, not discovered at simulation time.  Each surviving
    point is passed to ``measure`` as the canonical JSON string of its
    sparse payload — hashable, picklable, and recompilable via
    :func:`repro.spec.compile.compile_spec` — which is what lets the
    existing process-pool machinery in :func:`sweep` fan spec points
    out unchanged.  ``measure`` defaults to :func:`measure_spec_point`
    (mean simulated accuracy).  ``limit`` subsamples the lattice
    deterministically from ``seed``.

    The durability knobs (``checkpoint``, ``resume``, ``policy``,
    ``chaos``) pass straight through to :func:`run_sweep`; spec-sweep
    parameters are canonical JSON strings, so their checkpoint
    identities are stable across processes and hosts.
    """
    from repro.spec.lattice import expand, sample

    lattice = (
        expand(source)
        if limit is None
        else sample(source, limit, seed=seed)
    )
    parameters = [
        json.dumps(point.payload, sort_keys=True)
        for point in lattice.points
    ]
    outcome = run_sweep(
        parameters,
        measure if measure is not None else measure_spec_point,
        repetitions=repetitions,
        seed=seed,
        workers=workers,
        mp_context=mp_context,
        checkpoint=checkpoint,
        resume=resume,
        policy=policy,
        chaos=chaos,
    )
    return SpecSweep(
        lattice=lattice, points=outcome.points, stats=outcome.stats
    )


def aggregate(
    points: Iterable[SweepPoint],
) -> dict[object, tuple[float, float]]:
    """Per-parameter (mean value, mean elapsed seconds)."""
    by_parameter: dict[object, list[SweepPoint]] = {}
    for point in points:
        by_parameter.setdefault(point.parameter, []).append(point)
    return {
        parameter: (
            float(np.mean([p.value for p in group])),
            float(np.mean([p.elapsed for p in group])),
        )
        for parameter, group in by_parameter.items()
    }
