"""Benchmark cases and suites for the performance harness.

Three suites mirror the paper's scalability experiments plus a
micro-level tier:

* ``f7_scale_workers`` — |W| grows with |T| fixed (Figure 7 shape):
  the end-to-end ``flow`` pipeline, the exact solver F7 times, on a
  quarter-size ladder cross-checked against
  :func:`repro.matching.reference.b_matching_reference`, on F7's own
  shapes (|T| = 100), and on the full-size ladder without a
  reference.
* ``f8_scale_tasks`` — |T| grows (Figure 8 shape): the auction solve
  in batched Jacobi mode against the sequential Gauss-Seidel mode on
  *specialist* square instances (each bidder strongly prefers its own
  object — the low-contention regime Jacobi targets; see
  ``docs/performance.md``), and the end-to-end greedy pipeline.
* ``micro`` — hot-path microbenchmarks: batched
  :func:`repro.crowd.answer_model.simulate_answers` against its
  scalar reference, and :meth:`BenefitMatrices.side_totals` against a
  Python-loop equivalent.
* ``shard`` — the large-market suite (n=10k workers at the full
  tier): the sharded solver against a cold full-matrix
  ``pruned-greedy`` solve, and multi-round warm-started solving
  against cold per-round re-solving.  The cold side runs on
  :class:`_UncachedProblemView` so every round re-pays the pruning
  pass, exactly as the simulation engine does when it rebuilds the
  planning problem each round.
* ``stream`` — the streaming dispatch service under a Poisson storm
  (|W| = |T| = 10^5 at the full tier): arrival-instant greedy
  dispatch at full scale, and micro-batch windows (a ``flow`` solve on
  a ``RowwiseBenefit`` block each) at a tenth of it.  The
  case checksum is the realized combined benefit; throughput
  (``stream.assignments_per_sec``) and the time-to-assignment
  percentile gauges land in the bench trace, so the BENCH json
  carries latency percentiles alongside wall time.
* ``obs`` — the telemetry-overhead guard: the same seeded dispatch
  storm drained with live telemetry on vs off, gap-gated so the
  overhead ratio stays under 5% (see ``_obs_overhead_case``).

Every case that has a reference implementation also records both
checksums, so a bench run doubles as a cross-validation pass: a
result whose checksums disagree fails the run regardless of timing.
Approximate cases (the sharded solver trades a bounded objective gap
for speed) instead record an ``objective_gap`` against the reference
objective and are validated against a ``gap_tolerance``.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.benefit.matrices import build_benefit_matrices
from repro.obs.diff import (
    DEFAULT_DIFF_THRESHOLD,
    DEFAULT_NOISE_FLOOR,
    TraceDiff,
    diff_traces,
)
from repro.obs.registry import (
    DEFAULT_REGISTRY_ROOT,
    RunEntry,
    RunRegistry,
    current_git_rev,
)
from repro.benefit.mutual import LinearCombiner
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.core.solvers.pruned import top_k_edge_mask
from repro.crowd.answer_model import simulate_answers, simulate_answers_reference
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError
from repro.matching.auction import auction_assignment
from repro.matching.reference import b_matching_reference
from repro.utils.rng import as_rng

SUITES = (
    "f7_scale_workers",
    "f8_scale_tasks",
    "micro",
    "shard",
    "stream",
    "obs",
)

_FULL_SIZES = (200, 400, 800)
_QUICK_SIZES = (60, 120)
#: Figure 7's worker ladder at |T| = ``_F7_TASKS``
#: (:func:`repro.eval.experiments.figure7_scale_workers`).
_F7_FULL_WORKERS = (100, 200, 400, 800, 1600)
_F7_QUICK_WORKERS = (100, 400)
_F7_TASKS = 100

_CHECKSUM_RTOL = 1e-6

#: Shard-suite instance shapes: (n_workers, n_tasks).  The full tier
#: is the paper-scale target the ISSUE names (n=10k); the quick tier
#: keeps the same worker:task ratio at CI-smoke cost.
_SHARD_FULL_SHAPE = (10_000, 2_000)
_SHARD_QUICK_SHAPE = (1_500, 300)
_SHARD_CATEGORIES = 16
_SHARD_COUNT = 8
#: Sharded solving is gap-gated, not checksum-gated: its objective may
#: legitimately differ from the cold full-matrix solve, but must not
#: fall short by more than this fraction.
_SHARD_GAP_TOLERANCE = 0.05
#: Rounds per warm-start case — matches the simulation scenario
#: default (``Scenario.n_rounds``), so the case measures exactly the
#: round structure the engine drives.
_WARM_ROUNDS = 10

#: Stream-suite population sizes (|W| = |T|).  The full tier is the
#: ISSUE's Poisson-storm target (10^5 on each side); the quick tier
#: keeps CI-smoke cost.  Arrival rates scale with the population so
#: the simulated span stays ~constant and the *active* sets (open
#: tasks ~ task_rate x deadline, online workers ~ worker_rate x
#: session_length) are what grows — the quantity streaming dispatch
#: must stay robust to.
_STREAM_FULL_SIZE = 100_000
_STREAM_QUICK_SIZE = 2_000
#: Simulated span (time units) the arrival rates are derived from.
_STREAM_SPAN = 250.0


@dataclass(frozen=True)
class Measurement:
    """Raw numbers one case runner produced.

    ``objective_gap``/``gap_tolerance`` are set only by approximate
    cases (the shard suite): the gap is the achieved objective's
    relative shortfall against the reference solve, and the case
    passes cross-validation when the gap stays within tolerance.
    """

    wall_time: float
    reference_time: float | None
    checksum: float
    reference_checksum: float | None
    objective_gap: float | None = None
    gap_tolerance: float | None = None


@dataclass(frozen=True)
class BenchCase:
    """One named benchmark: a runner plus its identifying metadata."""

    name: str
    suite: str
    size: int
    solver: str
    runner: Callable[[int], Measurement]


@dataclass(frozen=True)
class BenchResult:
    """A finished case: metadata plus the measurement."""

    name: str
    suite: str
    size: int
    solver: str
    wall_time: float
    reference_time: float | None
    checksum: float
    reference_checksum: float | None
    objective_gap: float | None = None
    gap_tolerance: float | None = None

    @property
    def speedup(self) -> float | None:
        """Reference wall time over vectorized wall time (None when
        the case has no reference implementation)."""
        if self.reference_time is None or self.wall_time <= 0:
            return None
        return self.reference_time / self.wall_time

    @property
    def checksums_match(self) -> bool:
        """Cross-validation verdict; vacuously true without a
        reference.

        Gap-gated cases (``gap_tolerance`` set) pass when the recorded
        objective shortfall stays within tolerance — their checksums
        are expected to differ because the solver under test is a
        documented approximation of the reference.
        """
        if self.gap_tolerance is not None:
            return (
                self.objective_gap is not None
                and 0.0 <= self.objective_gap <= self.gap_tolerance
            )
        if self.reference_checksum is None:
            return True
        scale = max(abs(self.checksum), abs(self.reference_checksum), 1.0)
        return (
            abs(self.checksum - self.reference_checksum)
            <= _CHECKSUM_RTOL * scale
        )


def _best_of(fn: Callable[[], float], repeats: int) -> tuple[float, float]:
    """(best wall time, last return value) over ``repeats`` runs.

    Best-of-N is the standard defence against scheduler noise for
    sub-second kernels; the return value is deterministic across
    repeats so keeping the last one is safe.
    """
    best = float("inf")
    value = 0.0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def specialist_weights(n: int, seed: int) -> np.ndarray:
    """A low-contention square benefit matrix.

    Background benefits are crushed towards zero (``u**8``) and each
    bidder gets one strongly dominant object on the diagonal, so
    bidders mostly want *different* objects — the regime where
    Jacobi's one-bid-per-person-per-round batching pays off.  Market
    matrices from the paper's generator are near rank-1 (log-normal
    payments dominate) and heavily contended; Gauss-Seidel stays the
    better mode there, which is why it stays the default.
    """
    rng = as_rng(seed)
    base = rng.random((n, n)) ** 8 * 0.3
    return base + np.eye(n) * rng.uniform(1.0, 2.0, n)


def _auction_case(size: int, suite: str) -> BenchCase:
    def runner(repeats: int) -> Measurement:
        weights = specialist_weights(size, seed=size)
        wall, total = _best_of(
            lambda: auction_assignment(weights, mode="jacobi")[1], repeats
        )
        ref_wall, ref_total = _best_of(
            lambda: auction_assignment(weights, mode="gauss-seidel")[1],
            repeats,
        )
        return Measurement(wall, ref_wall, total, ref_total)

    return BenchCase(
        name=f"auction/n={size}",
        suite=suite,
        size=size,
        solver="auction",
        runner=runner,
    )


def _pipeline_case(
    solver_name: str,
    n_workers: int,
    n_tasks: int,
    size: int,
    suite: str,
    reference: Callable[[MBAProblem], float] | None = None,
    name: str | None = None,
) -> BenchCase:
    def runner(repeats: int) -> Measurement:
        market = generate_market(
            SyntheticConfig(n_workers=n_workers, n_tasks=n_tasks), seed=size
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        solver = get_solver(solver_name)
        # End-to-end pipeline timings are seconds-long and far less
        # noise-prone than the kernels, so one run is enough.
        wall, total = _best_of(
            lambda: solver.solve(problem, seed=0).combined_total(), 1
        )
        if reference is None:
            return Measurement(wall, None, total, None)
        ref_wall, ref_total = _best_of(lambda: reference(problem), 1)
        return Measurement(wall, ref_wall, total, ref_total)

    return BenchCase(
        name=name or f"{solver_name}/n={size}",
        suite=suite,
        size=size,
        solver=solver_name,
        runner=runner,
    )


def _flow_reference_total(problem: MBAProblem) -> float:
    """The flow solver's optimum from the explicit-network min-cost-flow
    reduction."""
    return b_matching_reference(
        problem.benefits.combined,
        problem.worker_capacities(),
        problem.task_capacities(),
    )[1]


def _answers_case(n_workers: int, n_tasks: int) -> BenchCase:
    n_edges = n_workers * n_tasks

    def runner(repeats: int) -> Measurement:
        market = generate_market(
            SyntheticConfig(n_workers=n_workers, n_tasks=n_tasks), seed=7
        )
        edges = [
            (w, t) for w in range(n_workers) for t in range(n_tasks)
        ]

        def checksum(simulate: Callable) -> float:
            result = simulate(market, edges, seed=123)
            return float(sum(result.truths.values()) + result.votes.sum())

        wall, total = _best_of(lambda: checksum(simulate_answers), repeats)
        ref_wall, ref_total = _best_of(
            lambda: checksum(simulate_answers_reference), 1
        )
        return Measurement(wall, ref_wall, total, ref_total)

    return BenchCase(
        name=f"simulate_answers/edges={n_edges}",
        suite="micro",
        size=n_edges,
        solver="simulate_answers",
        runner=runner,
    )


def _side_totals_case(
    n_edges: int, iterations: int, seed: int = 5
) -> BenchCase:
    def runner(repeats: int) -> Measurement:
        market = generate_market(
            SyntheticConfig(n_workers=200, n_tasks=150), seed=11
        )
        matrices = build_benefit_matrices(market, LinearCombiner(0.5))
        rng = as_rng(seed)
        edges = list(
            zip(
                rng.integers(0, 200, n_edges).tolist(),
                rng.integers(0, 150, n_edges).tolist(),
            )
        )

        def vectorized() -> float:
            req = wrk = 0.0
            for _ in range(iterations):
                req, wrk = matrices.side_totals(edges)
            return req + wrk

        def scalar() -> float:
            req = wrk = 0.0
            for _ in range(iterations):
                req = sum(matrices.requester[w, t] for w, t in edges)  # lint: allow[R601] — the scalar oracle is the point
                wrk = sum(matrices.worker[w, t] for w, t in edges)  # lint: allow[R601] — the scalar oracle is the point
            return float(req + wrk)

        wall, total = _best_of(vectorized, repeats)
        ref_wall, ref_total = _best_of(scalar, 1)
        return Measurement(wall, ref_wall, total, ref_total)

    return BenchCase(
        name=f"side_totals/edges={n_edges}",
        suite="micro",
        size=n_edges,
        solver="side_totals",
        runner=runner,
    )


class _UncachedProblemView:
    """A read-only stand-in for a *fresh* per-round problem.

    The simulation engine rebuilds the planning problem every round,
    so a cold solver re-pays the full-matrix pruning pass each time.
    Rebuilding a real :class:`MBAProblem` at n=10k costs far more in
    benefit-matrix construction than the solve being measured, so the
    cold reference instead solves through this view: it delegates
    everything to the underlying problem except the memoized
    ``top_k_candidates`` cache, forcing each reference round to
    recompute its candidate mask — the per-round cost warm-started
    solving exists to avoid.
    """

    def __init__(self, problem: MBAProblem) -> None:
        self._problem = problem

    def __getattr__(self, name: str):
        if name == "top_k_candidates":
            raise AttributeError(name)
        return getattr(self._problem, name)


def _shard_problem(n_workers: int, n_tasks: int, seed: int) -> MBAProblem:
    market = generate_market(
        SyntheticConfig(
            n_workers=n_workers,
            n_tasks=n_tasks,
            n_categories=_SHARD_CATEGORIES,
        ),
        seed=seed,
    )
    problem = MBAProblem(market, combiner=LinearCombiner(0.5))
    # Fault the benefit matrices and the allocator's large-block
    # arenas in before timing starts: at n=10k the *first* full-matrix
    # argpartition in a process pays several times its steady-state
    # cost in page faults, and that penalty would land on whichever
    # side happens to run first.  The throwaway mask (k=2 is never a
    # real case k, so no solver-visible cache is seeded) makes both
    # sides measure steady state.
    top_k_edge_mask(problem.benefits.combined, 2)
    return problem


def _shortfall(achieved: float, reference: float) -> float:
    """Relative objective shortfall of ``achieved`` vs ``reference``
    (0 when the solver under test matches or beats the reference)."""
    scale = max(abs(reference), 1.0)
    return max(0.0, (reference - achieved) / scale)


def _sharded_case(n_workers: int, n_tasks: int) -> BenchCase:
    def runner(repeats: int) -> Measurement:
        problem = _shard_problem(n_workers, n_tasks, seed=n_workers)
        sharded = get_solver(
            "sharded",
            base="pruned-greedy",
            strategy="balanced",
            n_shards=_SHARD_COUNT,
        )
        cold = get_solver("pruned-greedy")
        cold_view = _UncachedProblemView(problem)
        # Seconds-long solves; one run each, on caches of equal
        # temperature (the sharded side computes its boundary mask,
        # the cold side its pruning mask).
        wall, total = _best_of(
            lambda: sharded.solve(problem, seed=0).combined_total(), 1
        )
        ref_wall, ref_total = _best_of(
            lambda: cold.solve(cold_view, seed=0).combined_total(), 1
        )
        return Measurement(
            wall,
            ref_wall,
            total,
            ref_total,
            objective_gap=_shortfall(total, ref_total),
            gap_tolerance=_SHARD_GAP_TOLERANCE,
        )

    return BenchCase(
        name=f"sharded/n={n_workers}",
        suite="shard",
        size=n_workers,
        solver="sharded",
        runner=runner,
    )


def _warm_rounds_case(
    n_workers: int,
    n_tasks: int,
    warm_base: str,
    warm_base_kwargs: dict | None,
    name: str,
    solver: str,
    gap_tolerance: float | None,
) -> BenchCase:
    """Warm-started multi-round solving vs cold per-round re-solving.

    The warm side constructs one fresh ``warm`` solver and solves the
    same problem ``_WARM_ROUNDS`` times — round one pays the real
    solve, later rounds hit the fingerprint replay path.  The cold
    side re-solves through :class:`_UncachedProblemView` each round.
    When ``gap_tolerance`` is ``None`` the case demands bit-identical
    checksums, pinning replay fidelity end-to-end.
    """

    def runner(repeats: int) -> Measurement:
        problem = _shard_problem(n_workers, n_tasks, seed=n_workers)
        cold_view = _UncachedProblemView(problem)

        def warm_rounds() -> float:
            solver_obj = get_solver(
                "warm", base=warm_base, base_kwargs=warm_base_kwargs
            )
            return sum(
                solver_obj.solve(problem, seed=0).combined_total()
                for _ in range(_WARM_ROUNDS)
            )

        def cold_rounds() -> float:
            cold = get_solver("pruned-greedy")
            return sum(
                cold.solve(cold_view, seed=0).combined_total()
                for _ in range(_WARM_ROUNDS)
            )

        wall, total = _best_of(warm_rounds, 1)
        ref_wall, ref_total = _best_of(cold_rounds, 1)
        gap = (
            _shortfall(total, ref_total)
            if gap_tolerance is not None
            else None
        )
        return Measurement(
            wall,
            ref_wall,
            total,
            ref_total,
            objective_gap=gap,
            gap_tolerance=gap_tolerance,
        )

    return BenchCase(
        name=f"{name}/n={n_workers}",
        suite="shard",
        size=n_workers,
        solver=solver,
        runner=runner,
    )


def build_shard_suite(quick: bool = False, scale: float = 1.0) -> list[BenchCase]:
    """The large-market suite: sharded and warm-started solving."""
    base_workers, base_tasks = (
        _SHARD_QUICK_SHAPE if quick else _SHARD_FULL_SHAPE
    )
    n_workers = max(10, int(round(base_workers * scale)))
    n_tasks = max(10, int(round(base_tasks * scale)))
    return [
        _sharded_case(n_workers, n_tasks),
        _warm_rounds_case(
            n_workers,
            n_tasks,
            warm_base="sharded",
            warm_base_kwargs={
                "base": "pruned-greedy",
                "strategy": "balanced",
                "n_shards": _SHARD_COUNT,
            },
            name="sharded_warm",
            solver="warm",
            gap_tolerance=_SHARD_GAP_TOLERANCE,
        ),
        _warm_rounds_case(
            n_workers,
            n_tasks,
            warm_base="pruned-greedy",
            warm_base_kwargs=None,
            name="warm_replay",
            solver="warm",
            gap_tolerance=None,
        ),
    ]


def _stream_case(
    policy: str, size: int, batch_window: float | None = None, label: str = ""
) -> BenchCase:
    """One streaming-dispatch storm: |W| = |T| = ``size``.

    ``label`` tells apart cases of one policy and size that differ in
    their dispatch settings; it is appended to the policy in the name.

    Market construction happens outside the timed region; the
    measured wall time is one full drain of the dispatch loop.  The
    dispatcher's own obs gauges (``stream.assignments_per_sec``,
    ``stream.latency.p50/p95/p99``) are emitted inside the enclosing
    ``bench.case`` span, so the bench trace carries throughput and
    latency percentiles for every stream case.
    """

    def runner(repeats: int) -> Measurement:
        from repro.stream import DispatchConfig, StreamDispatcher

        rate = max(8.0, size / _STREAM_SPAN)
        market = generate_market(
            SyntheticConfig(n_workers=size, n_tasks=size), seed=17
        )
        kwargs = dict(
            policy=policy,
            task_rate=rate,
            worker_rate=rate,
            deadline=1.5,
            session_length=1.0,
        )
        if batch_window is not None:
            kwargs["batch_window"] = batch_window

        def run_once() -> float:
            dispatcher = StreamDispatcher(market, DispatchConfig(**kwargs))
            return dispatcher.run(seed=0).combined_benefit

        # A storm drain is seconds-long end to end; one run suffices.
        wall, total = _best_of(run_once, 1)
        return Measurement(wall, None, total, None)

    return BenchCase(
        name=f"stream_{policy.replace('-', '_')}{label}/n={size}",
        suite="stream",
        size=size,
        solver=f"stream:{policy}",
        runner=runner,
    )


def build_stream_suite(
    quick: bool = False, scale: float = 1.0
) -> list[BenchCase]:
    """The streaming-dispatch suite: greedy storm + two micro-batch
    window lengths."""
    base = _STREAM_QUICK_SIZE if quick else _STREAM_FULL_SIZE
    size = max(100, int(round(base * scale)))
    # Micro-batch solves each window with ``flow``; a tenth of
    # the storm population keeps the per-window benefit blocks
    # representative without turning the suite into a solver benchmark.
    micro_size = max(100, size // 10)
    return [
        _stream_case("greedy", size),
        _stream_case("micro-batch", micro_size, batch_window=5.0),
        # A window's block is the workers online and the tasks open at
        # its flush, so its size follows the arrival rate.  At the rate
        # floor (8) the blocks are ~8x8 (255 windows, the largest 210
        # cells), all on the list form of the b-matching kernel's
        # search, as in the ``stream_monitored`` workload; the full
        # tier's case above runs at rate 40 (~39x58, mostly the array
        # form).  One size on both tiers.
        _stream_case(
            "micro-batch", _STREAM_QUICK_SIZE, batch_window=1.0, label="_w1"
        ),
    ]


#: Telemetry-overhead population size (|W| = |T|).  Quick-suite sized
#: on both tiers: the case measures a *ratio*, which is scale-free.
_OBS_OVERHEAD_SIZE = 1_200
#: Seconds of simulated arrivals the overhead storm is squeezed into.
#: Dense on purpose: a storm-rate window carries enough dispatch work
#: (greedy scoring over a large online pool) for the per-window flush
#: to amortize the way it does in monitored production runs.
_OBS_OVERHEAD_SPAN = 7.5
#: The regression-gated bound: telemetry-on dispatch wall time may
#: exceed telemetry-off by at most this fraction.
_OBS_OVERHEAD_TOLERANCE = 0.05


def _obs_overhead_case(size: int) -> BenchCase:
    """Dispatcher throughput with live telemetry on vs off.

    The same seeded greedy storm is drained twice: once under an
    enabled tracer (so the dispatcher's ``_Telemetry`` scrape — window
    flushes, per-window Gini, wait samples — is live) and once with
    tracing disabled (the production fast path: one ``is None`` test
    per event).  The measurement rides the harness's gap gate:
    ``objective_gap`` is the relative wall-time overhead and the case
    fails when it exceeds ``_OBS_OVERHEAD_TOLERANCE`` (5%).  The two
    drains must also realize the identical combined benefit —
    telemetry that perturbs dispatch decisions is a bug the checksums
    would surface.
    """

    def runner(repeats: int) -> Measurement:
        from repro.stream import DispatchConfig, StreamDispatcher

        rate = max(8.0, size / _OBS_OVERHEAD_SPAN)
        market = generate_market(
            SyntheticConfig(n_workers=size, n_tasks=size), seed=23
        )
        config = DispatchConfig(
            policy="greedy",
            task_rate=rate,
            worker_rate=rate,
            deadline=1.5,
            session_length=1.0,
        )

        def run_off() -> float:
            # The bench harness traces the whole run; drop to the
            # telemetry-off fast path for the baseline drain only.
            previous = obs.disable()
            try:
                dispatcher = StreamDispatcher(market, config)
                return dispatcher.run(seed=0).combined_benefit
            finally:
                if previous is not None:
                    obs.enable(previous)

        def run_on() -> float:
            with obs.tracing(obs.Tracer()):
                dispatcher = StreamDispatcher(market, config)
                return dispatcher.run(seed=0).combined_benefit

        # Interleave-free best-of on each side; the off side warms
        # every cache first so the on side never pays first-touch
        # costs the off side skipped.
        ref_wall, ref_total = _best_of(run_off, repeats)
        wall, total = _best_of(run_on, repeats)
        overhead = max(0.0, (wall - ref_wall) / max(ref_wall, 1e-9))
        scale_ = max(abs(total), abs(ref_total), 1.0)
        if abs(total - ref_total) > _CHECKSUM_RTOL * scale_:
            # Telemetry perturbed dispatch decisions — fail the gap
            # gate outright, whatever the timing said.
            overhead = float("inf")
        return Measurement(
            wall,
            ref_wall,
            total,
            ref_total,
            objective_gap=overhead,
            gap_tolerance=_OBS_OVERHEAD_TOLERANCE,
        )

    return BenchCase(
        name=f"obs_overhead/n={size}",
        suite="obs",
        size=size,
        solver="stream:greedy",
        runner=runner,
    )


def build_obs_suite(
    quick: bool = False, scale: float = 1.0
) -> list[BenchCase]:
    """The telemetry-overhead suite (quick-sized on every tier)."""
    size = max(100, int(round(_OBS_OVERHEAD_SIZE * scale)))
    return [_obs_overhead_case(size)]


def build_suites(
    quick: bool = False, scale: float = 1.0
) -> dict[str, list[BenchCase]]:
    """All benchmark cases, grouped by suite name.

    ``quick`` swaps in small instances (a CI smoke pass, seconds not
    minutes); ``scale`` multiplies every instance size (minimum 10).
    """
    if scale <= 0:
        raise ValidationError(f"scale must be positive, got {scale}")
    sizes = [
        max(10, int(round(s * scale)))
        for s in (_QUICK_SIZES if quick else _FULL_SIZES)
    ]
    largest = max(sizes)
    # The reference-checked flow cases run on a quarter-size ladder: on
    # a 2-vCPU host ``b_matching_reference`` took 0.4 / 1.8 / 7.4 s at
    # |W| = 50 / 100 / 200 and |T| = 200, against 0.04 / 0.11 / 0.37 s
    # for the flow solver.  F7's own shapes and the full-size ladder
    # (|W| = sizes, |T| = the largest) run without a reference.  Their
    # names carry both dimensions because the baseline is keyed by
    # name, and ``flow/n=200`` would otherwise name two shapes.
    flow_sizes = [max(10, size // 4) for size in sizes]
    edge_count = 2_500 if quick else 50_000
    f7 = [
        _pipeline_case(
            "flow",
            size,
            max(flow_sizes),
            size,
            "f7_scale_workers",
            reference=_flow_reference_total,
        )
        for size in flow_sizes
    ]
    f7_tasks = max(10, int(round(_F7_TASKS * scale)))
    shapes = [
        (max(10, int(round(n * scale))), f7_tasks)
        for n in (_F7_QUICK_WORKERS if quick else _F7_FULL_WORKERS)
    ]
    shapes += [(size, largest) for size in sizes]
    f7 += [
        _pipeline_case(
            "flow",
            n_workers,
            n_tasks,
            n_workers,
            "f7_scale_workers",
            name=f"flow/w={n_workers},t={n_tasks}",
        )
        for n_workers, n_tasks in shapes
    ]
    f8 = [_auction_case(size, "f8_scale_tasks") for size in sizes]
    f8 += [
        _pipeline_case("greedy", sizes[0], size, size, "f8_scale_tasks")
        for size in sizes
    ]
    micro = [
        _answers_case(50 if quick else 250, edge_count // (50 if quick else 250)),
        _side_totals_case(500 if quick else 5_000, 5 if quick else 20),
    ]
    return {
        "f7_scale_workers": f7,
        "f8_scale_tasks": f8,
        "micro": micro,
        "shard": build_shard_suite(quick, scale),
        "stream": build_stream_suite(quick, scale),
        "obs": build_obs_suite(quick, scale),
    }


def register_and_diff(
    tracer,
    tag: str,
    registry_root: str | None = None,
    threshold: float = DEFAULT_DIFF_THRESHOLD,
    noise_floor: float = DEFAULT_NOISE_FLOOR,
) -> tuple[RunEntry, TraceDiff | None]:
    """Archive a bench run's trace and span-diff it against the last
    registered run of the same tag.

    The committed wall-time baseline (:mod:`repro.perf.baseline`)
    gates one number per case; this diff localizes *which stage* moved
    — per-span self time plus the deterministic work counters — by
    comparing against run history in the trace registry.  Returns
    ``(entry, diff)``; ``diff`` is ``None`` on a tag's first run, or
    when the new trace is byte-identical to the previous one.
    """
    registry = RunRegistry(
        registry_root if registry_root is not None else DEFAULT_REGISTRY_ROOT
    )
    previous = registry.latest(tag=tag)
    entry = registry.register_tracer(
        tracer, tag=tag, git_rev=current_git_rev()
    )
    if previous is None or previous.run_id == entry.run_id:
        return entry, None
    diff = diff_traces(
        registry.read(previous),
        registry.read(entry),
        threshold=threshold,
        noise_floor=noise_floor,
        label_a=f"{previous.tag}@{previous.run_id}",
        label_b=f"{entry.tag}@{entry.run_id}",
    )
    return entry, diff


def run_cases(
    suites: dict[str, list[BenchCase]],
    only: Sequence[str] | None = None,
    repeats: int = 3,
    progress: Callable[[str], None] | None = None,
) -> list[BenchResult]:
    """Run (a selection of) suites and collect results in order."""
    if only is not None:
        unknown = sorted(set(only) - set(suites))
        if unknown:
            raise ValidationError(
                f"unknown suite(s): {', '.join(unknown)}; "
                f"choose from {', '.join(sorted(suites))}"
            )
    results: list[BenchResult] = []
    for suite_name, cases in suites.items():
        if only is not None and suite_name not in only:
            continue
        for case in cases:
            if progress is not None:
                progress(f"{case.suite}: {case.name}")
            with obs.span(
                "bench.case",
                name=case.name,
                suite=case.suite,
                solver=case.solver,
            ):
                measurement = case.runner(repeats)
            obs.count("bench.cases")
            results.append(
                BenchResult(
                    name=case.name,
                    suite=case.suite,
                    size=case.size,
                    solver=case.solver,
                    wall_time=measurement.wall_time,
                    reference_time=measurement.reference_time,
                    checksum=measurement.checksum,
                    reference_checksum=measurement.reference_checksum,
                    objective_gap=measurement.objective_gap,
                    gap_tolerance=measurement.gap_tolerance,
                )
            )
    return results
