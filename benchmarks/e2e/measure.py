"""One workload, measured in-process for a fixed window.

A run covers ``n = workload.instances`` inputs, the workload's spec
with seeds ``n * seed + k``.  The protocol:

1. compile every instance (spec check and market generation), and keep
   compiling them in turn until half a second of set-up has been
   timed; ``setup_s`` is the median;
2. run instance 0 once untimed, so lazy imports and caches settle;
3. run instances 1, 2, ..., then all of them in turn, until every
   instance has run and ``seconds`` have passed; ``run_s`` is the
   median.  The first run of each instance is checked and gives its
   outcome metrics (outside the timed region); every later run must
   repeat its objective exactly.  Outcomes are averaged over instances;
4. read ``peak_rss_mb``, then run the LP oracle check, which imports
   scipy and so must not count towards the program's memory.

The host this was built on changes speed by up to 1.5x over seconds to
minutes: 15-second medians of a fixed loop had an interquartile spread
of 31% of their median.  Every timed interval is therefore bracketed
by a fixed reference computation (:func:`probe_seconds`) and reported in
host-normalized seconds: wall time scaled by ``REFERENCE_PROBE_S`` over
the mean probe time around it, i.e. the time the interval would have
taken on a host where the probe takes ``REFERENCE_PROBE_S``.  Raw wall
times stay in the report beside the normalized ones.

With ``trace`` every timed run is followed by a run of the same
instance under the layer wrappers of :mod:`.layers`, until the window
ends; set-up is traced as well.
"""

from __future__ import annotations

import itertools
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import harness
from .layers import LAYERS, ROOT, LayerTracer

#: Median probe time (seconds) on the reference host (2 vCPU VM); it
#: only fixes the scale of the normalized seconds.
REFERENCE_PROBE_S = 0.008

#: Metric -> (unit, better): the end-to-end metrics every workload
#: reports, in BENCHMARK.json order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "objective": ("benefit", "higher"),
    "fill_rate": ("fraction", "higher"),
    "participation": ("fraction", "higher"),
    "accuracy": ("fraction", "higher"),
}

#: Metric -> (unit, better, bound, absolute): end-to-end metrics only
#: the open-loop stream workloads have.  BENCHMARK.json may list only
#: metrics that every workload reports, so their bounds live here; they
#: follow the rule of BENCHMARK.json's time bounds (see the README).
#: Greedy assigns most tasks on arrival, so its p95 wait can be 0: that
#: bound is absolute, in simulated time units, not a share.
STREAM_ONLY = {
    "tick_p50_ms": ("ms", "lower", 0.15, False),
    "tick_p95_ms": ("ms", "lower", 0.25, False),
    "wait_p95": ("sim-time", "lower", 0.05, True),
}

_MAX_SETUPS = 18
_SETUP_BUDGET_S = 0.5


def _probe_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return time.perf_counter() - start


def probe_seconds() -> float:
    """Time a fixed interpreter loop: the host's current speed.

    The workloads are dominated by interpreted Python (heap-based
    shortest paths, per-edge benefit calls, event handlers, auction
    bids).  Over ten-seed runs of all four workloads, normalizing by
    this loop left less spread than a NumPy gather or a dict-building
    loop did, alone or mixed in.  It touches nothing of the program
    under test.  Median of five.
    """
    return statistics.median(_probe_once() for _ in range(5))


@dataclass
class Samples:
    """Timed intervals: raw wall seconds and host-normalized seconds."""

    raw: list[float] = field(default_factory=list)
    normalized: list[float] = field(default_factory=list)


class _Stopwatch:
    """Times calls, normalizing each by the probes just before and after."""

    def __init__(self) -> None:
        self._before = probe_seconds()
        #: Every probe time taken, in order.
        self.probes = [self._before]
        #: Normalization factor of the latest interval.
        self.factor = 1.0

    def restart(self) -> None:
        """Probe afresh after untimed work, for the next interval."""
        self._before = probe_seconds()
        self.probes.append(self._before)

    def time(self, fn, samples: Samples):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        after = probe_seconds()
        self.probes.append(after)
        self.factor = REFERENCE_PROBE_S / ((self._before + after) / 2)
        self._before = after
        samples.raw.append(elapsed)
        samples.normalized.append(elapsed * self.factor)
        return value


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    smoke: bool = False,
    corrupt: str | None = None,
) -> dict:
    """Measure one workload; returns the full report.

    ``corrupt`` names a check whose expected value is deliberately
    falsified (on the first instance), to show that a failed check
    fails the run.  Records a workload writes go to a scratch file in
    the current directory, removed after every run.
    """
    workload = harness.WORKLOADS[workload_name]
    output = (
        Path(f".e2e-{workload.name}-{seed}.jsonl")
        if workload.writes_records
        else None
    )
    report: dict = {
        "workload": workload.name,
        "seed": seed,
        "instance_seeds": instance_seeds(workload, seed),
        "seconds": seconds,
        "smoke": smoke,
        "trace": trace,
        "attempted": 0,
        "failed": 0,
        "correct": False,
        "metrics": {},
    }
    try:
        _Measurement(workload, seconds, trace, smoke, corrupt, output, report).run()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        report["failed"] += 1
    finally:
        if output is not None and output.exists():
            output.unlink()
    report["correct"] = report["failed"] == 0 and bool(report["metrics"])
    return report


def instance_seeds(workload: harness.Workload, seed: int) -> list[int]:
    """The seeds of the inputs one run covers."""
    n = workload.instances
    return [n * seed + k for k in range(n)]


class _Measurement:
    """State of one measured run (see the module docstring)."""

    def __init__(self, workload, seconds, trace, smoke, corrupt, output, report):
        self.workload = workload
        self.seconds = seconds
        self.tracer = LayerTracer() if trace else None
        self.payloads = [
            harness.load_payload(workload, s, smoke)
            for s in instance_seeds(workload, report["seed"])
        ]
        self.corrupt = corrupt
        self.corrupted = False
        self.output = output
        self.report = report
        self.stopwatch = _Stopwatch()
        self.inputs: list = [None] * workload.instances
        #: Instance -> outcome metrics of its first (checked) execution.
        self.outcomes: dict[int, dict] = {}
        #: Instance -> round-0 objective, for the LP oracle after the run.
        self.round0: dict[int, float] = {}
        self.checks: list[dict] = []
        self.mismatches = 0
        self.written = 0

    def _traced(self, on: bool):
        return self.tracer.installed() if on else nullcontext()

    def _setup(self) -> Samples:
        setups = Samples()
        n = self.workload.instances
        while len(setups.raw) < n or (
            sum(setups.raw) < _SETUP_BUDGET_S
            and len(setups.raw) < _MAX_SETUPS
        ):
            k = len(setups.raw) % n
            with self._traced(self.tracer is not None):
                self.inputs[k] = self.stopwatch.time(
                    lambda: harness.setup(self.workload, self.payloads[k]),
                    setups,
                )
        return setups

    def _execute(self, k: int, samples: Samples | None, traced: bool):
        """One execution of instance ``k``, timed into ``samples``."""
        self.report["attempted"] += 1

        def run():
            return harness.execute(self.workload, self.inputs[k], self.output)

        with self._traced(traced):
            if samples is None:
                execution = run()
            else:
                execution = self.stopwatch.time(run, samples)
        self._verify(k, execution)
        if self.output is not None:
            self.written = self.output.stat().st_size
            self.output.unlink()
        return execution

    def _verify(self, k: int, execution) -> None:
        """Check an instance's first execution; later ones must repeat it."""
        workload, inputs = self.workload, self.inputs[k]
        if k in self.outcomes:
            if harness.objective(execution) != self.outcomes[k]["objective"]:
                self.mismatches += 1
                self.report["failed"] += 1
            return
        self._record(k, harness.checks(workload, inputs, execution, self.output))
        self.outcomes[k] = harness.outcomes(workload, inputs, execution)
        if workload.lp_oracle:
            self.round0[k] = execution.result.rounds[0].combined_benefit

    def _record(self, k: int, found: list) -> None:
        """Count instance ``k``'s checks, falsifying ``corrupt`` on 0."""
        if self.corrupt is not None and k == 0:
            found = [
                c.corrupted() if c.name == self.corrupt else c for c in found
            ]
            self.corrupted |= any(c.name == self.corrupt for c in found)
        if any(check.status == "FAIL" for check in found):
            self.report["failed"] += 1
        self.checks.extend({"instance": k, **c.to_dict()} for c in found)

    def run(self) -> None:
        tracer, report = self.tracer, self.report
        setups = self._setup()
        setup_layers = _phase_layers(tracer, setups)

        # Instance 0 runs once untimed, so lazy imports and caches settle.
        self._execute(0, None, traced=False)

        untraced, traced = Samples(), Samples()
        ticks_ms: list[float] = []
        self.stopwatch.restart()
        deadline = time.perf_counter() + self.seconds
        n = self.workload.instances
        order = itertools.chain(range(1, n), itertools.cycle(range(n)))
        step = 0.0
        for k in order:
            # Untraced runs must cover every instance (its outcomes are
            # reported); traced runs need one untraced/traced pair.
            enough = (
                len(untraced.raw) >= 1 if tracer else len(self.outcomes) == n
            )
            # Stop half a step early, so the last step ends about on time.
            if enough and time.perf_counter() + step / 2 >= deadline:
                break
            started = len(untraced.raw) + len(traced.raw)
            execution = self._execute(k, untraced, traced=False)
            ticks_ms.extend(
                1000.0 * self.stopwatch.factor * t
                for t in execution.tick_seconds()
            )
            if tracer is not None:
                self._execute(k, traced, traced=True)
            step = sum((untraced.raw + traced.raw)[started:])

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for k, objective in sorted(self.round0.items()):
            self._record(k, [harness.lp_check(self.inputs[k], objective)])
        if self.corrupt is not None and not self.corrupted:
            raise ValueError(
                f"{self.workload.name} has no check {self.corrupt!r}"
            )
        self.checks.append(
            harness.Check(
                "repeatable_objective", self.mismatches, 0.0, 0.0
            ).to_dict()
        )
        report["checks"] = self.checks
        report["samples"] = {
            "setup_s": setups.normalized,
            "setup_wall_s": setups.raw,
            "run_s": untraced.normalized,
            "run_wall_s": untraced.raw,
            "probe_s": self.stopwatch.probes,
        }
        outcome = {
            name: float(np.mean([o[name] for o in self.outcomes.values()]))
            for name in self.outcomes[0]
        }
        values = {
            "setup_s": median(setups.normalized),
            "run_s": median(untraced.normalized),
            "peak_rss_mb": peak_rss_mb,
            **outcome,
        }
        report["metrics"] = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in END_TO_END.items()
        }
        if self.workload.loop == "stream":
            values["tick_p50_ms"] = float(np.percentile(ticks_ms, 50))
            values["tick_p95_ms"] = float(np.percentile(ticks_ms, 95))
            report["stream_metrics"] = {
                name: {"value": values[name], "unit": unit}
                for name, (unit, *_rule) in STREAM_ONLY.items()
            }
            report["samples"]["ticks"] = len(ticks_ms)
        if tracer is not None:
            run_layers = _phase_layers(tracer, traced)
            report["layers"] = {"setup": setup_layers, "run": run_layers}
            report["trace_metrics"] = _trace_metrics(
                setup_layers, run_layers, setups, untraced, traced,
                self.written,
            )


def _phase_layers(tracer: LayerTracer | None, samples: Samples) -> dict | None:
    """Per-layer numbers of one phase, per run; resets the tracer."""
    if tracer is None:
        return None
    wall, count = sum(samples.raw), len(samples.raw)
    layers = tracer.by_layer()
    edges = tracer.edges()
    layers[ROOT]["self_s"] = wall - sum(
        edge["total_s"] for edge in edges if edge["parent"] == ROOT
    )
    tracer.reset()
    return {
        "wall_s": wall,
        "runs": count,
        "layers": {
            name: {
                "calls": stats["calls"] / count,
                "self_s": stats["self_s"] / count,
                "share": stats["self_s"] / wall,
            }
            for name, stats in layers.items()
        },
        "edges": edges,
    }


def _trace_metrics(setup_layers, run_layers, setups, untraced, traced, written):
    """The per-layer metrics of BENCHMARK.json, by name."""
    metrics: dict[str, dict] = {}
    coverage = 0.0
    for layer in LAYERS:
        phase = setup_layers if layer.phase == "setup" else run_layers
        stats = phase["layers"][layer.name]
        metrics[f"{layer.name}.calls"] = {
            "value": stats["calls"], "unit": "count"
        }
        metrics[f"{layer.name}.share"] = {
            "value": stats["share"], "unit": "fraction"
        }
        if layer.phase == "run" and not layer.remainder:
            coverage += stats["share"]
    overhead = median(traced.normalized) / median(untraced.normalized) - 1.0
    metrics.update(
        {
            "trace.setup_s": {"value": median(setups.normalized), "unit": "s"},
            "trace.run_s": {"value": median(traced.normalized), "unit": "s"},
            "trace_overhead": {"value": overhead, "unit": "fraction"},
            "coverage": {"value": coverage, "unit": "fraction"},
            "stream.writer.bytes": {"value": written, "unit": "bytes"},
        }
    )
    return metrics
