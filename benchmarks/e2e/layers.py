"""Outside-in per-layer tracing for the end-to-end benchmark.

Each layer is a set of public entry points of the ``repro`` library.
:class:`LayerTracer` wraps them in place (module attributes, class
methods, registry entries) only while :meth:`LayerTracer.installed`
is active, so untraced runs execute the library untouched.  A wrapper
costs two ``perf_counter`` calls and an indexed accumulator update;
count, total and self time are kept per (parent layer, layer) pair on
an explicit stack.  A call into a layer from inside the same layer
(``RowwiseBenefit.row`` calling ``side_row``, ``BatchWriter.write``
calling ``flush``, a wrapper solver calling its base) is not counted
again: its time stays with the outer call.

Spans inside the library are a separate, later concern; these wrappers
only see calls that cross a public entry point.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

#: Name of the pseudo-layer that owns time spent outside every layer
#: (the benchmark's own glue).
ROOT = "(harness)"


@dataclass(frozen=True)
class Layer:
    """One named layer: what it wraps and what it should move.

    ``targets`` are ``"module:Owner.attr"`` paths (``Owner`` omitted
    for module-level functions) or the name of a resolver in
    :data:`_RESOLVERS` prefixed with ``@``.  ``moves`` names the
    end-to-end metric a change to this layer should move and
    ``workloads`` the workloads where it should show; ``phase`` is
    ``"setup"`` for layers that run while inputs are compiled.
    """

    name: str
    targets: tuple[str, ...]
    moves: str
    workloads: str
    phase: str = "run"
    remainder: bool = False


LAYERS: tuple[Layer, ...] = (
    Layer(
        "spec.compile",
        (
            "repro.spec:compile_spec",
            "repro.spec:compile_stream",
            "repro.spec:compile_slo",
        ),
        "setup_s",
        "all",
        phase="setup",
    ),
    Layer(
        "datagen.generate", ("@generators",), "setup_s", "stream_greedy",
        phase="setup",
    ),
    Layer(
        "core.problem",
        (
            "repro.core.problem:MBAProblem.__init__",
            "repro.core.problem:MBAProblem.require_nonempty_feasible",
        ),
        "run_s",
        "batch_large",
    ),
    Layer(
        "benefit.requester",
        ("repro.benefit.requester_benefit:QualityGainBenefit.matrix",),
        "run_s, peak_rss_mb",
        "batch_large",
    ),
    Layer(
        "benefit.worker",
        ("repro.benefit.worker_benefit:NetRewardBenefit.matrix",),
        "run_s, peak_rss_mb",
        "batch_large",
    ),
    Layer(
        "benefit.rows",
        tuple(
            f"repro.benefit.rows:RowwiseBenefit.{name}"
            for name in ("row", "column", "side_row", "edge")
        ),
        "run_s, tick_p50_ms",
        "stream_greedy",
    ),
    Layer("core.solvers", ("@solvers",), "run_s", "batch_large"),
    Layer(
        "matching.b_matching",
        ("repro.core.solvers.flow:max_weight_b_matching",),
        "run_s",
        "batch_exact",
    ),
    Layer(
        "matching.auction",
        ("repro.core.solvers.auction_solver:auction_assignment",),
        "run_s, tick_p95_ms",
        "stream_monitored",
    ),
    Layer(
        "crowd.answers",
        ("repro.sim.engine:simulate_answers",),
        "run_s (accuracy must not move)",
        "batch_large",
    ),
    Layer(
        "crowd.aggregate",
        ("@aggregators",),
        "run_s (accuracy must not move)",
        "batch_large",
    ),
    Layer(
        "crowd.estimate",
        (
            "repro.crowd.estimation:BetaSkillEstimator.estimated_market",
            "repro.crowd.estimation:BetaSkillEstimator.record_answers",
        ),
        "run_s (accuracy must not move)",
        "batch_large",
    ),
    Layer(
        "market.retention",
        (
            "repro.market.retention:RetentionModel.record_round",
            "repro.market.retention:RetentionModel.apply",
        ),
        "participation must not move",
        "batch_large",
    ),
    Layer(
        "sim.engine",
        ("repro.sim.engine:Simulation.run",),
        "run_s",
        "batch_*",
        remainder=True,
    ),
    Layer(
        "stream.dispatch",
        ("repro.stream.dispatch:StreamDispatcher.run",),
        "run_s, tick_p50_ms",
        "stream_greedy",
        remainder=True,
    ),
    Layer(
        "stream.bus",
        ("repro.stream.bus:EventBus.publish",),
        "tick_p50_ms",
        "stream_greedy",
    ),
    Layer(
        "stream.sessions",
        tuple(
            f"repro.stream.sessions:SessionLedger.{name}"
            for name in (
                "login",
                "logout",
                "capacity",
                "consume",
                "online",
                "session_worker",
                "open_sessions",
            )
        ),
        "tick_p50_ms",
        "stream_greedy",
    ),
    Layer(
        "stream.writer",
        (
            "repro.stream.writer:BatchWriter.write",
            "repro.stream.writer:BatchWriter.flush",
        ),
        "run_s",
        "stream_greedy",
    ),
    Layer(
        "obs.timeseries",
        tuple(
            f"repro.obs.timeseries:TimeseriesStore.{name}"
            for name in ("count", "gauge", "observe", "extend")
        ),
        "run_s",
        "stream_monitored",
    ),
    Layer(
        "obs.slo", ("repro.obs.slo:SloMonitor.run",), "run_s",
        "stream_monitored",
    ),
)


# -- patch points -----------------------------------------------------------

#: One patch: ``owner.attr`` is replaced, or ``owner[attr]`` when the
#: owner is a registry dict.
_Patch = tuple[object, str]


def _path_patch(path: str) -> _Patch:
    module_name, _, attribute = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *owners, name = attribute.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, name


def _generator_patches() -> list[_Patch]:
    from repro.datagen.traces import workload_registry

    return [
        (importlib.import_module(fn.__module__), fn.__name__)
        for fn in workload_registry().values()
    ]


def _solver_patches() -> list[_Patch]:
    from repro.core.solvers import list_solvers
    from repro.core.solvers.base import SOLVER_REGISTRY

    list_solvers()  # loads the lazily registered solvers too
    owners: dict[type, None] = {}
    for cls in SOLVER_REGISTRY.values():
        for klass in cls.__mro__:
            solve = klass.__dict__.get("solve")
            if solve is not None and not getattr(
                solve, "__isabstractmethod__", False
            ):
                owners[klass] = None
    return [(klass, "solve") for klass in owners]


def _aggregator_patches() -> list[_Patch]:
    from repro.crowd.aggregation import AGGREGATOR_REGISTRY

    return [(AGGREGATOR_REGISTRY, name) for name in AGGREGATOR_REGISTRY]


_RESOLVERS: dict[str, Callable[[], list[_Patch]]] = {
    "generators": _generator_patches,
    "solvers": _solver_patches,
    "aggregators": _aggregator_patches,
}


def _patches(layer: Layer) -> list[_Patch]:
    patches: list[_Patch] = []
    for target in layer.targets:
        if target.startswith("@"):
            patches.extend(_RESOLVERS[target[1:]]())
        else:
            patches.append(_path_patch(target))
    return patches


# -- the tracer -------------------------------------------------------------


class LayerTracer:
    """Per-(parent, layer) call counts, total and self time."""

    def __init__(self, layers: tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        self.names = (ROOT,) + tuple(layer.name for layer in layers)
        self._width = len(self.names)
        self._patches = [_patches(layer) for layer in layers]
        size = self._width * self._width
        # Mutated in place, never rebound: the wrappers hold them.
        self.calls = [0] * size
        self.total = [0.0] * size
        self.own = [0.0] * size
        #: Open frames: ``[layer index, time spent in child layers]``.
        self._stack: list[list] = [[0, 0.0]]

    def reset(self) -> None:
        """Zero every accumulator."""
        for values in (self.calls, self.total, self.own):
            values[:] = [0] * len(values)

    def _wrap(self, fn: Callable, index: int) -> Callable:
        stack = self._stack
        calls, total, own = self.calls, self.total, self.own
        width = self._width
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == index:
                return fn(*args, **kwargs)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                key = parent[0] * width + index
                calls[key] += 1
                total[key] += elapsed
                own[key] += elapsed - frame[1]

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every layer's entry points for the ``with`` block."""
        saved: list[tuple[object, str, object]] = []
        try:
            for index, patches in enumerate(self._patches, start=1):
                for owner, name in patches:
                    if isinstance(owner, dict):
                        original = owner[name]
                        saved.append((owner, name, original))
                        owner[name] = dataclasses.replace(
                            original, run=self._wrap(original.run, index)
                        )
                    else:
                        original = owner.__dict__[name] if isinstance(
                            owner, type
                        ) else getattr(owner, name)
                        saved.append((owner, name, original))
                        setattr(owner, name, self._wrap(original, index))
            yield self
        finally:
            for owner, name, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[name] = original
                else:
                    setattr(owner, name, original)

    # -- results --------------------------------------------------------

    def by_layer(self) -> dict[str, dict[str, float]]:
        """``{layer: {"calls", "total_s", "self_s"}}`` summed over parents."""
        out = {}
        width = self._width
        for index, name in enumerate(self.names):
            keys = [parent * width + index for parent in range(width)]
            out[name] = {
                "calls": sum(self.calls[k] for k in keys),
                "total_s": sum(self.total[k] for k in keys),
                "self_s": sum(self.own[k] for k in keys),
            }
        return out

    def edges(self) -> list[dict]:
        """Every (parent, layer) pair that was entered at least once."""
        width = self._width
        return [
            {
                "parent": self.names[key // width],
                "layer": self.names[key % width],
                "calls": self.calls[key],
                "total_s": self.total[key],
                "self_s": self.own[key],
            }
            for key in range(width * width)
            if self.calls[key]
        ]
