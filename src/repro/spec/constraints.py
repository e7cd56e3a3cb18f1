"""Cross-parameter validity rules checked before any compute.

The schema (:mod:`repro.spec.schema`) polices one knob at a time; the
constraints here police *combinations* — the invalid corners of the
scenario lattice that today fail at round 1 of a long run (a typo'd
``solver_kwargs`` key, gold questions with nobody learning from them,
a Jacobi auction on a rectangular market).  Each constraint declares
the knobs it reads in a literal tuple; the R703 lint rule statically
verifies every referenced knob is schema-declared, so the catalogue
can never drift from the schema.

Registry-dependent facts (which solvers exist, what their constructors
accept, which aggregators and resilience profiles are registered) are
snapshot into a :class:`RegistryView` — importing *registries* is
cheap and pulls in no simulation machinery, which is what keeps
``python -m repro spec check`` usable as a pre-compute gate.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.spec.schema import NormalizedSpec

#: Individual fault-rate knobs (``faults.rate`` is the uniform knob).
FAULT_RATE_KNOBS = (
    "faults.no_show_rate",
    "faults.answer_drop_rate",
    "faults.task_cancel_rate",
    "faults.solver_failure_rate",
)

#: Solvers that optimize the *edge-decomposed* objective; exact only
#: for the linear combiner (see ``MutualCombiner.decomposes_over_edges``).
EDGE_DECOMPOSING_SOLVERS = frozenset(
    {
        "flow",
        "auction",
        "budgeted-flow",
        "incremental-flow",
        "online-batch",
        "online-greedy",
        "online-two-phase",
        "pruned-greedy",
        "stable-matching",
    }
)


@dataclass(frozen=True)
class RegistryView:
    """A static snapshot of every runtime registry the checker needs.

    ``solver_params`` maps a solver name to the keyword names its
    constructor accepts (``None`` when it takes ``**kwargs`` and
    nothing can be checked).  Tests substitute hand-built views to
    exercise constraints in isolation.
    """

    solvers: tuple[str, ...]
    aggregators: tuple[str, ...]
    workloads: tuple[str, ...]
    resilience_profiles: tuple[str, ...]
    combiners: tuple[str, ...]
    solver_params: dict[str, frozenset[str] | None] = field(
        default_factory=dict
    )

    @classmethod
    def live(cls) -> "RegistryView":
        """The running process's registries.

        Imports are function-local and registry-only: solvers,
        aggregators, workloads, profiles — no simulation engine, no
        market construction.
        """
        from repro.core.solvers import accepted_solver_kwargs, list_solvers
        from repro.crowd.aggregation import aggregator_names
        from repro.datagen.traces import workload_registry
        from repro.resilience.policy import RESILIENCE_PROFILES
        from repro.types import Combiner

        solvers = tuple(list_solvers())
        return cls(
            solvers=solvers,
            aggregators=aggregator_names(),
            workloads=tuple(sorted(workload_registry())),
            resilience_profiles=tuple(sorted(RESILIENCE_PROFILES)),
            # COVERAGE is set-valued and has no per-edge combiner
            # object (see repro.benefit.mutual.make_combiner).
            combiners=tuple(
                sorted(
                    kind.value
                    for kind in Combiner
                    if kind is not Combiner.COVERAGE
                )
            ),
            solver_params={
                name: accepted_solver_kwargs(name) for name in solvers
            },
        )

    def registry_values(self, registry: str) -> tuple[str, ...]:
        """The name set published under a schema ``Domain.registry``."""
        try:
            return getattr(self, registry)
        except AttributeError:
            raise ValueError(
                f"unknown registry reference {registry!r}"
            ) from None


@dataclass(frozen=True, order=True)
class SpecDiagnostic:
    """One checker finding: ``code [severity] knob: message``."""

    code: str
    knob: str
    message: str
    severity: str = "error"

    def render(self) -> str:
        return f"{self.code} [{self.severity}] {self.knob}: {self.message}"


@dataclass(frozen=True)
class Constraint:
    """One declarative cross-parameter rule.

    ``knobs`` is a *literal* tuple of every knob the predicate reads —
    R703 checks it against the schema, and ``spec expand`` uses it to
    explain which axes participated in a rejection.  ``check`` returns
    a message when violated, ``None`` when satisfied.
    """

    id: str
    knobs: tuple[str, ...]
    summary: str
    check: Callable[[NormalizedSpec, RegistryView], str | None]
    severity: str = "error"

    def evaluate(
        self, spec: NormalizedSpec, view: RegistryView
    ) -> SpecDiagnostic | None:
        message = self.check(spec, view)
        if message is None:
            return None
        return SpecDiagnostic(
            code=self.id,
            knob=self.knobs[0],
            message=message,
            severity=self.severity,
        )


# -- predicates -------------------------------------------------------------


def _gold_needs_estimator(spec: NormalizedSpec, view: RegistryView):
    if not spec.is_set("scenario.gold_fraction"):
        return None
    if spec["estimator.enabled"]:
        return None
    if not float(spec["scenario.gold_fraction"]) > 0:  # type: ignore[arg-type]
        return None
    return (
        "gold_fraction is set but no estimator is enabled — gold "
        "answers would be generated and thrown away; set "
        "estimator.enabled = true or drop the knob"
    )


def _solver_kwargs_match_signature(spec: NormalizedSpec, view: RegistryView):
    kwargs = spec["scenario.solver_kwargs"]
    if not kwargs:
        return None
    solver = str(spec["scenario.solver"])
    if solver not in view.solver_params:
        return None  # unresolvable solver is D103's finding, not ours
    accepted = view.solver_params[solver]
    if accepted is None:
        return None
    unknown = sorted(set(kwargs) - accepted)  # type: ignore[arg-type]
    if not unknown:
        return None
    return (
        f"solver {solver!r} does not accept solver_kwargs key(s) "
        f"{', '.join(repr(key) for key in unknown)}; accepted: "
        f"{', '.join(sorted(accepted)) or '(none)'}"
    )


def _jacobi_needs_square(spec: NormalizedSpec, view: RegistryView):
    kwargs = spec["scenario.solver_kwargs"] or {}
    if str(spec["scenario.solver"]) != "auction":
        return None
    if kwargs.get("mode") != "jacobi":  # type: ignore[union-attr]
        return None
    workers, tasks = spec["market.workers"], spec["market.tasks"]
    if workers == tasks:
        return None
    return (
        f"auction mode='jacobi' (batched bidding) only runs on square "
        f"instances; this market is {workers}x{tasks}, so every solve "
        "would silently fall back to the sequential gauss-seidel path"
    )


def _faults_need_explicit_seed(spec: NormalizedSpec, view: RegistryView):
    rates = ("faults.rate",) + FAULT_RATE_KNOBS
    if not any(float(spec[name]) > 0 for name in rates):  # type: ignore[arg-type]
        return None
    if spec.is_set("faults.seed"):
        return None
    return (
        "a fault plan is configured but faults.seed is not set — "
        "fault draws must be pinned for the run to be reproducible; "
        "set faults.seed explicitly"
    )


def _lam_only_for_linear(spec: NormalizedSpec, view: RegistryView):
    if not spec.is_set("scenario.lam"):
        return None
    if str(spec["scenario.combiner"]) == "linear":
        return None
    return (
        f"scenario.lam is set but the {spec['scenario.combiner']!r} "
        "combiner has no lambda — the knob would be silently ignored"
    )


def _drift_floor_below_ceiling(spec: NormalizedSpec, view: RegistryView):
    if not spec["drift.enabled"]:
        return None
    floor, ceiling = spec["drift.floor"], spec["drift.ceiling"]
    if float(floor) <= float(ceiling):  # type: ignore[arg-type]
        return None
    return f"drift.floor {floor} exceeds drift.ceiling {ceiling}"


def _no_double_resilience(spec: NormalizedSpec, view: RegistryView):
    if str(spec["scenario.solver"]) != "resilient":
        return None
    if str(spec["scenario.resilience"]) == "off":
        return None
    return (
        "scenario.solver = 'resilient' with a resilience profile "
        "wraps the resilient executor in itself; name the primary "
        "solver and keep scenario.resilience, or use solver "
        "'resilient' with resilience 'off'"
    )


def _nonlinear_combiner_edge_solver(spec: NormalizedSpec, view: RegistryView):
    combiner = str(spec["scenario.combiner"])
    if combiner == "linear":
        return None
    solver = str(spec["scenario.solver"])
    if solver not in EDGE_DECOMPOSING_SOLVERS:
        return None
    return (
        f"the {combiner!r} combiner does not decompose over edges; "
        f"solver {solver!r} optimizes the per-edge surrogate, not the "
        "combined objective — greedy/local-search/exact optimize it "
        "directly"
    )


def _resume_needs_checkpoint_dir(
    spec: NormalizedSpec, view: RegistryView
):
    if not spec["runtime.resume"]:
        return None
    if str(spec["runtime.checkpoint_dir"]):
        return None
    return (
        "runtime.resume is on but runtime.checkpoint_dir is empty — "
        "there is no checkpoint directory to resume from; set "
        "runtime.checkpoint_dir (or --checkpoint)"
    )


#: Bases the sharded wrapper accepts.  Mirrors
#: ``repro.core.solvers.sharded.SUPPORTED_BASES`` — duplicated as a
#: literal because the spec layer must stay importable without the
#: core (a test pins the two in sync).
SHARDABLE_SOLVERS = (
    "auction",
    "flow",
    "greedy",
    "local-search",
    "pruned-greedy",
)

#: Bases the warm wrapper accepts when the solver is NOT sharded
#: (sharded wrapping is composed by the compiler itself).  Mirrors
#: ``repro.core.solvers.warm.SUPPORTED_BASES`` minus "sharded"
#: (composed, not configured).
WARMABLE_SOLVERS = (
    "auction",
    "flow",
    "greedy",
    "local-search",
    "pruned-greedy",
)

#: Knobs that only matter once sharding.enabled / sharding.warm is on.
SHARDING_DETAIL_KNOBS = (
    "sharding.strategy",
    "sharding.shards",
    "sharding.refine",
    "sharding.parallel_workers",
    "sharding.churn_threshold",
    "sharding.exact",
)


def _sharding_knobs_need_enable(spec: NormalizedSpec, view: RegistryView):
    if spec["sharding.enabled"] or spec["sharding.warm"]:
        return None
    ignored = [
        name for name in SHARDING_DETAIL_KNOBS if spec.is_set(name)
    ]
    if not ignored:
        return None
    return (
        f"sharding knob(s) {', '.join(ignored)} are set but both "
        "sharding.enabled and sharding.warm are false — they would be "
        "silently ignored; enable a wrapper or drop the knobs"
    )


def _sharding_base_supported(spec: NormalizedSpec, view: RegistryView):
    solver = str(spec["scenario.solver"])
    if spec["sharding.enabled"] and solver not in SHARDABLE_SOLVERS:
        return (
            f"sharding.enabled wraps scenario.solver in the sharded "
            f"solver, but {solver!r} is not a supported base "
            f"(supported: {', '.join(SHARDABLE_SOLVERS)})"
        )
    if (
        spec["sharding.warm"]
        and not spec["sharding.enabled"]
        and solver not in WARMABLE_SOLVERS
    ):
        return (
            f"sharding.warm wraps scenario.solver in the warm-start "
            f"solver, but {solver!r} is not a supported base "
            f"(supported: {', '.join(WARMABLE_SOLVERS)})"
        )
    return None


def _batch_window_needs_micro_batch(
    spec: NormalizedSpec, view: RegistryView
):
    if not spec.is_set("stream.batch_window"):
        return None
    if str(spec["stream.policy"]) == "micro-batch":
        return None
    return (
        f"stream.batch_window is set but stream.policy is "
        f"{spec['stream.policy']!r} — only the micro-batch policy "
        "flushes windows, so the knob would be silently ignored; "
        "set stream.policy = 'micro-batch' or drop the knob"
    )


def _sample_fraction_needs_sample_price(
    spec: NormalizedSpec, view: RegistryView
):
    if not spec.is_set("stream.sample_fraction"):
        return None
    if str(spec["stream.policy"]) == "sample-price":
        return None
    return (
        f"stream.sample_fraction is set but stream.policy is "
        f"{spec['stream.policy']!r} — only the sample-price policy "
        "calibrates on a sample, so the knob would be silently "
        "ignored; set stream.policy = 'sample-price' or drop the knob"
    )


def _slo_horizons_ordered(spec: NormalizedSpec, view: RegistryView):
    short = int(spec["slo.short_windows"])  # type: ignore[arg-type]
    long = int(spec["slo.long_windows"])  # type: ignore[arg-type]
    if long >= short:
        return None
    return (
        f"slo.long_windows {long} is shorter than slo.short_windows "
        f"{short} — burn-rate alerting needs the long horizon to "
        "cover at least the short one"
    )


def _slo_latency_percentiles_ordered(
    spec: NormalizedSpec, view: RegistryView
):
    p95, p99 = spec["slo.latency_p95"], spec["slo.latency_p99"]
    if p95 is None or p99 is None:
        return None
    if float(p99) >= float(p95):  # type: ignore[arg-type]
        return None
    return (
        f"slo.latency_p99 {p99} is below slo.latency_p95 {p95} — p99 "
        "is never smaller than p95, so the p95 rule could never pass "
        "while the p99 rule does"
    )


def _estimator_without_gold(spec: NormalizedSpec, view: RegistryView):
    if not spec["estimator.enabled"]:
        return None
    if float(spec["scenario.gold_fraction"]) > 0:  # type: ignore[arg-type]
        return None
    return (
        "estimator.enabled with gold_fraction 0: skills are learned "
        "only from aggregated labels (self-confirming for small "
        "committees); consider a small gold fraction"
    )


CONSTRAINTS: tuple[Constraint, ...] = (
    Constraint(
        id="C201",
        knobs=("scenario.gold_fraction", "estimator.enabled"),
        summary="gold_fraction requires an enabled estimator",
        check=_gold_needs_estimator,
    ),
    Constraint(
        id="C202",
        knobs=("scenario.solver_kwargs", "scenario.solver"),
        summary="solver_kwargs keys must match the solver's signature",
        check=_solver_kwargs_match_signature,
    ),
    Constraint(
        id="C203",
        knobs=(
            "scenario.solver",
            "scenario.solver_kwargs",
            "market.workers",
            "market.tasks",
        ),
        summary="jacobi auction mode requires a square market",
        check=_jacobi_needs_square,
    ),
    Constraint(
        id="C204",
        knobs=(
            "faults.rate",
            "faults.no_show_rate",
            "faults.answer_drop_rate",
            "faults.task_cancel_rate",
            "faults.solver_failure_rate",
            "faults.seed",
        ),
        summary="fault plans require an explicit seed",
        check=_faults_need_explicit_seed,
    ),
    Constraint(
        id="C205",
        knobs=("scenario.lam", "scenario.combiner"),
        summary="lam only configures the linear combiner",
        check=_lam_only_for_linear,
    ),
    Constraint(
        id="C206",
        knobs=("drift.enabled", "drift.floor", "drift.ceiling"),
        summary="drift floor must not exceed its ceiling",
        check=_drift_floor_below_ceiling,
    ),
    Constraint(
        id="C207",
        knobs=("scenario.solver", "scenario.resilience"),
        summary="no resilient executor wrapped in itself",
        check=_no_double_resilience,
    ),
    Constraint(
        id="C208",
        knobs=("runtime.resume", "runtime.checkpoint_dir"),
        summary="resume requires a checkpoint directory",
        check=_resume_needs_checkpoint_dir,
    ),
    Constraint(
        id="C209",
        knobs=(
            "sharding.enabled",
            "sharding.warm",
            "sharding.strategy",
            "sharding.shards",
            "sharding.refine",
            "sharding.parallel_workers",
            "sharding.churn_threshold",
            "sharding.exact",
        ),
        summary="sharding detail knobs require an enabled wrapper",
        check=_sharding_knobs_need_enable,
    ),
    Constraint(
        id="C210",
        knobs=(
            "sharding.enabled",
            "sharding.warm",
            "scenario.solver",
        ),
        summary="sharding/warm wrappers support specific base solvers",
        check=_sharding_base_supported,
    ),
    Constraint(
        id="C211",
        knobs=("stream.batch_window", "stream.policy"),
        summary="batch_window only configures the micro-batch policy",
        check=_batch_window_needs_micro_batch,
    ),
    Constraint(
        id="C212",
        knobs=("stream.sample_fraction", "stream.policy"),
        summary="sample_fraction only configures the sample-price policy",
        check=_sample_fraction_needs_sample_price,
    ),
    Constraint(
        id="C213",
        knobs=("slo.short_windows", "slo.long_windows"),
        summary="the long burn-rate horizon must cover the short one",
        check=_slo_horizons_ordered,
    ),
    Constraint(
        id="C214",
        knobs=("slo.latency_p95", "slo.latency_p99"),
        summary="latency p99 ceiling must not undercut the p95 ceiling",
        check=_slo_latency_percentiles_ordered,
    ),
    Constraint(
        id="W301",
        knobs=("scenario.combiner", "scenario.solver"),
        summary="non-linear combiner with an edge-decomposing solver",
        check=_nonlinear_combiner_edge_solver,
        severity="warning",
    ),
    Constraint(
        id="W302",
        knobs=("estimator.enabled", "scenario.gold_fraction"),
        summary="estimator without any gold supervision",
        check=_estimator_without_gold,
        severity="warning",
    ),
)


def run_constraints(
    spec: NormalizedSpec, view: RegistryView
) -> list[SpecDiagnostic]:
    """Evaluate the whole catalogue; diagnostics in catalogue order."""
    diagnostics = []
    for constraint in CONSTRAINTS:
        diagnostic = constraint.evaluate(spec, view)
        if diagnostic is not None:
            diagnostics.append(diagnostic)
    return diagnostics
