"""The declarative scenario schema: every knob, declared exactly once.

A *spec* is a TOML or JSON file describing one simulation scenario
(market shape, solver, combiner, estimator/gold loop, drift, faults,
resilience) plus an optional ``[axes]`` section turning scalar knobs
into swept dimensions.  This module is the single source of truth for
which knobs exist, their types, domains, and defaults — the compiler
(:mod:`repro.spec.compile`), the constraint engine
(:mod:`repro.spec.constraints`), the lattice generator
(:mod:`repro.spec.lattice`), and the R7xx config-integrity lint rules
(:mod:`repro.lint.rules.spec_integrity`) all read it and nothing else.

Deliberately **data only**: no imports beyond the stdlib, so the lint
rules can load the schema without dragging in solvers, markets, or
numpy.  Domains that depend on runtime registries (solver names,
aggregators, workloads, resilience profiles) are *named references*
resolved against a :class:`repro.spec.constraints.RegistryView` at
check time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Spec files must carry this header (``schema = "repro-spec/1"``).
SPEC_SCHEMA_VERSION = "repro-spec/1"

#: Sentinel: the knob's scenario-side default equals ``Knob.default``.
SAME_AS_DEFAULT = object()


@dataclass(frozen=True)
class Domain:
    """The legal value set of one knob.

    ``kind``:

    * ``"any"`` — anything of the knob's type;
    * ``"range"`` — numeric closed interval ``[low, high]``;
    * ``"choice"`` — one of ``choices``;
    * ``"registry"`` — one of ``choices`` *plus* the names published by
      the runtime registry ``registry`` (``"solvers"``,
      ``"aggregators"``, ``"workloads"``, ``"resilience_profiles"``,
      ``"combiners"``), resolved at check time.
    """

    kind: str = "any"
    low: float = -math.inf
    high: float = math.inf
    choices: tuple = ()
    registry: str = ""

    def render(self) -> str:
        if self.kind == "range":
            return f"[{self.low:g}, {self.high:g}]"
        if self.kind == "choice":
            return "{" + ", ".join(str(c) for c in self.choices) + "}"
        if self.kind == "registry":
            extra = "".join(f"{c} | " for c in self.choices)
            return f"{{{extra}<{self.registry}>}}"
        return "any"


ANY = Domain()
UNIT_INTERVAL = Domain(kind="range", low=0.0, high=1.0)
POSITIVE = Domain(kind="range", low=1e-12)
NON_NEGATIVE = Domain(kind="range", low=0.0)
AT_LEAST_ONE = Domain(kind="range", low=1)


@dataclass(frozen=True)
class Knob:
    """One scenario knob: name, type, domain, default — declared once.

    ``scenario_field`` names the :class:`repro.sim.scenario.Scenario`
    dataclass field this knob (possibly together with siblings in its
    section) configures; the R701 lint rule uses it to prove every
    dataclass field is schema-covered.  ``scenario_default`` is the
    *dataclass-side* default when it differs in spelling from the
    spec-side one (e.g. ``resilience`` is ``"off"`` in specs but
    ``None`` on the dataclass); R704 compares against it.
    ``cli_flag`` binds the knob to a ``simulate`` CLI option for the
    R702 drift check.  ``axis=False`` bars the knob from ``[axes]``
    (tables and structural knobs cannot be swept).
    """

    name: str
    type: str  # "str" | "int" | "float" | "bool" | "table"
    default: object
    domain: Domain = ANY
    required: bool = False
    scenario_field: str | None = None
    scenario_default: object = SAME_AS_DEFAULT
    cli_flag: str | None = None
    axis: bool = True
    description: str = ""


#: ``Scenario`` fields deliberately not spec-expressible.  Every entry
#: needs a reason; R701 treats the key set as covered so that *new*
#: fields still demand an explicit schema decision.
UNSPECCED_SCENARIO_FIELDS: dict[str, str] = {
    "task_refresh": (
        "a Callable task source; code-only by nature, specs reuse the "
        "market's initial tasks each round"
    ),
}

#: ``simulate`` CLI options that configure the *run harness*, not the
#: scenario; R702 accepts them without a schema binding.
CLI_OPERATIONAL_FLAGS = frozenset(
    {"--trace", "--live", "--register", "--registry", "--profile"}
)

SCENARIO_KNOBS: tuple[Knob, ...] = (
    # -- market ----------------------------------------------------------
    Knob(
        name="market.workload",
        type="str",
        default=None,
        domain=Domain(kind="registry", registry="workloads"),
        required=True,
        scenario_field="market",
        description="generator from repro.datagen's workload registry",
    ),
    Knob(
        name="market.workers",
        type="int",
        default=100,
        domain=AT_LEAST_ONE,
        description="worker population size",
    ),
    Knob(
        name="market.tasks",
        type="int",
        default=50,
        domain=AT_LEAST_ONE,
        description="tasks posted per round",
    ),
    Knob(
        name="market.seed",
        type="int",
        default=0,
        description="seed of the market generator's RNG stream",
    ),
    # -- run harness -----------------------------------------------------
    Knob(
        name="run.seed",
        type="int",
        default=0,
        cli_flag="--seed",
        description="seed of the simulation run itself",
    ),
    # -- run durability --------------------------------------------------
    Knob(
        name="runtime.checkpoint_dir",
        type="str",
        default="",
        cli_flag="--checkpoint",
        axis=False,
        description=(
            "checkpoint directory for resumable runs; empty disables "
            "checkpointing"
        ),
    ),
    Knob(
        name="runtime.resume",
        type="bool",
        default=False,
        cli_flag="--resume",
        axis=False,
        description=(
            "skip work already recorded in the checkpoint directory"
        ),
    ),
    Knob(
        name="runtime.task_timeout",
        type="float",
        default=0.0,
        domain=NON_NEGATIVE,
        axis=False,
        description=(
            "per-task wall-clock bound (seconds) under the supervised "
            "pool; 0 disables the timeout"
        ),
    ),
    Knob(
        name="runtime.max_point_retries",
        type="int",
        default=2,
        domain=NON_NEGATIVE,
        axis=False,
        description=(
            "retries (with seeded backoff) for a sweep point that "
            "raises, before it is quarantined"
        ),
    ),
    Knob(
        name="runtime.quarantine_after",
        type="int",
        default=3,
        domain=AT_LEAST_ONE,
        axis=False,
        description=(
            "definite crashes (kill/hang) after which a poison point "
            "is quarantined instead of retried"
        ),
    ),
    # -- scenario core ---------------------------------------------------
    Knob(
        name="scenario.solver",
        type="str",
        default="flow",
        domain=Domain(kind="registry", registry="solvers"),
        scenario_field="solver_name",
        cli_flag="--solver",
        description="registered solver used each round",
    ),
    Knob(
        name="scenario.solver_kwargs",
        type="table",
        default=None,
        scenario_field="solver_kwargs",
        scenario_default=None,
        axis=False,
        description=(
            "constructor arguments for the solver, checked against "
            "its registered signature"
        ),
    ),
    Knob(
        name="scenario.combiner",
        type="str",
        default="linear",
        domain=Domain(kind="registry", registry="combiners"),
        scenario_field="combiner",
        scenario_default=None,
        description="mutual-benefit combiner (linear/egalitarian/nash)",
    ),
    Knob(
        name="scenario.lam",
        type="float",
        default=0.5,
        domain=UNIT_INTERVAL,
        cli_flag="--lam",
        description="requester-vs-worker weight of the linear combiner",
    ),
    Knob(
        name="scenario.n_rounds",
        type="int",
        default=10,
        domain=AT_LEAST_ONE,
        scenario_field="n_rounds",
        cli_flag="--rounds",
        description="number of assignment rounds",
    ),
    Knob(
        name="scenario.aggregator",
        type="str",
        default="majority",
        domain=Domain(kind="registry", registry="aggregators"),
        scenario_field="aggregator",
        description="answer aggregator from the aggregator registry",
    ),
    Knob(
        name="scenario.gold_fraction",
        type="float",
        default=0.1,
        domain=UNIT_INTERVAL,
        scenario_field="gold_fraction",
        description=(
            "fraction of tasks whose ground truth feeds the estimator"
        ),
    ),
    Knob(
        name="scenario.workers_decline",
        type="bool",
        default=False,
        scenario_field="workers_decline",
        description="workers refuse negative-benefit assignments",
    ),
    Knob(
        name="scenario.resilience",
        type="str",
        default="off",
        domain=Domain(
            kind="registry",
            registry="resilience_profiles",
            choices=("off",),
        ),
        scenario_field="resilience",
        scenario_default=None,
        cli_flag="--resilience",
        description="resilient-executor profile, or 'off' for bare",
    ),
    # -- retention -------------------------------------------------------
    Knob(
        name="retention.enabled",
        type="bool",
        default=True,
        scenario_field="retention",
        scenario_default=None,
        cli_flag="--no-retention",
        description="worker churn driven by received benefit",
    ),
    Knob(
        name="retention.smoothing",
        type="float",
        default=0.3,
        domain=UNIT_INTERVAL,
        description="weight of the newest round in satisfaction",
    ),
    Knob(
        name="retention.expectation",
        type="float",
        default=0.5,
        domain=NON_NEGATIVE,
        description="per-round benefit a worker considers fair",
    ),
    Knob(
        name="retention.sharpness",
        type="float",
        default=4.0,
        domain=POSITIVE,
        description="slope of the logistic stay/leave link",
    ),
    Knob(
        name="retention.base_stay",
        type="float",
        default=0.9,
        domain=UNIT_INTERVAL,
        description="staying probability at exactly-met expectations",
    ),
    Knob(
        name="retention.rejoin_probability",
        type="float",
        default=0.02,
        domain=UNIT_INTERVAL,
        description="per-round chance an inactive worker returns",
    ),
    # -- estimator -------------------------------------------------------
    Knob(
        name="estimator.enabled",
        type="bool",
        default=False,
        scenario_field="estimator",
        scenario_default=None,
        description=(
            "plan on Beta-posterior skill estimates instead of truth"
        ),
    ),
    Knob(
        name="estimator.prior_a",
        type="float",
        default=7.0,
        domain=POSITIVE,
        description="Beta prior pseudo-successes",
    ),
    Knob(
        name="estimator.prior_b",
        type="float",
        default=3.0,
        domain=POSITIVE,
        description="Beta prior pseudo-failures",
    ),
    Knob(
        name="estimator.per_category",
        type="bool",
        default=True,
        description="one posterior per (worker, category) vs pooled",
    ),
    # -- drift -----------------------------------------------------------
    Knob(
        name="drift.enabled",
        type="bool",
        default=False,
        scenario_field="drift",
        scenario_default=None,
        description="learning-by-doing skill drift between rounds",
    ),
    Knob(
        name="drift.learning_rate",
        type="float",
        default=0.08,
        domain=UNIT_INTERVAL,
        description="progress toward the ceiling per completed task",
    ),
    Knob(
        name="drift.decay_rate",
        type="float",
        default=0.01,
        domain=UNIT_INTERVAL,
        description="regression toward the floor per idle round",
    ),
    Knob(
        name="drift.ceiling",
        type="float",
        default=0.98,
        domain=UNIT_INTERVAL,
        description="asymptote of practice",
    ),
    Knob(
        name="drift.floor",
        type="float",
        default=0.5,
        domain=UNIT_INTERVAL,
        description="asymptote of rust",
    ),
    # -- faults ----------------------------------------------------------
    Knob(
        name="faults.rate",
        type="float",
        default=0.0,
        domain=UNIT_INTERVAL,
        scenario_field="fault_plan",
        scenario_default=None,
        cli_flag="--fault-rate",
        description=(
            "uniform fault plan: edge faults at rate, task/solver "
            "faults at rate/2 (individual rates override)"
        ),
    ),
    Knob(
        name="faults.seed",
        type="int",
        default=0,
        cli_flag="--fault-seed",
        description="seed of the fault plan's own random stream",
    ),
    Knob(
        name="faults.no_show_rate",
        type="float",
        default=0.0,
        domain=UNIT_INTERVAL,
        description="per-edge silent non-delivery probability",
    ),
    Knob(
        name="faults.answer_drop_rate",
        type="float",
        default=0.0,
        domain=UNIT_INTERVAL,
        description="per-edge answer-loss probability",
    ),
    Knob(
        name="faults.task_cancel_rate",
        type="float",
        default=0.0,
        domain=UNIT_INTERVAL,
        description="per-task mid-round cancellation probability",
    ),
    Knob(
        name="faults.solver_failure_rate",
        type="float",
        default=0.0,
        domain=UNIT_INTERVAL,
        description="per-round forced solver-failure probability",
    ),
    # -- sharding / warm starts ------------------------------------------
    # These knobs have no scenario_field: the compiler *wraps* the
    # configured solver (sharded and/or warm) instead of adding engine
    # fields — the engine stays solver-agnostic.
    Knob(
        name="sharding.enabled",
        type="bool",
        default=False,
        description=(
            "wrap the scenario solver in the sharded partition-solve-"
            "refine wrapper"
        ),
    ),
    Knob(
        name="sharding.strategy",
        type="str",
        default="category",
        domain=Domain(
            kind="choice", choices=("category", "balanced", "none")
        ),
        description="shard plan: per-category, balanced k-way, or single",
    ),
    Knob(
        name="sharding.shards",
        type="int",
        default=0,
        domain=NON_NEGATIVE,
        description=(
            "shard count for the balanced strategy (0 = sqrt of the "
            "category count)"
        ),
    ),
    Knob(
        name="sharding.refine",
        type="bool",
        default=True,
        description="run the cross-shard boundary refinement pass",
    ),
    Knob(
        name="sharding.parallel_workers",
        type="int",
        default=0,
        domain=NON_NEGATIVE,
        description=(
            "solve shards on a supervised process pool of this size "
            "(0/1 = serial; auto-serial inside sweep pool workers)"
        ),
    ),
    Knob(
        name="sharding.warm",
        type="bool",
        default=False,
        description=(
            "wrap the (possibly sharded) solver in the warm-start "
            "wrapper: fingerprint replay + dual-state delta-solving"
        ),
    ),
    Knob(
        name="sharding.churn_threshold",
        type="float",
        default=0.25,
        domain=UNIT_INTERVAL,
        description=(
            "maximum membership-churn fraction for warm delta-solves"
        ),
    ),
    Knob(
        name="sharding.exact",
        type="bool",
        default=True,
        description=(
            "restrict warm starts to the bit-identical replay tier "
            "(False additionally enables approximate dual-state "
            "delta-solves)"
        ),
    ),
    # -- streaming dispatch ----------------------------------------------
    # These knobs have no scenario_field: ``python -m repro stream``
    # compiles them into a DispatchConfig for repro.stream, not into
    # the round engine's Scenario (round mode builds a Scenario from
    # stream.round_* plus the shared [scenario] knobs).
    Knob(
        name="stream.policy",
        type="str",
        default="greedy",
        domain=Domain(
            kind="choice",
            choices=("greedy", "sample-price", "micro-batch", "round"),
        ),
        description=(
            "dispatch policy: arrival-instant greedy, sample-and-"
            "price, micro-batch windows (flow solve on a "
            "RowwiseBenefit block, exact for edge-decomposable "
            "combiners), or round-engine delegation"
        ),
    ),
    Knob(
        name="stream.task_rate",
        type="float",
        default=4.0,
        domain=POSITIVE,
        description="Poisson task-posting rate (tasks per time unit)",
    ),
    Knob(
        name="stream.worker_rate",
        type="float",
        default=1.0,
        domain=POSITIVE,
        description="Poisson worker-login rate (logins per time unit)",
    ),
    Knob(
        name="stream.deadline",
        type="float",
        default=10.0,
        domain=POSITIVE,
        description="time a posted task stays open before expiring",
    ),
    Knob(
        name="stream.session_length",
        type="float",
        default=5.0,
        domain=POSITIVE,
        description="duration of each worker login session",
    ),
    Knob(
        name="stream.batch_window",
        type="float",
        default=1.0,
        domain=POSITIVE,
        description=(
            "micro-batch flush period (micro-batch policy only)"
        ),
    ),
    Knob(
        name="stream.sample_fraction",
        type="float",
        default=0.2,
        domain=UNIT_INTERVAL,
        description=(
            "fraction of worker arrivals forming the price-"
            "calibration sample (sample-price policy only)"
        ),
    ),
    Knob(
        name="stream.max_open_tasks",
        type="int",
        default=0,
        domain=NON_NEGATIVE,
        description=(
            "backpressure bound on the open-task queue; arrivals "
            "beyond it are dropped and counted (0 = unbounded)"
        ),
    ),
    Knob(
        name="stream.writer_batch",
        type="int",
        default=256,
        domain=AT_LEAST_ONE,
        description="assignment-record writer flush batch size",
    ),
    Knob(
        name="stream.round_rounds",
        type="int",
        default=10,
        domain=AT_LEAST_ONE,
        description="round count when policy = 'round'",
    ),
    # -- SLO monitoring ---------------------------------------------------
    # Like the stream knobs these have no scenario_field: ``python -m
    # repro monitor`` compiles them into the SLO rule catalogue
    # (repro.obs.slo) evaluated against the run's live telemetry.
    # Threshold knobs default to None, meaning "rule disabled".
    Knob(
        name="slo.window",
        type="float",
        default=1.0,
        domain=POSITIVE,
        description=(
            "telemetry aggregation window width (event-time units "
            "for stream mode, rounds for sim mode)"
        ),
    ),
    Knob(
        name="slo.latency_p95",
        type="float",
        default=None,
        domain=POSITIVE,
        description="per-window assignment-wait p95 ceiling",
    ),
    Knob(
        name="slo.latency_p99",
        type="float",
        default=None,
        domain=POSITIVE,
        description="per-window assignment-wait p99 ceiling",
    ),
    Knob(
        name="slo.throughput_floor",
        type="float",
        default=None,
        domain=POSITIVE,
        description=(
            "assignments-per-time-unit floor (counter rate over the "
            "window)"
        ),
    ),
    Knob(
        name="slo.drop_rate",
        type="float",
        default=None,
        domain=POSITIVE,
        description="backpressure drop rate ceiling (drops per time unit)",
    ),
    Knob(
        name="slo.gini_ceiling",
        type="float",
        default=None,
        domain=UNIT_INTERVAL,
        description=(
            "per-window worker-benefit Gini coefficient ceiling"
        ),
    ),
    Knob(
        name="slo.participation_floor",
        type="float",
        default=None,
        domain=UNIT_INTERVAL,
        description=(
            "floor on the fraction of online workers assigned work "
            "per window"
        ),
    ),
    Knob(
        name="slo.starvation_ceiling",
        type="float",
        default=None,
        domain=UNIT_INTERVAL,
        description=(
            "ceiling on the fraction of online workers unassigned "
            "for two consecutive windows"
        ),
    ),
    Knob(
        name="slo.short_windows",
        type="int",
        default=3,
        domain=AT_LEAST_ONE,
        description="short burn-rate horizon (windows)",
    ),
    Knob(
        name="slo.long_windows",
        type="int",
        default=6,
        domain=AT_LEAST_ONE,
        description="long burn-rate horizon (windows)",
    ),
)

#: Name -> knob, the lookup every consumer uses.
KNOBS: dict[str, Knob] = {knob.name: knob for knob in SCENARIO_KNOBS}

#: Sections a spec file may contain (top level of the TOML/JSON tree).
SECTIONS: tuple[str, ...] = tuple(
    sorted({knob.name.split(".", 1)[0] for knob in SCENARIO_KNOBS})
) + ("axes",)


def knob_names() -> tuple[str, ...]:
    """Sorted declared knob names."""
    return tuple(sorted(KNOBS))


def scenario_field_coverage() -> frozenset[str]:
    """``Scenario`` dataclass fields the schema claims to configure."""
    return frozenset(
        knob.scenario_field
        for knob in SCENARIO_KNOBS
        if knob.scenario_field is not None
    ) | frozenset(UNSPECCED_SCENARIO_FIELDS)


def cli_flag_map() -> dict[str, str]:
    """``--flag`` -> knob name for every CLI-bound knob."""
    return {
        knob.cli_flag: knob.name
        for knob in SCENARIO_KNOBS
        if knob.cli_flag is not None
    }


def defaults() -> dict[str, object]:
    """Effective value of every knob before the file says anything."""
    return {knob.name: knob.default for knob in SCENARIO_KNOBS}


@dataclass(frozen=True)
class NormalizedSpec:
    """A spec reduced to flat dotted knobs plus explicitness.

    ``values`` holds the *effective* value of every declared knob
    (file value where given, schema default otherwise); ``explicit``
    records which knobs the file actually set — several constraints
    (gold-without-estimator, faults-without-seed) key on intent, not
    on effective values.  ``axes`` maps swept knob names to their
    value lists.
    """

    values: dict[str, object] = field(default_factory=dict)
    explicit: frozenset[str] = frozenset()
    axes: dict[str, list] = field(default_factory=dict)

    def is_set(self, name: str) -> bool:
        return name in self.explicit

    def __getitem__(self, name: str) -> object:
        return self.values[name]
