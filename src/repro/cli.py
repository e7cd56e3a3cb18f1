"""Command-line interface: ``python -m repro <command>``.

Four commands cover the operational surface a platform engineer needs:

* ``generate`` — materialize a workload to a JSON market file;
* ``solve`` — load a market, run a solver, report both sides' totals
  (optionally saving the assignment);
* ``simulate`` — run the round-based simulation and print per-round
  metrics;
* ``experiment`` — run one of the registered evaluation experiments
  and print its table (and, for figure-type results, an ASCII chart).

Plus operational commands: ``sweep`` (spec-lattice sweeps under the
supervised pool with ``--checkpoint``/``--resume`` durability and
chaos injection), ``compare`` (solver comparison with CIs),
``events`` (a market file through the online dispatcher), ``lint``
(static analysis),
``spec`` (scenario spec files: ``check`` validates them without
building a market, ``expand`` enumerates their ``[axes]`` lattice,
``schema`` prints the knob catalogue; see ``docs/scenarios.md``),
``bench`` (performance suites with baseline regression checks),
``trace`` (replay/summarize a JSONL trace exported by a run with
``--trace``), ``monitor`` (run a spec under live telemetry and gate
on its ``[slo]`` burn-rate rules — exit 1 on a page-level alert),
``profile`` (span-attributed sampling profiler over a bench case;
``--profile`` also rides on simulate/stream/bench), and ``obs``
(cross-run observability: the run registry, ``obs diff`` regression
detection, and the ``obs report`` HTML dashboard; see
``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import obs
from repro.benefit.mutual import LinearCombiner
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver, list_solvers
from repro.datagen.traces import workload_registry
from repro.errors import ReproError
from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.io import (
    assignment_to_dict,
    load_market,
    save_market,
)
from repro.market.retention import RetentionModel
from repro.resilience import RESILIENCE_PROFILES, FaultPlan
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario


def _add_register_arguments(parser: argparse.ArgumentParser) -> None:
    """``--register``/``--registry`` for every command with ``--trace``."""
    parser.add_argument(
        "--register", action="store_true",
        help="archive the exported trace in the run registry so later "
        "runs can `obs diff`/`obs report` against it (requires --trace)",
    )
    parser.add_argument(
        "--registry", default=obs.DEFAULT_REGISTRY_ROOT, metavar="DIR",
        help="run-registry directory (default: %(default)s)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mutual benefit aware task assignment (ICDE 2016 repro)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="generate a workload market JSON"
    )
    generate.add_argument(
        "workload", choices=sorted(workload_registry()),
    )
    generate.add_argument("output", help="output JSON path")
    generate.add_argument("--workers", type=int, default=100)
    generate.add_argument("--tasks", type=int, default=50)
    generate.add_argument("--seed", type=int, default=0)

    solve = commands.add_parser("solve", help="assign a saved market")
    solve.add_argument("market", help="market JSON path")
    solve.add_argument("--solver", default="flow", choices=list_solvers())
    solve.add_argument("--lam", type=float, default=0.5)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--output", help="write the assignment JSON here")
    solve.add_argument(
        "--report", action="store_true",
        help="print the full diagnostic report",
    )

    simulate = commands.add_parser(
        "simulate", help="run the round-based simulation"
    )
    simulate.add_argument("market", help="market JSON path")
    simulate.add_argument("--solver", default="flow", choices=list_solvers())
    simulate.add_argument("--rounds", type=int, default=10)
    simulate.add_argument("--lam", type=float, default=0.5)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument(
        "--no-retention", action="store_true",
        help="disable worker churn",
    )
    simulate.add_argument(
        "--checkpoint", metavar="DIR",
        help="checkpoint directory: the full simulation state is "
        "saved atomically each round so an interrupted run can "
        "--resume bit-identically (see docs/resilience.md)",
    )
    simulate.add_argument(
        "--resume", action="store_true",
        help="resume from the state saved under --checkpoint instead "
        "of starting at round 0",
    )
    simulate.add_argument(
        "--resilience", default="off",
        choices=("off", *sorted(RESILIENCE_PROFILES)),
        help="wrap the solver in the resilient executor (deadline, "
        "escalating retries, fallback chain); 'off' runs it bare and "
        "a failed round degrades to an empty round",
    )
    simulate.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="RATE",
        help="inject faults: each edge no-shows / loses its answer "
        "with RATE, tasks cancel and the solver is failed with RATE/2 "
        "(seeded by --fault-seed; see docs/resilience.md)",
    )
    simulate.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed of the fault plan's own random stream",
    )
    simulate.add_argument(
        "--trace", metavar="PATH",
        help="record per-round spans and counters (repro.obs) and "
        "export them to PATH as JSONL; summarize with "
        "`python -m repro trace PATH`",
    )
    simulate.add_argument(
        "--live", action="store_true",
        help="with --trace: stream one span/counter line per round as "
        "it closes, instead of staying silent until the run ends",
    )
    simulate.add_argument(
        "--profile", metavar="PATH",
        help="sample the run with the span-attributed profiler and "
        "write collapsed-stack flamegraph lines to PATH",
    )
    _add_register_arguments(simulate)

    experiment = commands.add_parser(
        "experiment", help="run a registered evaluation experiment"
    )
    experiment.add_argument("id", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--scale", type=float, default=1.0)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--trace", metavar="PATH",
        help="record spans and counters while the experiment runs and "
        "export them to PATH as JSONL",
    )
    _add_register_arguments(experiment)

    sweep = commands.add_parser(
        "sweep",
        help="sweep a scenario spec's [axes] lattice under the "
        "supervised process pool, with checkpoint/resume durability "
        "and optional chaos injection",
    )
    sweep.add_argument("spec", help="spec file (.toml or .json)")
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size; 1 runs serially in this process",
    )
    sweep.add_argument(
        "--repetitions", type=int, default=3,
        help="seeded repetitions per lattice point",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--limit", type=int, default=None, metavar="K",
        help="deterministically subsample K valid lattice points",
    )
    sweep.add_argument(
        "--mp-context", default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method (default: the platform's)",
    )
    # Durability knobs: an unset flag (None default) falls back to the
    # spec's [runtime] table, so specs carry their own policy and the
    # command line only overrides it.
    sweep.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="checkpoint directory: completed points persist "
        "atomically as they finish (default: runtime.checkpoint_dir)",
    )
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip the points already recorded under the checkpoint "
        "directory (or set runtime.resume in the spec)",
    )
    sweep.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock bound under the pool; 0 disables "
        "(default: runtime.task_timeout)",
    )
    sweep.add_argument(
        "--max-point-retries", type=int, default=None, metavar="N",
        help="retries with seeded backoff for a point that raises "
        "(default: runtime.max_point_retries)",
    )
    sweep.add_argument(
        "--quarantine-after", type=int, default=None, metavar="N",
        help="definite crashes after which a point is quarantined "
        "(default: runtime.quarantine_after)",
    )
    # Chaos injection (durability testing; needs --workers > 1).
    sweep.add_argument(
        "--chaos-kill", type=float, default=0.0, metavar="RATE",
        help="SIGKILL the worker before a point with RATE",
    )
    sweep.add_argument(
        "--chaos-hang", type=float, default=0.0, metavar="RATE",
        help="hang the worker before a point with RATE (needs "
        "--task-timeout to recover)",
    )
    sweep.add_argument(
        "--chaos-slow", type=float, default=0.0, metavar="RATE",
        help="delay a point with RATE",
    )
    sweep.add_argument("--chaos-seed", type=int, default=0)
    sweep.add_argument(
        "--chaos-hang-seconds", type=float, default=3600.0,
        help="how long an injected hang sleeps",
    )

    compare = commands.add_parser(
        "compare",
        help="compare solvers over seeded instances with CIs + sign test",
    )
    compare.add_argument(
        "solvers", nargs="+",
        help="registered solver names; first is the baseline",
    )
    compare.add_argument(
        "--workload", default="synthetic-uniform",
        choices=sorted(workload_registry()),
    )
    compare.add_argument("--workers", type=int, default=60)
    compare.add_argument("--tasks", type=int, default=30)
    compare.add_argument("--instances", type=int, default=20)
    compare.add_argument("--lam", type=float, default=0.5)
    compare.add_argument("--seed", type=int, default=0)
    compare.add_argument(
        "--trace", metavar="PATH",
        help="record spans and counters during the comparison and "
        "export them to PATH as JSONL",
    )
    _add_register_arguments(compare)

    from repro.stream import ONLINE_POLICIES, DispatchConfig

    events = commands.add_parser(
        "events",
        help="stream a market file through the online dispatcher: each "
        "task and worker arrives once, at Poisson rates",
    )
    events.add_argument("market", help="market JSON path")
    events.add_argument(
        "--task-rate", type=float, default=DispatchConfig.task_rate
    )
    events.add_argument(
        "--worker-rate", type=float, default=DispatchConfig.worker_rate
    )
    events.add_argument(
        "--deadline", type=float, default=DispatchConfig.deadline
    )
    events.add_argument(
        "--session", type=float, default=DispatchConfig.session_length
    )
    events.add_argument(
        "--policy", default=DispatchConfig.policy, choices=ONLINE_POLICIES
    )
    events.add_argument("--seed", type=int, default=0)
    events.add_argument(
        "--trace", metavar="PATH",
        help="record spans and counters during the dispatch run and "
        "export them to PATH as JSONL",
    )
    _add_register_arguments(events)

    stream = commands.add_parser(
        "stream",
        help="run the streaming dispatch service over a spec's market: "
        "continuous arrivals, incremental assignment (see "
        "docs/streaming.md)",
    )
    stream.add_argument(
        "spec", help="spec file (.toml or .json) with a [stream] section"
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--output", metavar="PATH",
        help="append assignment records to PATH as JSONL, flushed in "
        "writer-batch-sized chunks while the market runs",
    )
    stream.add_argument(
        "--trace", metavar="PATH",
        help="record spans, counters, and latency gauges during the "
        "dispatch run and export them to PATH as JSONL",
    )
    stream.add_argument(
        "--live", action="store_true",
        help="print a progress line as assignment records are emitted "
        "(works with or without --trace)",
    )
    stream.add_argument(
        "--profile", metavar="PATH",
        help="sample the dispatch run with the span-attributed "
        "profiler and write collapsed-stack flamegraph lines to PATH",
    )
    _add_register_arguments(stream)

    lint = commands.add_parser(
        "lint",
        help="run the repro static-analysis pass (RNG discipline, "
        "solver contract, import layering, numeric hygiene)",
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files or directories to check (default: the installed "
        "repro package)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        dest="output_format",
    )
    lint.add_argument(
        "--select", action="append", metavar="RULE",
        help="run only these rule ids (repeatable)",
    )
    lint.add_argument(
        "--ignore", action="append", metavar="RULE",
        help="skip these rule ids (repeatable)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )

    spec = commands.add_parser(
        "spec",
        help="scenario specs: statically check TOML/JSON spec files, "
        "expand their [axes] lattice, print the knob schema",
    )
    spec_actions = spec.add_subparsers(dest="spec_command", required=True)

    spec_check = spec_actions.add_parser(
        "check",
        help="validate spec files without building a single market; "
        "exits 1 on any error diagnostic",
    )
    spec_check.add_argument(
        "paths", nargs="+", help="spec files (.toml or .json)"
    )
    spec_check.add_argument(
        "--strict", action="store_true",
        help="treat warnings as errors",
    )

    spec_expand = spec_actions.add_parser(
        "expand",
        help="enumerate the spec's [axes] product, keeping only "
        "checker-clean scenarios (dropped corners are counted)",
    )
    spec_expand.add_argument("path", help="spec file (.toml or .json)")
    spec_expand.add_argument(
        "--sample", type=int, default=None, metavar="K",
        help="deterministically subsample K valid points",
    )
    spec_expand.add_argument(
        "--seed", type=int, default=0,
        help="seed of the --sample draw",
    )
    spec_expand.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON object per point (id, axes, payload) "
        "instead of the table",
    )

    spec_actions.add_parser(
        "schema", help="print the declared knob catalogue"
    )

    bench = commands.add_parser(
        "bench",
        help="run the performance suites, write BENCH_<tag>.json, and "
        "fail on regression vs the committed baseline",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="small instances (CI smoke pass, seconds not minutes)",
    )
    bench.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply every instance size",
    )
    bench.add_argument(
        "--suite", action="append", metavar="SUITE",
        help="run only these suites (repeatable; default: all)",
    )
    bench.add_argument(
        "--tag", default="local",
        help="label for the BENCH_<tag>.json artifact",
    )
    bench.add_argument(
        "--output-dir", default=".",
        help="directory the BENCH_<tag>.json is written into",
    )
    bench.add_argument(
        "--baseline", default="benchmarks/perf_baseline.json",
        help="committed baseline file to compare against",
    )
    bench.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from this run instead of comparing",
    )
    bench.add_argument(
        "--threshold", type=float, default=None,
        help="regression allowance as a fraction of the baseline wall "
        "time (default 0.5: fail beyond 1.5x the baseline)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3,
        help="best-of-N timing repeats per case",
    )
    bench.add_argument(
        "--no-fail", action="store_true",
        help="report regressions but exit 0 anyway (checksum "
        "mismatches still fail)",
    )
    bench.add_argument(
        "--registry", default=None, metavar="DIR",
        help="run registry used to span-diff this run against the "
        "previous bench run of the same tag (default: "
        "<output-dir>/.repro-runs)",
    )
    bench.add_argument(
        "--no-register", action="store_true",
        help="skip archiving this run's trace and the advisory span "
        "diff against the previous run of the same tag",
    )
    bench.add_argument(
        "--profile", metavar="PATH",
        help="sample the whole bench run with the span-attributed "
        "profiler and write collapsed-stack flamegraph lines to PATH",
    )

    monitor = commands.add_parser(
        "monitor",
        help="run a spec under live telemetry and gate on its [slo] "
        "burn-rate rules: exits 1 when any rule pages (see "
        "docs/observability.md)",
    )
    monitor.add_argument(
        "spec",
        help="spec file (.toml or .json); [stream] knobs select the "
        "streaming dispatcher, otherwise the round engine runs",
    )
    monitor.add_argument(
        "--slo", metavar="FILE", default=None,
        help="TOML/JSON file whose [slo] table overrides the spec's "
        "own [slo] knobs (shared gate thresholds across specs)",
    )
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument(
        "--alerts", metavar="PATH", default=None,
        help="write the JSONL alert log (one line per state "
        "transition, schema repro-obs-alerts/1) to PATH",
    )

    profile_cmd = commands.add_parser(
        "profile",
        help="run one bench case under the span-attributed sampling "
        "profiler and write collapsed-stack flamegraph lines "
        "(flamegraph.pl / speedscope compatible)",
    )
    profile_cmd.add_argument(
        "case", nargs="?", default=None,
        help="bench case name, e.g. 'flow/n=15' (--list shows names)",
    )
    profile_cmd.add_argument(
        "--list", action="store_true", dest="list_cases",
        help="list the available case names and exit",
    )
    profile_cmd.add_argument(
        "--output", default="profile.collapsed", metavar="PATH",
        help="collapsed-stack output path (default: %(default)s)",
    )
    profile_cmd.add_argument(
        "--quick", action="store_true",
        help="small instances (same sizes as `bench --quick`)",
    )
    profile_cmd.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply the instance size",
    )
    profile_cmd.add_argument(
        "--interval", type=float, default=obs.DEFAULT_INTERVAL,
        help="sampling interval in seconds (default: %(default)s)",
    )

    trace = commands.add_parser(
        "trace",
        help="validate and summarize a JSONL trace exported with "
        "--trace (top spans by self time, counter totals, per-round "
        "table)",
    )
    trace.add_argument("path", help="trace JSONL path")
    trace.add_argument(
        "--top", type=int, default=10,
        help="how many span names to list in the time ranking",
    )

    obs_cmd = commands.add_parser(
        "obs",
        help="cross-run observability: the run registry "
        "(register/list/prune), span-level regression diffs, and the "
        "self-contained HTML dashboard",
    )
    obs_actions = obs_cmd.add_subparsers(dest="obs_command", required=True)

    obs_register = obs_actions.add_parser(
        "register", help="archive a trace file in the run registry"
    )
    obs_register.add_argument("trace", help="trace JSONL path")
    obs_register.add_argument(
        "--tag", default=None,
        help="registry tag (default: the trace header's tag)",
    )
    obs_register.add_argument("--seed", type=int, default=None)
    obs_register.add_argument(
        "--scenario", default=None,
        help="free-form scenario label stored in the index",
    )

    obs_list = obs_actions.add_parser(
        "list", help="list registered runs, oldest first"
    )
    obs_list.add_argument("--tag", default=None, help="only this tag")

    obs_prune = obs_actions.add_parser(
        "prune", help="drop all but the newest KEEP registered runs"
    )
    obs_prune.add_argument("keep", type=int, metavar="KEEP")
    obs_prune.add_argument("--tag", default=None, help="only this tag")

    obs_diff = obs_actions.add_parser(
        "diff",
        help="per-span self-time/counter diff of two runs; exits 1 "
        "when span self time regresses beyond the threshold",
    )
    obs_diff.add_argument(
        "a", help="baseline run: trace path, run-id prefix, or tag"
    )
    obs_diff.add_argument(
        "b", help="candidate run: trace path, run-id prefix, or tag"
    )
    obs_diff.add_argument(
        "--threshold", type=float, default=obs.DEFAULT_DIFF_THRESHOLD,
        help="regression allowance as a fraction of baseline self "
        "time (default %(default)s: flag beyond 1.5x)",
    )
    obs_diff.add_argument(
        "--noise-floor", type=float, default=obs.DEFAULT_NOISE_FLOOR,
        help="ignore self-time growth below this many seconds "
        "(default %(default)s)",
    )
    obs_diff.add_argument(
        "--top", type=int, default=15,
        help="how many span rows to print",
    )

    obs_report = obs_actions.add_parser(
        "report",
        help="render a run as a self-contained HTML dashboard "
        "(timeline, flame view, counter sparklines); give two runs "
        "for a side-by-side diff section",
    )
    obs_report.add_argument(
        "runs", nargs="+", metavar="RUN",
        help="one run, or `BASELINE CANDIDATE` (each a trace path, "
        "run-id prefix, or tag)",
    )
    obs_report.add_argument(
        "--output", default="obs_report.html", metavar="PATH",
        help="HTML output path (default: %(default)s)",
    )
    obs_report.add_argument(
        "--title", default=None, help="page title override"
    )
    obs_report.add_argument(
        "--threshold", type=float, default=obs.DEFAULT_DIFF_THRESHOLD,
        help="diff regression threshold (two-run form only)",
    )
    obs_report.add_argument(
        "--noise-floor", type=float, default=obs.DEFAULT_NOISE_FLOOR,
        help="diff noise floor in seconds (two-run form only)",
    )

    for sub in (obs_register, obs_list, obs_prune, obs_diff, obs_report):
        sub.add_argument(
            "--registry", default=obs.DEFAULT_REGISTRY_ROOT,
            metavar="DIR",
            help="run-registry directory (default: %(default)s)",
        )

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    make = workload_registry()[args.workload]
    market = make(n_workers=args.workers, n_tasks=args.tasks, seed=args.seed)
    save_market(market, args.output)
    print(f"wrote {market} to {args.output}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    market = load_market(args.market)
    problem = MBAProblem(market, combiner=LinearCombiner(args.lam))
    assignment = get_solver(args.solver).solve(problem, seed=args.seed)
    print(
        f"{args.solver}: {len(assignment)} edges | "
        f"requester {assignment.requester_total():.3f} | "
        f"worker {assignment.worker_total():.3f} | "
        f"combined {assignment.combined_total():.3f}"
    )
    if args.report:
        from repro.core.analysis import analyze

        print()
        print(analyze(assignment).render())
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(assignment_to_dict(assignment), handle, indent=2)
        print(f"wrote assignment to {args.output}")
    return 0


def _finish_trace(
    tracer: obs.Tracer,
    args: argparse.Namespace,
    tag: str,
    scenario: str | None = None,
) -> None:
    """Export a command's tracer and (with ``--register``) archive it."""
    path = obs.write_trace(tracer, args.trace, tag=tag)
    print(f"wrote trace ({len(tracer.spans)} spans) to {path}")
    if getattr(args, "register", False):
        registry = obs.RunRegistry(args.registry)
        entry = registry.register(
            path,
            tag=tag,
            seed=getattr(args, "seed", None),
            scenario=scenario,
            git_rev=obs.current_git_rev(),
        )
        print(
            f"registered run {entry.tag}@{entry.run_id} "
            f"in {registry.root}"
        )


def _profiling(args: argparse.Namespace, tracer: obs.Tracer):
    """A running :class:`~repro.obs.SpanProfiler` context when
    ``--profile`` was given, else a null context yielding ``None``."""
    import contextlib

    if not getattr(args, "profile", None):
        return contextlib.nullcontext(None)
    return obs.SpanProfiler(tracer=tracer)


def _finish_profile(profiler, args: argparse.Namespace) -> None:
    """Write the ``--profile`` collapsed-stack file and say where the
    samples landed."""
    if profiler is None:
        return
    path = profiler.write(args.profile)
    totals = profiler.span_totals()
    top = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    hot = ", ".join(f"{name} ({count})" for name, count in top[:3])
    print(
        f"wrote profile ({profiler.n_samples} samples, "
        f"{len(profiler.samples)} stacks) to {path}"
        + (f" | hottest spans: {hot}" if hot else "")
    )


def _live_printer(tracer: obs.Tracer):
    """Tracer sink for ``simulate --trace --live``.

    Child spans close before their parent, so by the time the sink
    sees a root ``round`` span every stage inside it is already
    recorded; spans appended after the round opened are exactly the
    ones with a higher index, so the scan stays bounded by the round's
    own size.  Counters are cumulative, so per-round work is the delta
    against the previous round's snapshot.
    """
    last_counters: dict[str, float] = {}

    def on_close(record: obs.SpanRecord) -> None:
        if record.name != "round" or record.depth != 0:
            return
        stages: dict[str, float] = {}
        for span in tracer.spans[record.index + 1:]:
            if span.parent == record.index and not span.open:
                stages[span.name] = (
                    stages.get(span.name, 0.0) + span.duration
                )
        counters = tracer.metrics.counters
        deltas = {
            name: counters[name] - last_counters.get(name, 0.0)
            for name in sorted(counters)
            if counters[name] != last_counters.get(name, 0.0)
        }
        last_counters.clear()
        last_counters.update(counters)
        index = record.tags.get("index", "?")
        outcome = record.tags.get("outcome", "ok")
        parts = [f"[round {index}] {record.duration:.4f}s {outcome}"]
        if stages:
            parts.append(
                " ".join(
                    f"{name}={duration:.4f}s"
                    for name, duration in stages.items()
                )
            )
        if deltas:
            parts.append(
                " ".join(
                    f"{name}=+{value:g}"
                    for name, value in deltas.items()
                )
            )
        print(" | ".join(parts), flush=True)

    return on_close


def _cmd_simulate(args: argparse.Namespace) -> int:
    market = load_market(args.market)
    fault_plan = (
        FaultPlan.uniform(args.fault_rate, seed=args.fault_seed)
        if args.fault_rate > 0
        else None
    )
    scenario = Scenario(
        market=market,
        solver_name=args.solver,
        combiner=LinearCombiner(args.lam),
        n_rounds=args.rounds,
        retention=None if args.no_retention else RetentionModel(),
        fault_plan=fault_plan,
        resilience=None if args.resilience == "off" else args.resilience,
    )
    if args.live and not args.trace:
        print("error: --live requires --trace", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return 2
    run_kwargs = dict(
        seed=args.seed, checkpoint=args.checkpoint, resume=args.resume
    )
    try:
        if args.trace or args.profile:
            tracer = obs.Tracer()
            if args.live:
                tracer.sink = _live_printer(tracer)
            with obs.tracing(tracer):
                with _profiling(args, tracer) as profiler:
                    result = Simulation(scenario).run(**run_kwargs)
            if args.trace:
                _finish_trace(
                    tracer, args, tag="simulate",
                    scenario=f"{args.solver}:{args.market}",
                )
            _finish_profile(profiler, args)
        else:
            result = Simulation(scenario).run(**run_kwargs)
    except KeyboardInterrupt:
        if args.checkpoint:
            print(
                f"\ninterrupted; state saved — rerun with "
                f"--checkpoint {args.checkpoint} --resume to continue",
                file=sys.stderr,
            )
        else:
            print("\ninterrupted", file=sys.stderr)
        return 130
    print(
        f"{'round':>5s} {'active':>6s} {'edges':>5s} {'accuracy':>8s} "
        f"{'participation':>13s} {'faulted':>7s} {'retries':>7s} "
        f"{'tier':>4s}"
    )
    for r in result.rounds:
        print(
            f"{r.round_index:5d} {r.n_active_workers:6d} "
            f"{r.n_assigned_edges:5d} {r.aggregated_accuracy:8.3f} "
            f"{r.participation_rate:13.3f} {r.faulted_edges:7d} "
            f"{r.solver_retries:7d} {r.fallback_tier:4d}"
        )
    print(
        f"\nmean accuracy {result.mean_accuracy:.3f}, final participation "
        f"{result.final_participation:.3f}"
    )
    if fault_plan is not None or scenario.resilience is not None:
        print(
            f"faulted edges {result.total_faulted_edges}, solver retries "
            f"{result.total_solver_retries}, degraded rounds "
            f"{result.degraded_rounds}/{len(result.rounds)}"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.trace:
        with obs.tracing() as tracer:
            table = run_experiment(args.id, scale=args.scale, seed=args.seed)
        _finish_trace(
            tracer, args, tag=f"experiment-{args.id}", scenario=args.id
        )
    else:
        table = run_experiment(args.id, scale=args.scale, seed=args.seed)
    print(table.render())
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.eval.sweep import sweep_spec
    from repro.resilience.faults import ChaosPlan
    from repro.resilience.runtime import RuntimePolicy
    from repro.spec.compile import load_spec, normalize

    # The spec's [runtime] table supplies the durability defaults; an
    # explicitly-given flag (non-None) overrides it.  Lattice checking
    # itself happens inside sweep_spec.
    spec, diagnostics = normalize(load_spec(args.spec))
    errors = [d for d in diagnostics if d.severity == "error"]
    if spec is None or errors:
        for diagnostic in errors or diagnostics:
            print(f"  {diagnostic.render()}", file=sys.stderr)
        print(f"error: invalid spec {args.spec}", file=sys.stderr)
        return 2
    checkpoint = (
        args.checkpoint
        if args.checkpoint is not None
        else str(spec["runtime.checkpoint_dir"]) or None
    )
    resume = args.resume or bool(spec["runtime.resume"])
    if resume and checkpoint is None:
        print(
            "error: --resume requires --checkpoint (or "
            "runtime.checkpoint_dir in the spec)",
            file=sys.stderr,
        )
        return 2
    task_timeout = (
        args.task_timeout
        if args.task_timeout is not None
        else float(spec["runtime.task_timeout"])  # type: ignore[arg-type]
    )
    policy = RuntimePolicy(
        task_timeout=task_timeout if task_timeout > 0 else None,
        max_point_retries=(
            args.max_point_retries
            if args.max_point_retries is not None
            else int(spec["runtime.max_point_retries"])  # type: ignore[arg-type]
        ),
        quarantine_after=(
            args.quarantine_after
            if args.quarantine_after is not None
            else int(spec["runtime.quarantine_after"])  # type: ignore[arg-type]
        ),
    )
    chaos = None
    if args.chaos_kill or args.chaos_hang or args.chaos_slow:
        chaos = ChaosPlan(
            seed=args.chaos_seed,
            kill_rate=args.chaos_kill,
            hang_rate=args.chaos_hang,
            slow_rate=args.chaos_slow,
            hang_seconds=args.chaos_hang_seconds,
        )
    result = sweep_spec(
        args.spec,
        repetitions=args.repetitions,
        seed=args.seed,
        workers=args.workers,
        mp_context=args.mp_context,
        limit=args.limit,
        checkpoint=checkpoint,
        resume=resume,
        policy=policy,
        chaos=chaos,
    )
    by_scenario = result.by_scenario()
    if by_scenario:
        print(f"{'scenario':<20s} {'mean value':>10s} {'mean time':>10s}")
        for scenario_id, (value, elapsed) in by_scenario.items():
            print(f"{scenario_id:<20s} {value:10.4f} {elapsed:9.3f}s")
    stats = result.stats
    print(
        f"\nsweep: completed {stats.completed} | skipped {stats.skipped} "
        f"| retries {stats.retries} | worker restarts "
        f"{stats.worker_restarts} | timeouts {stats.timeouts} | "
        f"quarantined {len(stats.quarantined)}"
    )
    for task in stats.quarantined:
        print(
            f"  quarantined point {task.position}: {task.reason} "
            f"({task.crashes} crash(es), {task.errors} error(s))"
        )
    if stats.interrupted:
        hint = (
            f" — rerun with --checkpoint {checkpoint} --resume"
            if checkpoint
            else ""
        )
        print(f"interrupted{hint}", file=sys.stderr)
        return 130
    if stats.quarantined:
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.eval.significance import compare_solvers

    make = workload_registry()[args.workload]

    def factory(rng):
        return make(n_workers=args.workers, n_tasks=args.tasks, seed=rng)

    def run():
        return compare_solvers(
            factory,
            args.solvers,
            n_instances=args.instances,
            lam=args.lam,
            seed=args.seed,
        )

    if args.trace:
        with obs.tracing() as tracer:
            with obs.span(
                "compare",
                workload=args.workload,
                solvers=",".join(args.solvers),
            ):
                table, _comparisons = run()
        _finish_trace(
            tracer, args, tag="compare",
            scenario=f"{args.workload}:{','.join(args.solvers)}",
        )
    else:
        table, _comparisons = run()
    print(table.render())
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    from repro.stream import DispatchConfig, StreamDispatcher

    config = DispatchConfig(
        policy=args.policy,
        task_rate=args.task_rate,
        worker_rate=args.worker_rate,
        deadline=args.deadline,
        session_length=args.session,
    )
    return _run_dispatcher(
        args,
        StreamDispatcher(load_market(args.market), config),
        tag="events",
        scenario=f"{args.policy}:{args.market}",
        span="events",
    )


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.spec import compile_stream
    from repro.stream import StreamDispatcher

    compiled = compile_stream(args.spec)
    return _run_dispatcher(
        args,
        StreamDispatcher(
            compiled.market,
            compiled.config,
            combiner=compiled.combiner,
            scenario=compiled.scenario,
        ),
        tag="stream",
        scenario=f"{compiled.config.policy}:{args.spec}",
    )


def _run_dispatcher(
    args: argparse.Namespace,
    dispatcher,
    tag: str,
    scenario: str,
    span: str | None = None,
) -> int:
    """Drain a dispatcher for ``repro stream``/``repro events`` with
    their shared options (absent ones count as off) and print the run
    summary; ``span`` wraps a traced run."""
    import contextlib

    from repro.stream import BatchWriter

    output = getattr(args, "output", None)
    live = getattr(args, "live", False)
    emitted = 0

    def on_record(record) -> None:
        nonlocal emitted
        emitted += 1
        if writer is not None:
            writer.write(record)
        if live and emitted % 100 == 0:
            print(
                f"[stream] {emitted} assignments "
                f"(t={record.time:.2f}, wait={record.wait:.2f})",
                flush=True,
            )

    profiler = None
    with contextlib.ExitStack() as stack:
        writer = (
            stack.enter_context(
                BatchWriter(output, batch_size=dispatcher.config.writer_batch)
            )
            if output
            else None
        )
        if args.trace or getattr(args, "profile", None):
            tracer = stack.enter_context(obs.tracing(obs.Tracer()))
            profiler = stack.enter_context(_profiling(args, tracer))
            if span:
                stack.enter_context(
                    obs.span(span, policy=dispatcher.config.policy)
                )
        result = dispatcher.run(seed=args.seed, on_record=on_record)
    if args.trace:
        _finish_trace(tracer, args, tag=tag, scenario=scenario)
    _finish_profile(profiler, args)

    if result.round_result is not None:
        rounds = result.round_result.rounds
        print(
            f"round mode: {len(rounds)} rounds | "
            f"{result.posted_tasks} assigned edges | combined benefit "
            f"{result.combined_benefit:.3f}"
        )
        return 0
    print(
        f"posted {result.posted_tasks} | assigned {result.assignments} "
        f"({100 * result.fill_rate:.1f}%) | expired {result.expired_tasks}"
        + (
            f" | dropped {result.dropped_tasks}"
            if result.dropped_tasks
            else ""
        )
    )
    summary = result.latency_summary()
    if summary:
        print(
            "time-to-assignment "
            + " ".join(
                f"{key}={summary[key]:.3f}"
                for key in ("p50", "p95", "p99")
                if key in summary
            )
            + f" | max queue depth {result.max_queue_depth}"
        )
    print(
        f"combined benefit {result.combined_benefit:.3f} | "
        f"{result.assignments_per_second:.0f} assignments/s "
        f"({result.wall_time:.2f}s wall)"
    )
    if output:
        print(f"wrote {emitted} records to {output}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        RULE_REGISTRY,
        LintConfig,
        lint_paths,
        render_json,
        render_rule_list,
        render_text,
    )

    if args.list_rules:
        print(render_rule_list())
        return 0
    requested = set(args.select or ()) | set(args.ignore or ())
    unknown = sorted(requested - set(RULE_REGISTRY))
    if unknown:
        print(
            f"error: unknown rule id(s): {', '.join(unknown)} "
            "(see --list-rules)",
            file=sys.stderr,
        )
        return 2
    paths = args.paths
    if not paths:
        from pathlib import Path

        import repro

        paths = [Path(repro.__file__).parent]
    config = LintConfig(
        select=frozenset(args.select) if args.select else None,
        ignore=frozenset(args.ignore or ()),
    )
    result = lint_paths(paths, config)
    if result.files_checked == 0:
        # "0 violations over 0 files" must never green-light CI.
        print(
            "error: no python files found under: "
            + ", ".join(str(p) for p in paths),
            file=sys.stderr,
        )
        return 2
    renderer = render_json if args.output_format == "json" else render_text
    print(renderer(result))
    return 0 if result.ok else 1


def _cmd_spec(args: argparse.Namespace) -> int:
    # Imported here and kept simulation-free on the check/expand paths:
    # a spec must be judged valid or invalid before any market exists.
    from repro.spec import (
        SCENARIO_KNOBS,
        check_spec,
        expand,
        sample,
    )
    from repro.spec.constraints import RegistryView

    if args.spec_command == "check":
        view = RegistryView.live()
        failures = 0
        for path in args.paths:
            result = check_spec(path, view=view)
            bad = result.errors or (args.strict and result.warnings)
            if bad:
                failures += 1
                print(f"{path}: FAIL")
            else:
                print(
                    f"{path}: ok"
                    + (
                        f" ({len(result.warnings)} warning(s))"
                        if result.warnings
                        else ""
                    )
                )
            for diagnostic in result.diagnostics:
                print(f"  {diagnostic.render()}")
        print(
            f"{len(args.paths) - failures}/{len(args.paths)} spec(s) valid"
        )
        return 1 if failures else 0
    if args.spec_command == "expand":
        lattice = (
            expand(args.path)
            if args.sample is None
            else sample(args.path, args.sample, seed=args.seed)
        )
        if args.as_json:
            for point in lattice.points:
                print(
                    json.dumps(
                        {
                            "id": point.id,
                            "axes": point.axis_values,
                            "payload": point.payload,
                        },
                        sort_keys=True,
                    )
                )
            return 0
        axes = sorted(lattice.base.axes)
        header = " ".join(f"{name:<24s}" for name in axes)
        print(f"{'id':<20s} {header}".rstrip())
        for point in lattice.points:
            row = " ".join(
                f"{point.axis_values[name]!s:<24s}" for name in axes
            )
            print(f"{point.id:<20s} {row}".rstrip())
        print(
            f"\n{len(lattice.points)} valid scenario(s) of "
            f"{lattice.enumerated} enumerated"
            + (
                f"; {len(lattice.dropped)} dropped by the checker"
                if lattice.dropped
                else ""
            )
        )
        for dropped in lattice.dropped:
            codes = ", ".join(
                sorted({d.code for d in dropped.diagnostics})
            )
            print(f"  dropped {dropped.axis_values} ({codes})")
        return 0
    if args.spec_command == "schema":
        section = None
        for knob in SCENARIO_KNOBS:
            prefix = knob.name.split(".", 1)[0]
            if prefix != section:
                section = prefix
                print(f"[{section}]")
            name = knob.name.split(".", 1)[1]
            domain = knob.domain.render()
            default = (
                "(required)" if knob.required else repr(knob.default)
            )
            print(
                f"  {name:<20s} {knob.type:<6s} {default:<12s} "
                f"{domain:<18s} {knob.description}"
            )
        return 0
    raise ReproError(f"unknown spec subcommand {args.spec_command!r}")


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.perf import (
        DEFAULT_THRESHOLD,
        bench_payload,
        build_suites,
        find_regressions,
        load_baseline,
        register_and_diff,
        render_text,
        run_cases,
        save_baseline,
        write_bench_json,
    )

    threshold = DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    suites = build_suites(quick=args.quick, scale=args.scale)
    # Bench runs always collect obs metrics: the counters (bidding
    # rounds, augmenting paths, ...) ship inside BENCH_<tag>.json so a
    # wall-time change can be attributed to work done, not guessed at.
    # Overhead is a handful of dict updates per solver call — far
    # below the harness's measurement noise.
    with obs.tracing() as tracer:
        with _profiling(args, tracer) as profiler:
            results = run_cases(
                suites,
                only=args.suite,
                repeats=args.repeats,
                progress=lambda line: print(
                    f"  running {line}", file=sys.stderr
                ),
            )
    _finish_profile(profiler, args)
    obs_report = obs.RunReport.from_tracer(tracer).to_dict()
    if args.update_baseline:
        save_baseline(results, args.baseline, tag=args.tag)
        print(f"wrote baseline for {len(results)} cases to {args.baseline}")
        baseline = load_baseline(args.baseline)
        regressions = []
    else:
        baseline = load_baseline(args.baseline)
        regressions = find_regressions(results, baseline, threshold)
    payload = bench_payload(
        results,
        regressions,
        baseline,
        tag=args.tag,
        threshold=threshold,
        quick=args.quick,
        scale=args.scale,
        obs_report=obs_report,
    )
    path = write_bench_json(payload, args.output_dir)
    print(render_text(payload))
    print(f"wrote {path}")
    if not args.no_register:
        # Advisory span-level diff against the previous run of this
        # tag: the committed baseline above decides the exit code; the
        # diff localizes *which stage* moved when it does.
        registry_root = (
            args.registry
            if args.registry is not None
            else str(Path(args.output_dir) / obs.DEFAULT_REGISTRY_ROOT)
        )
        entry, trace_diff = register_and_diff(
            tracer, tag=args.tag, registry_root=registry_root
        )
        print(
            f"registered bench trace {entry.tag}@{entry.run_id} "
            f"in {registry_root}"
        )
        if trace_diff is not None:
            print()
            print(obs.render_diff(trace_diff))
    if payload["checksum_mismatches"]:
        return 1
    if regressions and not args.no_fail:
        return 1
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.spec import (
        check_spec,
        compile_slo,
        compile_spec,
        compile_stream,
        load_spec,
    )
    from repro.spec.constraints import RegistryView

    view = RegistryView.live()
    payload = load_spec(args.spec)
    if args.slo:
        override = load_spec(args.slo)
        table = override.get("slo")
        if not isinstance(table, dict) or not table:
            print(
                f"error: {args.slo} has no [slo] table to override "
                "with",
                file=sys.stderr,
            )
            return 2
        merged = dict(payload.get("slo") or {})
        merged.update(table)
        payload = {**payload, "slo": merged}
    rules, window = compile_slo(payload, view=view)
    if not rules:
        print(
            "error: no [slo] thresholds configured — nothing to "
            "monitor; set at least one slo.* threshold knob "
            "(or pass --slo)",
            file=sys.stderr,
        )
        return 2
    result = check_spec(payload, view=view)
    assert result.spec is not None  # compile_slo already validated
    stream_mode = any(
        name.startswith("stream.") for name in result.spec.explicit
    )

    # The monitor owns the run, so it installs the store up front:
    # every scrape site then aggregates into slo.window-wide buckets.
    tracer = obs.Tracer()
    tracer.timeseries = obs.TimeseriesStore(window=window)
    with obs.tracing(tracer):
        if stream_mode:
            from repro.stream import StreamDispatcher

            compiled = compile_stream(payload, view=view)
            StreamDispatcher(
                compiled.market,
                compiled.config,
                combiner=compiled.combiner,
                scenario=compiled.scenario,
            ).run(seed=args.seed)
        else:
            Simulation(compile_spec(payload, view=view)).run(
                seed=args.seed
            )

    monitor = obs.SloMonitor(rules, tracer.timeseries)
    monitor.run()
    print(
        f"{'rule':<16s} {'state':<6s} {'threshold':>10s} "
        f"{'transitions':>11s}"
    )
    for rule in rules:
        transitions = sum(
            1 for event in monitor.events if event.rule == rule.name
        )
        print(
            f"{rule.name:<16s} {monitor.states[rule.name]:<6s} "
            f"{rule.threshold:>10.3f} {transitions:>11d}"
        )
    for event in monitor.events:
        print(
            f"  [{event.state}] {event.rule} at t={event.time:.2f} "
            f"value={event.value:.3f} burn short={event.short_burn:.2f} "
            f"long={event.long_burn:.2f}"
        )
    if args.alerts:
        path = obs.write_alert_log(
            monitor.events, args.alerts, tag=f"monitor:{args.spec}"
        )
        print(f"wrote {len(monitor.events)} alert(s) to {path}")
    if monitor.paged:
        print("SLO verdict: PAGE")
        return 1
    print(f"SLO verdict: {monitor.worst_state.upper()}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf import build_suites

    suites = build_suites(quick=args.quick, scale=args.scale)
    cases = {
        case.name: case
        for suite_cases in suites.values()
        for case in suite_cases
    }
    if args.list_cases:
        for name in cases:
            print(name)
        return 0
    if args.case is None:
        print(
            "error: name a bench case to profile (--list shows names)",
            file=sys.stderr,
        )
        return 2
    case = cases.get(args.case)
    if case is None:
        print(
            f"error: unknown case {args.case!r}; choose from: "
            + ", ".join(cases),
            file=sys.stderr,
        )
        return 2
    tracer = obs.Tracer()
    profiler = obs.SpanProfiler(tracer=tracer, interval=args.interval)
    with obs.tracing(tracer):
        with profiler:
            with obs.span(
                "bench.case",
                name=case.name,
                suite=case.suite,
                solver=case.solver,
            ):
                case.runner(1)
    args.profile = args.output  # reuse the shared reporting helper
    _finish_profile(profiler, args)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = obs.read_trace(args.path)
    print(obs.summarize(trace, top=args.top))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    registry = obs.RunRegistry(args.registry)
    if args.obs_command == "register":
        entry = registry.register(
            args.trace,
            tag=args.tag,
            seed=args.seed,
            scenario=args.scenario,
            git_rev=obs.current_git_rev(),
        )
        print(
            f"registered run {entry.tag}@{entry.run_id} "
            f"in {registry.root}"
        )
        return 0
    if args.obs_command == "list":
        entries = registry.entries(tag=args.tag)
        if not entries:
            print(f"no registered runs in {registry.root}")
            return 0
        print(
            f"{'run_id':<16s} {'tag':<20s} {'spans':>6s} {'seed':>6s} "
            f"{'git':<10s} scenario"
        )
        for entry in entries:
            print(
                f"{entry.run_id:<16s} {entry.tag:<20s} "
                f"{entry.n_spans:6d} "
                f"{'-' if entry.seed is None else entry.seed:>6} "
                f"{entry.git_rev or '-':<10s} {entry.scenario or '-'}"
            )
        return 0
    if args.obs_command == "prune":
        removed = registry.prune(args.keep, tag=args.tag)
        for entry in removed:
            print(f"pruned {entry.tag}@{entry.run_id}")
        print(f"removed {len(removed)} run(s)")
        return 0
    if args.obs_command == "diff":
        path_a, label_a = obs.resolve_trace(args.a, registry)
        path_b, label_b = obs.resolve_trace(args.b, registry)
        diff = obs.diff_traces(
            obs.read_trace(path_a),
            obs.read_trace(path_b),
            threshold=args.threshold,
            noise_floor=args.noise_floor,
            label_a=label_a,
            label_b=label_b,
        )
        print(obs.render_diff(diff, top=args.top))
        return 0 if diff.ok else 1
    if args.obs_command == "report":
        if len(args.runs) > 2:
            print(
                "error: obs report takes one run, or BASELINE "
                "CANDIDATE",
                file=sys.stderr,
            )
            return 2
        diff = None
        if len(args.runs) == 2:
            path_a, label_a = obs.resolve_trace(args.runs[0], registry)
            path_b, label_b = obs.resolve_trace(args.runs[1], registry)
            trace = obs.read_trace(path_b)
            diff = obs.diff_traces(
                obs.read_trace(path_a),
                trace,
                threshold=args.threshold,
                noise_floor=args.noise_floor,
                label_a=label_a,
                label_b=label_b,
            )
            label = label_b
        else:
            path, label = obs.resolve_trace(args.runs[0], registry)
            trace = obs.read_trace(path)
        title = args.title or f"repro trace report — {label}"
        html = obs.render_html(trace, title=title, diff=diff)
        from pathlib import Path

        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(html)
        print(f"wrote report for {label} to {output}")
        if diff is not None and not diff.ok:
            names = ", ".join(d.name for d in diff.regressions)
            print(f"note: diff section flags regression(s): {names}")
        return 0
    raise ReproError(f"unknown obs subcommand {args.obs_command!r}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "simulate": _cmd_simulate,
        "experiment": _cmd_experiment,
        "sweep": _cmd_sweep,
        "compare": _cmd_compare,
        "events": _cmd_events,
        "stream": _cmd_stream,
        "lint": _cmd_lint,
        "spec": _cmd_spec,
        "bench": _cmd_bench,
        "monitor": _cmd_monitor,
        "profile": _cmd_profile,
        "trace": _cmd_trace,
        "obs": _cmd_obs,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
