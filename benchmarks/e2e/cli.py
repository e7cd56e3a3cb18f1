"""Command line of the end-to-end benchmark.

``measure`` runs one workload in this process and prints its metrics,
ending with one JSON line.  ``run`` and ``trace`` run ``measure`` in a
fresh child process per workload and run, one at a time, and collect
the reports; ``compare`` judges a change's runs against a parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from . import compare as compare_mod
from .harness import WORKLOADS
from .layers import LAYERS
from .measure import STREAM_ONLY, measure

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Child processes get this long beyond their window before they are
#: killed (a run must end within 180 s).
_CHILD_GRACE_S = 165.0


def _default_seconds() -> int:
    return json.loads(BENCHMARK_JSON.read_text())["run_seconds"]


def _summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


# -- measure ----------------------------------------------------------------


def _cmd_measure(args: argparse.Namespace) -> int:
    report = measure(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        corrupt=args.corrupt,
    )
    if args.report:
        Path(args.report).write_text(json.dumps(report, indent=1))
    metrics = report.get("trace_metrics" if args.trace else "metrics", {})
    for check in report.get("checks", []):
        print(f"check {check['name']}: {check['status']}")
    for name, metric in {**metrics, **report.get("stream_metrics", {})}.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    line = {
        "correct": report["correct"],
        "attempted": max(report["attempted"], 1),
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if report["correct"] else 1


# -- run / trace ------------------------------------------------------------


def _child(workload: str, args: argparse.Namespace, trace: int, tmp: Path):
    """Run ``measure`` in a fresh process; returns its report or None."""
    report_path = tmp / f"{workload}.json"
    if report_path.exists():
        report_path.unlink()
    command = [
        sys.executable, "-m", "benchmarks.e2e", "measure",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--report", str(report_path),
    ]
    if args.smoke:
        command.append("--smoke")
    if getattr(args, "corrupt", None):
        command += ["--corrupt", args.corrupt]
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1"
    )
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            timeout=args.seconds + _CHILD_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out", file=sys.stderr)
        return None
    if not report_path.exists():
        print(f"{workload}: exit {done.returncode}, no report", file=sys.stderr)
        return None
    report = json.loads(report_path.read_text())
    if done.returncode != 0:
        report["correct"] = False
    return report


def _metric_values(report: dict) -> dict[str, tuple[float, str]]:
    merged = {**report.get("metrics", {}), **report.get("stream_metrics", {})}
    return {name: (m["value"], m["unit"]) for name, m in merged.items()}


def _cmd_run(args: argparse.Namespace) -> int:
    workloads = args.workload or list(WORKLOADS)
    runs: dict[str, list] = {name: [] for name in workloads}
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=ROOT) as tmp:
        for index in range(args.runs):
            # Interleave: alternate the workload order between runs.
            order = workloads if index % 2 == 0 else workloads[::-1]
            for name in order:
                report = _child(name, args, 0, Path(tmp))
                runs[name].append(report)
                status = "ok" if report and report["correct"] else "FAILED"
                print(f"run {index + 1}/{args.runs} {name}: {status}", flush=True)
    out = {
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "runs": args.runs,
        "workloads": {},
    }
    failures = 0
    for name, reports in runs.items():
        ok = [r for r in reports if r is not None and r["correct"]]
        failures += len(reports) - len(ok)
        values: dict[str, list] = {}
        units: dict[str, str] = {}
        for report in ok:
            for metric, (value, unit) in _metric_values(report).items():
                values.setdefault(metric, []).append(value)
                units[metric] = unit
        summary = {
            metric: {**_summary(vals), "unit": units[metric]}
            for metric, vals in values.items()
        }
        out["workloads"][name] = {
            "error_rate": (len(reports) - len(ok)) / len(reports),
            "summary": summary,
            "runs": reports,
        }
        print(f"\n{name}  (error_rate {out['workloads'][name]['error_rate']})")
        for metric, s in summary.items():
            print(
                f"  {metric:<14s} {s['median']:<22.10g} {s['unit']:<9s}"
                f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1))
    return 1 if failures else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    workloads = args.workload or list(WORKLOADS)
    out = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    failures = 0
    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=ROOT) as tmp:
        for name in workloads:
            report = _child(name, args, 1, Path(tmp))
            out["workloads"][name] = report
            if report is None or not report["correct"]:
                failures += 1
                print(f"\n{name}: FAILED")
                continue
            _print_trace(name, report)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1))
    return 1 if failures else 0


def _print_trace(name: str, report: dict) -> None:
    print(f"\n{name}")
    for phase in ("run", "setup"):
        stats = report["layers"][phase]["layers"]
        reached = [layer for layer in LAYERS if layer.phase == phase]
        reached = [layer for layer in reached if stats[layer.name]["calls"]]
        print(
            f"  {phase + ' layers':<20s} {'calls/run':>11s} "
            f"{'self_s/run':>11s} {'share of ' + phase:>14s}  should move (on)"
        )
        for layer in sorted(reached, key=lambda l: -stats[l.name]["share"]):
            row = stats[layer.name]
            print(
                f"  {layer.name:<20s} {row['calls']:>11.0f} "
                f"{row['self_s']:>11.4f} {row['share']:>14.1%}  "
                f"{layer.moves} ({layer.workloads})"
            )
    metrics = report["trace_metrics"]
    remainder = sum(
        metrics[f"{layer.name}.share"]["value"]
        for layer in LAYERS
        if layer.remainder
    )
    overhead = metrics["trace_overhead"]["value"]
    print(f"  remainder layers (sim.engine, stream.dispatch): {remainder:.1%}")
    print(f"  named-layer coverage: {metrics['coverage']['value']:.1%}")
    print(
        f"  trace_overhead: {overhead:+.1%}"
        + ("  (over the 25% target)" if overhead > 0.25 else "")
    )


# -- compare ----------------------------------------------------------------


def _cmd_compare(args: argparse.Namespace) -> int:
    bounds = compare_mod.bounds(
        json.loads(BENCHMARK_JSON.read_text()), STREAM_ONLY
    )
    parent = [json.loads(Path(p).read_text()) for p in args.parent]
    change = [json.loads(Path(c).read_text()) for c in args.change]
    try:
        rows = compare_mod.compare(parent, change, bounds)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    def side(stats: dict) -> str:
        return f"{stats['median']:.6g} [{stats['q1']:.4g}, {stats['q3']:.4g}]"

    print(
        f"{'workload':<17s} {'metric':<14s} {'parent median [q1, q3]':<34s} "
        f"{'change median [q1, q3]':<34s} {'pairs':>5s} {'wins':>4s}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<17s} {row['metric']:<14s} "
            f"{side(row['parent']):<34s} {side(row['change']):<34s} "
            f"{row['pairs']:>5d} {row['wins']:>4d}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


# -- parser -----------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end market benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def workload_options(p, many: bool) -> None:
        p.add_argument("--seed", type=int, required=True)
        p.add_argument(
            "--seconds", type=float, default=None,
            help="measurement window per run (default: BENCHMARK.json "
            "run_seconds)",
        )
        p.add_argument(
            "--smoke", action="store_true",
            help="shrink every workload to a few seconds",
        )
        if many:
            p.add_argument(
                "--workload", action="append", choices=list(WORKLOADS),
                help="repeatable; default all",
            )
            p.add_argument("--out", help="write the results JSON here")

    m = sub.add_parser("measure", help="measure one workload in-process")
    m.add_argument("--workload", choices=list(WORKLOADS), required=True)
    workload_options(m, many=False)
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m.add_argument("--report", help="write the full report JSON here")
    m.add_argument(
        "--corrupt", metavar="CHECK",
        help="falsify one check's expected value (self-test of the checks)",
    )
    m.set_defaults(func=_cmd_measure)

    r = sub.add_parser("run", help="untraced runs, one process each")
    workload_options(r, many=True)
    r.add_argument("--runs", type=int, default=5)
    r.add_argument(
        "--corrupt", metavar="CHECK",
        help="falsify one check's expected value in every child",
    )
    r.set_defaults(func=_cmd_run)

    t = sub.add_parser("trace", help="one traced run per workload")
    workload_options(t, many=True)
    t.set_defaults(func=_cmd_trace)

    c = sub.add_parser("compare", help="judge change runs against parent runs")
    c.add_argument("--parent", nargs="+", required=True)
    c.add_argument("--change", nargs="+", required=True)
    c.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "seconds", 0) is None:
        args.seconds = _default_seconds()
    return args.func(args)
