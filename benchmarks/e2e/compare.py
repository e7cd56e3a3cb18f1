"""Judge a change's runs against its parent's, metric by metric.

Rules:

* a **gain** needs at least ten pairs of parent and change runs, the
  change winning at least nine tenths of all pairs (ties count for
  neither), and a median gap larger than the parent's interquartile
  range;
* a metric whose parent interquartile range is wider than its bound is
  **unresolved**, unless every change run reads better than every
  parent run;
* otherwise the change **regressed** when its median is worse than the
  parent's by more than the bound, and is **ok** when not.

Runs pair up in the order they were taken: the i-th parent run of a
workload with its i-th change run, across all files given.  Both sides
must have been run with the same seed.
"""

from __future__ import annotations

import statistics

#: error_rate may not rise at all (an absolute bound).
ERROR_RATE = "error_rate"


def bounds(benchmark: dict, stream_only: dict) -> dict[str, tuple]:
    """Metric -> (better, bound, absolute) for every metric compared.

    Every metric of every workload comes from BENCHMARK.json, except
    the stream-only metrics, which it cannot list (``stream_only``).
    """
    out = {
        m["name"]: (m["better"], float(m["bound"]), False)
        for m in benchmark["end_to_end"]
    }
    out.update(
        {name: rule for name, (_unit, *rule) in stream_only.items()}
    )
    out[ERROR_RATE] = ("lower", 0.0, True)
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float,
    absolute: bool = False,
) -> dict:
    """One (metric, workload) judgement."""
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cm - pm)
    limit = bound if absolute else bound * abs(pm)
    spread = p3 - p1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if spread > limit and not all_better:
        status = "unresolved"
    elif worse_by > limit:
        status = "regressed"
    elif len(pairs) >= 10 and wins >= 0.9 * len(pairs) and -worse_by > spread:
        status = "gain"
    else:
        status = "ok"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3, "n": len(parent)},
        "change": {"median": cm, "q1": c1, "q3": c3, "n": len(change)},
        "pairs": len(pairs),
        "wins": wins,
        "verdict": status,
    }


def _runs(results: list[dict], workload: str) -> list[dict]:
    return [
        run
        for result in results
        for run in result["workloads"].get(workload, {}).get("runs", [])
    ]


def _value(run: dict | None, metric: str) -> float | None:
    if metric == ERROR_RATE:
        return 0.0 if run is not None and run["correct"] else 1.0
    if run is None or not run["correct"]:
        return None
    merged = {**run.get("metrics", {}), **run.get("stream_metrics", {})}
    return merged[metric]["value"] if metric in merged else None


def compare(
    parent: list[dict], change: list[dict], metric_bounds: dict
) -> list[dict]:
    """Every (workload, metric) both sides report, judged."""
    seeds = {result["seed"] for result in parent + change}
    if len(seeds) != 1:
        raise ValueError(f"parent and change runs mix seeds {sorted(seeds)}")
    rows = []
    workloads = [w for w in parent[0]["workloads"] if w in change[0]["workloads"]]
    for workload in workloads:
        parent_runs = _runs(parent, workload)
        change_runs = _runs(change, workload)
        for metric, (better, bound, absolute) in metric_bounds.items():
            pairs = [
                (_value(p, metric), _value(c, metric))
                for p, c in zip(parent_runs, change_runs)
            ]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            row = verdict(
                [p for p, _ in pairs],
                [c for _, c in pairs],
                better,
                bound,
                absolute=absolute,
            )
            rows.append({"workload": workload, "metric": metric, **row})
    return rows
