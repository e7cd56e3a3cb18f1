"""Benchmark-regression harness: ``python -m repro bench``.

Measures the vectorized hot paths (b-matching, auction, answer
simulation, objective evaluation) against their scalar references and
against a committed wall-time baseline, emitting a machine-readable
``BENCH_<tag>.json``.  See ``docs/performance.md`` for how to run the
suites and when to refresh the baseline.
"""

from repro.perf.baseline import (
    DEFAULT_THRESHOLD,
    Regression,
    find_regressions,
    load_baseline,
    save_baseline,
)
from repro.perf.harness import (
    SUITES,
    BenchCase,
    BenchResult,
    build_suites,
    register_and_diff,
    run_cases,
)
from repro.perf.report import bench_payload, render_text, write_bench_json

__all__ = [
    "DEFAULT_THRESHOLD",
    "SUITES",
    "BenchCase",
    "BenchResult",
    "Regression",
    "bench_payload",
    "build_suites",
    "find_regressions",
    "load_baseline",
    "register_and_diff",
    "render_text",
    "run_cases",
    "save_baseline",
    "write_bench_json",
]
