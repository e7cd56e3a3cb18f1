"""Smoke tests of the end-to-end benchmark (shrunken workloads).

Run from the repository root: ``python -m pytest benchmarks/e2e -q``.
Everything except :mod:`.compare` runs through the command line, in
child processes, exactly as the benchmark itself is run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.compare import verdict

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
OUTCOMES = ("objective", "fill_rate", "participation", "accuracy")


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _run(tmp_path: Path, name: str, *args: str) -> dict:
    out = tmp_path / f"{name}.json"
    done = _cli("run", "--smoke", "--seconds", "1", "--out", str(out), *args)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def seed0(tmp_path_factory) -> dict:
    return _run(tmp_path_factory.mktemp("e2e"), "seed0", "--seed", "0", "--runs", "2")


def test_every_metric_with_its_unit(seed0):
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for name in WORKLOADS:
        result = seed0["workloads"][name]
        assert result["error_rate"] == 0
        for report in result["runs"]:
            metrics = report["metrics"]
            assert {k: v["unit"] for k, v in metrics.items()} == units
            assert all(v["value"] > 0 for v in metrics.values()), metrics
        if name.startswith("stream_"):
            assert {"tick_p50_ms", "tick_p95_ms", "wait_p95"} <= set(
                result["summary"]
            )


def test_all_checks_pass(seed0):
    for name in WORKLOADS:
        for report in seed0["workloads"][name]["runs"]:
            statuses = {c["name"]: c["status"] for c in report["checks"]}
            assert set(statuses.values()) <= {"pass", "unchecked"}, statuses
            assert report["correct"]
    exact = seed0["workloads"]["batch_exact"]["runs"][0]["checks"]
    assert "lp_optimum_round0" in {c["name"] for c in exact}


def test_outcomes_repeat_per_seed_and_change_with_it(seed0, tmp_path):
    seed1 = _run(tmp_path, "seed1", "--seed", "1", "--runs", "1")
    for name in WORKLOADS:
        first, second = seed0["workloads"][name]["runs"]
        other = seed1["workloads"][name]["runs"][0]
        for metric in OUTCOMES:
            value = first["metrics"][metric]["value"]
            assert second["metrics"][metric]["value"] == value, (name, metric)
        assert other["metrics"]["objective"]["value"] != (
            first["metrics"]["objective"]["value"]
        ), name


def test_trace_emits_every_layer(tmp_path):
    out = tmp_path / "trace.json"
    done = _cli(
        "trace", "--seed", "0", "--smoke", "--seconds", "1", "--out", str(out)
    )
    assert done.returncode == 0, done.stdout + done.stderr
    reports = json.loads(out.read_text())["workloads"]
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name in WORKLOADS:
        metrics = reports[name]["trace_metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == per_layer
    calls = {
        name: reports[name]["trace_metrics"] for name in WORKLOADS
    }
    # Each workload reaches the layers it was chosen for.
    for workload, layer in (
        ("batch_exact", "matching.b_matching"),
        ("batch_large", "benefit.worker"),
        ("batch_large", "crowd.estimate"),
        ("stream_greedy", "benefit.rows"),
        ("stream_greedy", "stream.sessions"),
        ("stream_greedy", "stream.writer"),
        ("stream_monitored", "matching.auction"),
        ("stream_monitored", "obs.slo"),
    ):
        assert calls[workload][f"{layer}.calls"]["value"] > 0, (workload, layer)
    assert "named-layer coverage" in done.stdout
    assert "trace_overhead" in done.stdout


def test_corrupted_expected_value_fails_the_run(tmp_path):
    out = tmp_path / "bad.json"
    done = _cli(
        "run", "--seed", "0", "--smoke", "--seconds", "1", "--runs", "1",
        "--workload", "stream_greedy", "--corrupt", "jsonl_lines",
        "--out", str(out),
    )
    assert done.returncode != 0
    assert json.loads(out.read_text())["workloads"]["stream_greedy"][
        "error_rate"
    ] == 1.0

    done = _cli(
        "measure", "--workload", "batch_exact", "--seed", "0", "--smoke",
        "--seconds", "1", "--corrupt", "lp_optimum_round0",
    )
    assert done.returncode != 0
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_rules():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    assert verdict(parent, faster, "lower", 0.1)["verdict"] == "gain"
    assert verdict(parent, slower, "lower", 0.1)["verdict"] == "regressed"
    assert verdict(parent, parent, "lower", 0.1)["verdict"] == "ok"
    # Fewer than ten pairs never make a gain.
    assert verdict(parent[:5], faster[:5], "lower", 0.1)["verdict"] == "ok"
    # A spread wider than the bound is unresolved unless every change
    # run beats every parent run.
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert verdict(noisy, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert verdict(noisy, [1.0] * 5, "lower", 0.1)["verdict"] == "ok"
    # Higher-is-better metrics and absolute bounds.
    assert verdict([0.9] * 3, [0.8] * 3, "higher", 0.05)["verdict"] == "regressed"
    assert verdict([0.0] * 3, [1.0] * 3, "lower", 0.0, absolute=True)[
        "verdict"
    ] == "regressed"
