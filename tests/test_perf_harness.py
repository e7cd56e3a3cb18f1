"""Tests for the benchmark-regression harness (``repro.perf``)."""

import json

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ValidationError
from repro.eval.experiments import SCALABILITY_SOLVERS
from repro.perf import (
    SUITES,
    BenchResult,
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
from repro.perf.baseline import baseline_time


def _result(name="flow/n=10", wall=0.5, ref=1.5, checksum=2.0):
    return BenchResult(
        name=name,
        suite="f7_scale_workers",
        size=10,
        solver=name.split("/")[0],
        wall_time=wall,
        reference_time=ref,
        checksum=checksum,
        reference_checksum=checksum,
    )


class TestBenchResult:
    def test_speedup(self):
        assert _result(wall=0.5, ref=1.5).speedup == pytest.approx(3.0)

    def test_speedup_none_without_reference(self):
        assert _result(ref=None).speedup is None

    def test_checksums_match_tolerance(self):
        result = BenchResult(
            name="x", suite="s", size=1, solver="x",
            wall_time=1.0, reference_time=1.0,
            checksum=100.0, reference_checksum=100.0 + 1e-7,
        )
        assert result.checksums_match

    def test_checksum_mismatch_detected(self):
        result = BenchResult(
            name="x", suite="s", size=1, solver="x",
            wall_time=1.0, reference_time=1.0,
            checksum=100.0, reference_checksum=101.0,
        )
        assert not result.checksums_match

    def test_gap_within_tolerance_overrides_checksum(self):
        # Approximate (gap-gated) cases validate on objective shortfall,
        # not on bit-equality — differing checksums are expected there.
        result = BenchResult(
            name="x", suite="shard", size=1, solver="sharded",
            wall_time=1.0, reference_time=1.0,
            checksum=95.0, reference_checksum=100.0,
            objective_gap=0.03, gap_tolerance=0.05,
        )
        assert result.checksums_match

    def test_gap_beyond_tolerance_fails(self):
        result = BenchResult(
            name="x", suite="shard", size=1, solver="sharded",
            wall_time=1.0, reference_time=1.0,
            checksum=80.0, reference_checksum=100.0,
            objective_gap=0.2, gap_tolerance=0.05,
        )
        assert not result.checksums_match

    def test_missing_gap_with_tolerance_fails(self):
        # A gap-gated case that never computed its gap must fail loudly,
        # not fall back to the (meaningless) checksum comparison.
        result = BenchResult(
            name="x", suite="shard", size=1, solver="sharded",
            wall_time=1.0, reference_time=1.0,
            checksum=100.0, reference_checksum=100.0,
            objective_gap=None, gap_tolerance=0.05,
        )
        assert not result.checksums_match


class TestSuites:
    def test_every_declared_suite_built(self):
        suites = build_suites(quick=True)
        assert set(suites) == set(SUITES)
        assert all(suites.values())

    def test_quick_instances_are_smaller(self):
        quick = build_suites(quick=True)
        full = build_suites(quick=False)
        assert max(
            c.size for c in quick["f7_scale_workers"]
        ) < max(c.size for c in full["f7_scale_workers"])

    @pytest.mark.parametrize("quick", [True, False])
    def test_case_names_unique_across_suites(self, quick):
        """The baseline is keyed by case name, so no two cases of a
        tier may share one."""
        names = [
            case.name
            for cases in build_suites(quick=quick).values()
            for case in cases
        ]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("quick", [True, False])
    def test_f7_cases_run_solvers_f7_runs(self, quick):
        cases = build_suites(quick=quick)["f7_scale_workers"]
        assert {case.solver for case in cases} <= set(SCALABILITY_SOLVERS)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValidationError):
            build_suites(scale=0.0)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValidationError):
            run_cases(build_suites(quick=True), only=["f9_imaginary"])

    def test_micro_suite_runs_and_cross_validates(self):
        results = run_cases(
            build_suites(quick=True), only=["micro"], repeats=1
        )
        assert {r.suite for r in results} == {"micro"}
        assert all(r.wall_time > 0 for r in results)
        assert all(r.checksums_match for r in results)
        assert all(r.speedup is not None for r in results)


class TestObsSuite:
    def test_obs_suite_declared_and_built(self):
        assert "obs" in SUITES
        cases = build_suites(quick=True)["obs"]
        assert len(cases) == 1
        assert cases[0].name.startswith("obs_overhead/n=")
        assert cases[0].solver == "stream:greedy"

    def test_obs_overhead_case_is_gap_gated(self):
        results = run_cases(
            build_suites(quick=True, scale=0.1),
            only=["obs"],
            repeats=1,
        )
        assert len(results) == 1
        result = results[0]
        assert result.gap_tolerance == 0.05
        # The overhead ratio itself is wall-clock noisy at tiny scale,
        # so the test pins the deterministic halves of the gate: the
        # gap was measured, and the traced drain realized the exact
        # benefit of the untraced one (telemetry that perturbs
        # dispatch would blow the checksum, forcing gap=inf).
        assert result.objective_gap is not None
        assert result.objective_gap >= 0.0
        assert result.objective_gap != float("inf")
        assert result.checksum == result.reference_checksum


class TestShardSuite:
    def test_shard_suite_declared_and_built(self):
        assert "shard" in SUITES
        cases = build_suites(quick=True)["shard"]
        names = [case.name.split("/")[0] for case in cases]
        assert names == ["sharded", "sharded_warm", "warm_replay"]

    def test_quick_shard_instances_are_smaller(self):
        quick = build_suites(quick=True)["shard"]
        full = build_suites(quick=False)["shard"]
        assert max(c.size for c in quick) < max(c.size for c in full)

    def test_shard_suite_runs_and_validates_at_tiny_scale(self):
        results = run_cases(
            build_suites(quick=True, scale=0.05),
            only=["shard"],
            repeats=1,
        )
        by_name = {r.name.split("/")[0]: r for r in results}
        assert set(by_name) == {"sharded", "sharded_warm", "warm_replay"}
        # Gap-gated cases carry their gap; the replay case instead
        # demands bit-identical checksums.
        for name in ("sharded", "sharded_warm"):
            result = by_name[name]
            assert result.gap_tolerance is not None
            assert result.objective_gap is not None
            assert result.checksums_match
        replay = by_name["warm_replay"]
        assert replay.gap_tolerance is None
        assert replay.checksum == replay.reference_checksum
        assert replay.checksums_match


class TestBaseline:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "baseline.json"
        results = [_result(), _result(name="auction/n=10", wall=0.2)]
        save_baseline(results, path, tag="seed")
        baseline = load_baseline(path)
        assert baseline["tag"] == "seed"
        assert baseline["cases"]["flow/n=10"]["wall_time"] == 0.5

    def test_save_merges_with_existing(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline([_result(name="full/n=800", wall=2.0)], path, "full")
        save_baseline([_result(name="quick/n=60", wall=0.1)], path, "quick")
        baseline = load_baseline(path)
        assert set(baseline["cases"]) == {"full/n=800", "quick/n=60"}
        assert baseline["tag"] == "quick"

    def test_missing_file_is_none(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") is None

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValidationError):
            load_baseline(path)

    def test_regression_detected(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline([_result(wall=0.1)], path, tag="seed")
        baseline = load_baseline(path)
        slow = [_result(wall=0.3)]
        regressions = find_regressions(slow, baseline, threshold=0.5)
        assert [r.name for r in regressions] == ["flow/n=10"]
        assert regressions[0].ratio == pytest.approx(3.0)

    def test_within_threshold_passes(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline([_result(wall=0.1)], path, tag="seed")
        baseline = load_baseline(path)
        assert not find_regressions(
            [_result(wall=0.14)], baseline, threshold=0.5
        )

    def test_new_cases_are_not_regressions(self):
        assert not find_regressions([_result()], None)
        assert not find_regressions(
            [_result(name="brand-new/n=1")],
            {"schema": "repro-perf-baseline/1", "cases": {}},
        )

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValidationError):
            find_regressions([_result()], None, threshold=-0.1)


class TestBaselineEdgeCases:
    """Dedicated coverage for the degenerate baseline shapes that used
    to be untested: missing entries, zero/near-zero times, old schemas."""

    def _baseline(self, **times):
        return {
            "schema": "repro-perf-baseline/1",
            "tag": "edge",
            "cases": {
                name: {"suite": "s", "size": 1, "solver": "x",
                       "wall_time": wall}
                for name, wall in times.items()
            },
        }

    def test_missing_entry_yields_no_baseline_time(self):
        baseline = self._baseline(**{"flow/n=10": 0.5})
        assert baseline_time(baseline, "auction/n=10") is None

    def test_missing_entry_is_never_a_regression(self):
        baseline = self._baseline(**{"other/n=1": 0.001})
        assert not find_regressions([_result(wall=100.0)], baseline)

    def test_zero_baseline_time_skipped_without_dividing(self):
        # A corrupt or hand-edited entry with wall_time 0 must not
        # raise ZeroDivisionError computing the ratio — it is skipped.
        baseline = self._baseline(**{"flow/n=10": 0.0})
        assert not find_regressions([_result(wall=100.0)], baseline)

    def test_negative_baseline_time_skipped(self):
        baseline = self._baseline(**{"flow/n=10": -0.5})
        assert not find_regressions([_result(wall=100.0)], baseline)

    def test_tiny_positive_baseline_still_detects(self):
        # Near-zero but positive entries stay live: the ratio is huge
        # and finite, and the case is correctly flagged.
        baseline = self._baseline(**{"flow/n=10": 1e-12})
        regressions = find_regressions([_result(wall=0.5)], baseline)
        assert [r.name for r in regressions] == ["flow/n=10"]
        assert regressions[0].ratio > 1e6

    def test_older_schema_version_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(
            json.dumps({"schema": "repro-perf-baseline/0", "cases": {}})
        )
        with pytest.raises(ValidationError, match="repro-perf-baseline/1"):
            load_baseline(path)

    def test_schemaless_payload_rejected(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"cases": {}}))
        with pytest.raises(ValidationError):
            load_baseline(path)


class TestReport:
    def _payload(self, results=None, regressions=()):
        return bench_payload(
            results if results is not None else [_result()],
            list(regressions),
            baseline=None,
            tag="test",
            threshold=0.5,
            quick=True,
            scale=1.0,
        )

    def test_payload_schema(self):
        payload = self._payload()
        assert payload["schema"] == "repro-perf-bench/1"
        assert payload["ok"]
        case = payload["results"][0]
        for key in (
            "name", "suite", "size", "solver", "wall_time",
            "reference_time", "speedup", "checksum",
            "reference_checksum", "checksums_match", "baseline_time",
            "vs_baseline",
        ):
            assert key in case

    def test_checksum_mismatch_fails_payload(self):
        bad = BenchResult(
            name="x", suite="s", size=1, solver="x",
            wall_time=1.0, reference_time=1.0,
            checksum=1.0, reference_checksum=2.0,
        )
        payload = self._payload(results=[bad])
        assert payload["checksum_mismatches"] == ["x"]
        assert not payload["ok"]

    def test_write_bench_json(self, tmp_path):
        path = write_bench_json(self._payload(), tmp_path)
        assert path.name == "BENCH_test.json"
        assert json.loads(path.read_text())["tag"] == "test"

    def test_render_text_mentions_cases(self):
        text = render_text(self._payload())
        assert "flow/n=10" in text
        assert "no baseline found" in text

    def test_payload_carries_obs_report(self):
        report = {"counters": {"bench.cases": 1.0}, "gauges": {},
                  "histograms": {}, "n_spans": 1, "wall_time": 0.1}
        payload = bench_payload(
            [_result()], [], baseline=None, tag="t", threshold=0.5,
            quick=True, scale=1.0, obs_report=report,
        )
        assert payload["obs"] == report
        # Omitting it stays valid (older callers / hand-built payloads).
        assert self._payload()["obs"] is None


class TestBenchCli:
    def _run(self, tmp_path, *extra):
        return main(
            [
                "bench", "--quick", "--scale", "0.2", "--suite", "micro",
                "--repeats", "1", "--tag", "clitest",
                "--output-dir", str(tmp_path),
                "--baseline", str(tmp_path / "baseline.json"), *extra,
            ]
        )

    def test_update_baseline_then_clean_run(self, tmp_path, capsys):
        assert self._run(tmp_path, "--update-baseline") == 0
        assert (tmp_path / "baseline.json").exists()
        assert self._run(tmp_path, "--threshold", "1000") == 0
        payload = json.loads((tmp_path / "BENCH_clitest.json").read_text())
        assert payload["ok"]
        assert all(c["vs_baseline"] is not None for c in payload["results"])
        # The artifact carries the obs counters collected during the run.
        assert payload["obs"]["counters"]["bench.cases"] == len(
            payload["results"]
        )
        assert payload["obs"]["n_spans"] >= len(payload["results"])

    def test_regression_fails_unless_no_fail(self, tmp_path, capsys):
        assert self._run(tmp_path, "--update-baseline") == 0
        baseline_path = tmp_path / "baseline.json"
        baseline = json.loads(baseline_path.read_text())
        for case in baseline["cases"].values():
            case["wall_time"] /= 1e6  # make every case a regression
        baseline_path.write_text(json.dumps(baseline))
        assert self._run(tmp_path) == 1
        assert self._run(tmp_path, "--no-fail") == 0


class TestRegisterAndDiff:
    def _tracer(self, work=1):
        tracer = obs.Tracer()
        for index in range(work):
            with tracer.span("bench.case", name=f"case{index}"):
                pass
        tracer.metrics.count("bench.cases", work)
        return tracer

    def test_first_run_registers_without_diff(self, tmp_path):
        entry, diff = register_and_diff(
            self._tracer(), tag="t", registry_root=tmp_path / "reg"
        )
        assert entry.tag == "t"
        assert diff is None

    def test_second_run_diffs_against_previous(self, tmp_path):
        root = tmp_path / "reg"
        register_and_diff(self._tracer(), tag="t", registry_root=root)
        entry, diff = register_and_diff(
            self._tracer(), tag="t", registry_root=root
        )
        assert diff is not None
        assert diff.label_b == f"t@{entry.run_id}"
        # Microsecond spans sit under the noise floor: no regression.
        assert diff.ok

    def test_counter_drift_surfaces_in_diff(self, tmp_path):
        root = tmp_path / "reg"
        register_and_diff(
            self._tracer(work=1), tag="t", registry_root=root
        )
        _entry, diff = register_and_diff(
            self._tracer(work=3), tag="t", registry_root=root
        )
        drift = {c.name: c.delta for c in diff.counters}
        assert drift["bench.cases"] == 2

    def test_tags_are_isolated(self, tmp_path):
        root = tmp_path / "reg"
        register_and_diff(self._tracer(), tag="a", registry_root=root)
        _entry, diff = register_and_diff(
            self._tracer(work=2), tag="b", registry_root=root
        )
        assert diff is None  # first run of tag "b"


class TestBenchCliAutoDiff:
    def _run(self, tmp_path, *extra):
        return main(
            [
                "bench", "--quick", "--scale", "0.2", "--suite", "micro",
                "--repeats", "1", "--tag", "difftest",
                "--output-dir", str(tmp_path),
                "--baseline", str(tmp_path / "baseline.json"),
                "--no-fail", *extra,
            ]
        )

    def test_bench_registers_and_diffs_same_tag(self, tmp_path, capsys):
        assert self._run(tmp_path) == 0
        first = capsys.readouterr().out
        assert "registered bench trace difftest@" in first
        assert "trace diff:" not in first  # nothing to compare yet
        registry = obs.RunRegistry(tmp_path / ".repro-runs")
        assert len(registry.entries(tag="difftest")) == 1
        assert self._run(tmp_path) == 0
        second = capsys.readouterr().out
        assert "trace diff: difftest@" in second
        assert "bench.case" in second
        assert len(registry.entries(tag="difftest")) == 2

    def test_no_register_skips_registry(self, tmp_path, capsys):
        assert self._run(tmp_path, "--no-register") == 0
        out = capsys.readouterr().out
        assert "registered bench trace" not in out
        assert not (tmp_path / ".repro-runs").exists()
