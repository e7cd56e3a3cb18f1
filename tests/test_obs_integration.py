"""End-to-end tests: tracing threaded through the engine, the
resilience executor, the sweep harness, and the CLI."""

import pytest

from repro import obs
from repro.cli import main
from repro.core.problem import MBAProblem
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.eval.sweep import sweep
from repro.resilience import FaultPlan, ResilientSolver
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    obs.disable()
    yield
    obs.disable()


def _market(seed=0, **kwargs):
    defaults = dict(n_workers=20, n_tasks=10)
    defaults.update(kwargs)
    return generate_market(SyntheticConfig(**defaults), seed=seed)


def _scenario(**kwargs):
    defaults = dict(
        market=_market(), solver_name="greedy", n_rounds=3, retention=None
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestTracedSimulation:
    def test_round_spans_and_stages(self):
        with obs.tracing() as tracer:
            result = Simulation(_scenario()).run(seed=0)
        rounds = [s for s in tracer.spans if s.name == "round"]
        assert [s.tags["index"] for s in rounds] == [0, 1, 2]
        assert all(s.parent is None for s in rounds)
        stage_names = {
            s.name for s in tracer.spans if s.parent is not None
        }
        assert {"assign", "simulate", "aggregate"} <= stage_names
        assert not tracer.open_spans
        assert tracer.metrics.counters["sim.rounds"] == 3.0
        assert tracer.metrics.counters["sim.assigned_edges"] > 0
        assert result.report is not None
        assert result.report.counters == tracer.metrics.counters

    def test_untraced_run_has_no_report(self):
        result = Simulation(_scenario()).run(seed=0)
        assert result.report is None

    def test_estimator_round_records_estimate_span(self):
        from repro.crowd import BetaSkillEstimator

        scenario = _scenario(estimator=BetaSkillEstimator())
        with obs.tracing() as tracer:
            Simulation(scenario).run(seed=0)
        assert any(s.name == "estimate" for s in tracer.spans)

    def test_matching_counters_recorded(self):
        with obs.tracing() as tracer:
            Simulation(_scenario(solver_name="flow")).run(seed=0)
        counters = tracer.metrics.counters
        assert counters["sim.rounds"] == 3.0
        assert counters["sim.assigned_edges"] > 0

    def test_auction_counters_recorded(self):
        with obs.tracing() as tracer:
            Simulation(_scenario(solver_name="auction")).run(seed=0)
        counters = tracer.metrics.counters
        assert counters["auction.bids"] > 0
        assert counters["auction.price_updates"] > 0
        assert counters["auction.phases"] > 0

    def test_tracing_does_not_change_results(self):
        plain = Simulation(_scenario()).run(seed=3)
        with obs.tracing():
            traced = Simulation(_scenario()).run(seed=3)
        assert [
            (r.n_assigned_edges, r.combined_benefit) for r in plain.rounds
        ] == [
            (r.n_assigned_edges, r.combined_benefit) for r in traced.rounds
        ]


class TestTraceDeterminism:
    def _trace(self, tmp_path, name):
        scenario = _scenario(
            solver_name="auction",
            fault_plan=FaultPlan.uniform(0.3, seed=13),
            resilience="default",
        )
        with obs.tracing() as tracer:
            Simulation(scenario).run(seed=0)
        return obs.read_trace(
            obs.write_trace(tracer, tmp_path / name, tag="det")
        )

    def test_identical_seeds_identical_traces_modulo_wall_time(
        self, tmp_path
    ):
        first = self._trace(tmp_path, "a.jsonl")
        second = self._trace(tmp_path, "b.jsonl")
        assert obs.deterministic_events(first) == obs.deterministic_events(
            second
        )
        assert first.metrics["counters"] == second.metrics["counters"]


class TestTracedResilience:
    def test_attempt_spans_with_retry_and_fault_tags(self):
        solver = ResilientSolver(primary="greedy")
        problem = MBAProblem(_market())
        with obs.tracing() as tracer:
            solver.solve_resilient(
                problem, seed=0, forced_failure="convergence"
            )
        attempts = [s for s in tracer.spans if s.name == "attempt"]
        assert len(attempts) >= 2, "forced failure must cost one attempt"
        first = attempts[0]
        assert first.tags["tier"] == 0
        assert first.tags["fault"] == "convergence"
        assert first.tags["outcome"] == "failed"
        assert "error" in first.tags
        assert attempts[1].tags["retry"] == 1
        assert attempts[-1].tags["outcome"] in ("ok", "salvaged")
        counters = tracer.metrics.counters
        assert counters["resilience.solves"] == 1.0
        assert counters["resilience.failed_attempts"] >= 1.0


class TestTracedSweep:
    def test_serial_sweep_records_points(self):
        with obs.tracing() as tracer:
            sweep([1, 2], _sweep_measure, repetitions=2, seed=0)
        points = [s for s in tracer.spans if s.name == "sweep.point"]
        assert len(points) == 4
        assert tracer.metrics.counters["sweep.points"] == 4.0

    def test_parallel_sweep_merges_worker_traces(self):
        with obs.tracing() as tracer:
            sweep([1, 2], _sweep_measure, repetitions=2, seed=0, workers=2)
        points = [s for s in tracer.spans if s.name == "sweep.point"]
        assert len(points) == 4
        assert tracer.metrics.counters["sweep.points"] == 4.0

    def test_untraced_sweep_records_nothing(self):
        sweep([1], _sweep_measure, repetitions=1, workers=2)
        assert obs.active() is None


def _sweep_measure(parameter, rng):
    """Top-level so the process pool can pickle it."""
    return float(parameter) + float(rng.random())


def _telemetry_measure(parameter, rng):
    """Top-level for pickling; scrapes windowed telemetry per point.

    Buckets are keyed on the parameter, values on the per-point rng —
    both deterministic under the sweep harness's seeding — so a
    parallel run must reproduce the serial payload bit for bit.
    """
    value = float(parameter) + float(rng.random())
    store = obs.timeseries_store()
    if store is not None:
        t = store.bucket_time(int(parameter))
        store.count("sweep.values", t, 1.0)
        store.observe("sweep.sample", t, value)
    return value


def _simulating_measure(parameter, rng):
    """Top-level for pickling; runs a tiny simulation so the engine's
    per-round scrape feeds the sweep's telemetry store."""
    market = generate_market(
        SyntheticConfig(n_workers=12, n_tasks=8), seed=int(parameter)
    )
    scenario = Scenario(
        market=market, solver_name="greedy", n_rounds=2, retention=None
    )
    result = Simulation(scenario).run(seed=int(rng.integers(1 << 16)))
    return result.rounds[-1].combined_benefit


class TestSweepTimeseriesMerge:
    """Satellite: windowed telemetry scraped inside worker processes
    folds back into the parent store, and a parallel sweep's merged
    payload is bit-identical to the serial run's."""

    def _run(self, measure, workers=1):
        tracer = obs.Tracer()
        tracer.timeseries = obs.TimeseriesStore(window=1.0)
        with obs.tracing(tracer):
            sweep(
                [1, 2, 3], measure, repetitions=2, seed=0,
                workers=workers,
            )
        return tracer.timeseries

    def test_parallel_merge_is_bit_identical_to_serial(self):
        serial = self._run(_telemetry_measure)
        parallel = self._run(_telemetry_measure, workers=2)
        assert serial.to_dict() == parallel.to_dict()
        # Sanity: the payload is non-trivial — every point scraped.
        assert sum(
            serial.series_values("sweep.values", "sum")
        ) == 6.0
        assert sum(
            serial.series_values("sweep.sample", "count")
        ) == 6.0

    def test_parallel_merge_is_worker_count_invariant(self):
        two = self._run(_telemetry_measure, workers=2)
        three = self._run(_telemetry_measure, workers=3)
        assert two.to_dict() == three.to_dict()

    def test_engine_scrape_inside_workers_folds_home(self):
        serial = self._run(_simulating_measure)
        parallel = self._run(_simulating_measure, workers=2)
        names = set(serial.series_names())
        assert {"sim.assigned_edges", "market.participation"} <= names
        assert set(parallel.series_names()) == names
        # Counters and sample payloads merge order-independently;
        # gauge mean-state is (total, n) sums, so means agree too.
        # (Gauge "last" is whichever shard merged last — by design.)
        assert serial.series_values(
            "sim.assigned_edges", "sum"
        ) == parallel.series_values("sim.assigned_edges", "sum")
        assert serial.series_values(
            "market.participation", "mean"
        ) == pytest.approx(
            parallel.series_values("market.participation", "mean")
        )

    def test_untraced_parallel_sweep_scrapes_nothing(self):
        sweep([1], _telemetry_measure, repetitions=1, workers=2)
        assert obs.active() is None


class TestTraceCli:
    def test_simulate_trace_then_summarize(self, tmp_path, capsys):
        market_path = tmp_path / "market.json"
        trace_path = tmp_path / "run.jsonl"
        assert main(
            ["generate", "synthetic-uniform", str(market_path),
             "--workers", "15", "--tasks", "8", "--seed", "1"]
        ) == 0
        assert main(
            ["simulate", str(market_path), "--rounds", "2",
             "--no-retention", "--trace", str(trace_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out
        assert trace_path.exists()

        trace = obs.read_trace(trace_path)
        assert trace.tag == "simulate"
        assert sum(1 for s in trace.spans if s.name == "round") == 2

        assert main(["trace", str(trace_path)]) == 0
        summary = capsys.readouterr().out
        assert "per-round breakdown:" in summary
        assert "sim.rounds" in summary

    def test_trace_cli_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["trace", str(bad)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_simulate_without_trace_flag_writes_nothing(
        self, tmp_path, capsys
    ):
        market_path = tmp_path / "market.json"
        main(
            ["generate", "synthetic-uniform", str(market_path),
             "--workers", "15", "--tasks", "8", "--seed", "1"]
        )
        assert main(
            ["simulate", str(market_path), "--rounds", "1",
             "--no-retention"]
        ) == 0
        assert "wrote trace" not in capsys.readouterr().out
        assert not obs.enabled()


class TestSolverWorkCounters:
    """flow/b-matching/stable emit work counters mirroring the auction
    instrumentation."""

    def test_flow_solver_records_bmatching_counters(self):
        with obs.tracing() as tracer:
            Simulation(_scenario(solver_name="flow")).run(seed=0)
        counters = tracer.metrics.counters
        assert counters["b_matching.augmentations"] > 0
        assert counters["b_matching.candidate_edges"] > 0
        assert counters["b_matching.matched_edges"] > 0
        # Every augmenting path is found by at least one relaxation
        # round.
        assert (
            counters["b_matching.search_rounds"]
            >= counters["b_matching.augmentations"]
        )

    def test_stable_matching_records_proposal_counters(self):
        with obs.tracing() as tracer:
            Simulation(
                _scenario(solver_name="stable-matching")
            ).run(seed=0)
        counters = tracer.metrics.counters
        assert counters["stable.proposal_rounds"] > 0
        assert counters["stable.proposals"] > 0
        assert "stable.displacements" in counters

    def test_counters_deterministic_across_runs(self):
        def run():
            with obs.tracing() as tracer:
                Simulation(_scenario(solver_name="flow")).run(seed=4)
            return dict(tracer.metrics.counters)

        assert run() == run()


class TestLiveStreaming:
    def _market_path(self, tmp_path):
        market = tmp_path / "market.json"
        assert main(
            ["generate", "synthetic-uniform", str(market),
             "--workers", "12", "--tasks", "6", "--seed", "1"]
        ) == 0
        return market

    def test_live_prints_per_round_lines(self, tmp_path, capsys):
        market = self._market_path(tmp_path)
        assert main(
            ["simulate", str(market), "--rounds", "3", "--no-retention",
             "--trace", str(tmp_path / "run.jsonl"), "--live"]
        ) == 0
        out = capsys.readouterr().out
        for index in range(3):
            assert f"[round {index}]" in out
        # Stage timings and per-round counter deltas ride each line.
        assert "assign=" in out
        assert "sim.rounds=+1" in out

    def test_live_requires_trace(self, tmp_path, capsys):
        market = self._market_path(tmp_path)
        assert main(
            ["simulate", str(market), "--rounds", "1", "--live"]
        ) == 2
        assert "--live requires --trace" in capsys.readouterr().err

    def test_live_lines_interleave_before_summary(
        self, tmp_path, capsys
    ):
        market = self._market_path(tmp_path)
        assert main(
            ["simulate", str(market), "--rounds", "2", "--no-retention",
             "--trace", str(tmp_path / "run.jsonl"), "--live"]
        ) == 0
        out = capsys.readouterr().out
        assert out.index("[round 0]") < out.index("wrote trace")


class TestTracedCompareAndEvents:
    def test_compare_trace_and_register(self, tmp_path, capsys):
        trace_path = tmp_path / "cmp.jsonl"
        reg = tmp_path / "reg"
        assert main(
            ["compare", "greedy", "random",
             "--workers", "12", "--tasks", "6", "--instances", "3",
             "--trace", str(trace_path),
             "--register", "--registry", str(reg)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out
        assert "registered run compare@" in out
        trace = obs.read_trace(trace_path)
        assert trace.tag == "compare"
        assert any(s.name == "compare" for s in trace.spans)
        entry = obs.RunRegistry(reg).latest(tag="compare")
        assert entry is not None
        assert entry.scenario == "synthetic-uniform:greedy,random"

    def test_events_trace_and_register(self, tmp_path, capsys):
        market = tmp_path / "market.json"
        assert main(
            ["generate", "synthetic-uniform", str(market),
             "--workers", "12", "--tasks", "6", "--seed", "1"]
        ) == 0
        trace_path = tmp_path / "ev.jsonl"
        reg = tmp_path / "reg"
        assert main(
            ["events", str(market), "--trace", str(trace_path),
             "--register", "--registry", str(reg)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out
        assert "registered run events@" in out
        trace = obs.read_trace(trace_path)
        assert trace.tag == "events"
        assert any(s.name == "events" for s in trace.spans)
        assert obs.RunRegistry(reg).latest(tag="events") is not None

    def test_round_spans_tag_ok_outcome(self):
        with obs.tracing() as tracer:
            Simulation(_scenario()).run(seed=0)
        rounds = [s for s in tracer.spans if s.name == "round"]
        assert all(s.tags.get("outcome") == "ok" for s in rounds)
        assert all(s.tags.get("edges", 0) > 0 for s in rounds)
