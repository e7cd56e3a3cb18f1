"""Live telemetry end to end: the stream dispatcher's windowed
scrape, the engine's per-round scrape, and the `repro monitor` CI
gate on the committed healthy/chaos spec pair."""

import hashlib
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.stream.dispatch import DispatchConfig, StreamDispatcher

SPECS = Path(__file__).resolve().parent.parent / "specs"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    obs.disable()
    yield
    obs.disable()


def _market(seed=0, **kwargs):
    defaults = dict(n_workers=30, n_tasks=40)
    defaults.update(kwargs)
    return generate_market(SyntheticConfig(**defaults), seed=seed)


def _stream_run(seed=3, window=2.0, **config):
    defaults = dict(policy="greedy", task_rate=6.0, worker_rate=2.0,
                    deadline=5.0, session_length=4.0)
    defaults.update(config)
    tracer = obs.Tracer()
    tracer.timeseries = obs.TimeseriesStore(window=window)
    with obs.tracing(tracer):
        result = StreamDispatcher(
            _market(), DispatchConfig(**defaults)
        ).run(seed=seed)
    return tracer, result


class TestStreamTelemetry:
    def test_scrape_covers_the_market_health_series(self):
        tracer, result = _stream_run()
        store = tracer.timeseries
        names = store.series_names()
        assert {"stream.posted", "stream.assigned", "stream.wait",
                "stream.queue_depth"} <= set(names)
        assert {"market.benefit_gini", "market.participation",
                "market.starvation", "market.worker_benefit"} <= set(
            names
        )

    def test_windowed_counters_sum_to_run_totals(self):
        tracer, result = _stream_run()
        store = tracer.timeseries
        assert sum(store.series_values("stream.posted", "sum")) == (
            result.posted_tasks
        )
        assert sum(store.series_values("stream.assigned", "sum")) == (
            len(result.records)
        )
        waits = store.series_values("stream.wait", "count")
        assert sum(waits) == len(result.records)

    def test_identical_seeds_scrape_identical_series(self):
        a, _ = _stream_run(seed=11)
        b, _ = _stream_run(seed=11)
        assert a.timeseries.to_dict() == b.timeseries.to_dict()

    def test_telemetry_never_perturbs_dispatch(self):
        plain = StreamDispatcher(
            _market(),
            DispatchConfig(policy="greedy", task_rate=6.0,
                           worker_rate=2.0, deadline=5.0,
                           session_length=4.0),
        ).run(seed=3)
        _, traced = _stream_run(seed=3)
        assert traced.combined_benefit == plain.combined_benefit
        assert [r.to_dict() for r in traced.records] == [
            r.to_dict() for r in plain.records
        ]

    def test_market_gauges_lie_in_their_domains(self):
        tracer, _ = _stream_run()
        store = tracer.timeseries
        for name in ("market.participation", "market.starvation",
                     "market.benefit_gini"):
            for value in store.series_values(name, "last"):
                assert 0.0 <= value <= 1.0, name

    def test_untraced_run_builds_no_store(self):
        dispatcher = StreamDispatcher(
            _market(), DispatchConfig(policy="greedy")
        )
        dispatcher.run(seed=0)
        assert obs.active() is None


class TestEngineTelemetry:
    def test_rounds_land_one_per_window(self):
        tracer = obs.Tracer()
        tracer.timeseries = obs.TimeseriesStore(window=1.0)
        scenario = Scenario(
            market=_market(), solver_name="greedy", n_rounds=3,
            retention=None,
        )
        with obs.tracing(tracer):
            Simulation(scenario).run(seed=0)
        store = tracer.timeseries
        assert store.buckets("sim.assigned_edges") == [0, 1, 2]
        assert store.buckets("market.participation") == [0, 1, 2]

    def test_trace_round_trip_preserves_timeseries(self, tmp_path):
        tracer = obs.Tracer()
        tracer.timeseries = obs.TimeseriesStore(window=1.0)
        scenario = Scenario(
            market=_market(), solver_name="greedy", n_rounds=2,
            retention=None,
        )
        with obs.tracing(tracer):
            Simulation(scenario).run(seed=0)
        path = obs.write_trace(tracer, tmp_path / "ts.jsonl", tag="ts")
        trace = obs.read_trace(path)
        assert trace.timeseries == tracer.timeseries.to_dict()
        # And the text/html renderers pick the payload up.
        assert "timeseries (window=1" in obs.summarize(trace)
        assert "Windowed telemetry" in obs.render_html(trace)

    def test_traces_without_telemetry_stay_lean(self, tmp_path):
        # Nothing scraped → no timeseries event in the trace file.
        with obs.tracing() as tracer:
            with obs.span("solve"):
                pass
        path = obs.write_trace(tracer, tmp_path / "no_ts.jsonl")
        trace = obs.read_trace(path)
        assert trace.timeseries is None
        assert "timeseries" not in obs.summarize(trace)


class TestMonitorGate:
    """The CI gate, pinned: the mutual-benefit spec stays clean, the
    greedy overload twin pages, and the alert log carries the
    worker-health evidence."""

    def test_healthy_spec_exits_zero(self, tmp_path, capsys):
        alerts = tmp_path / "alerts.jsonl"
        assert main(
            ["monitor", str(SPECS / "monitor_healthy.toml"),
             "--seed", "0", "--alerts", str(alerts)]
        ) == 0
        out = capsys.readouterr().out
        assert "SLO verdict" in out
        assert "PAGE" not in out
        obs.read_alert_log(alerts)  # well-formed either way

    def test_chaos_spec_pages_with_worker_health_alerts(
        self, tmp_path, capsys
    ):
        alerts = tmp_path / "alerts.jsonl"
        assert main(
            ["monitor", str(SPECS / "monitor_chaos.toml"),
             "--seed", "0", "--alerts", str(alerts)]
        ) == 1
        assert "SLO verdict: PAGE" in capsys.readouterr().out
        events = obs.read_alert_log(alerts)
        paged = {e.rule for e in events if e.state == "page"}
        assert paged & {"participation", "starvation"}

    #: sha256 of each spec's seed-0 alert events (the log minus its
    #: header line, whose tag carries the spec path as given).  The CI
    #: gate compares the whole logs with ``tests/fixtures/alerts_*``.
    ALERT_DIGESTS = {
        "healthy": (
            0, 7,
            "40e0ce6e64021f512b069eb3d2eaad28f58ed641ef6fa8c43f5f144754061bc2",
        ),
        "chaos": (
            1, 9,
            "8c274be543a39729ab6126794160f5416330f10617be5a3fcb0afce24d7b2756",
        ),
    }

    @pytest.mark.parametrize("spec", sorted(ALERT_DIGESTS))
    def test_alert_events_are_pinned(self, spec, tmp_path, capsys):
        alerts = tmp_path / "alerts.jsonl"
        status, count, digest = self.ALERT_DIGESTS[spec]
        assert main(
            ["monitor", str(SPECS / f"monitor_{spec}.toml"),
             "--seed", "0", "--alerts", str(alerts)]
        ) == status
        events = alerts.read_text().splitlines()[1:]
        fixture = FIXTURES / f"alerts_{spec}_seed0.jsonl"
        assert events == fixture.read_text().splitlines()[1:]
        assert len(events) == count
        assert hashlib.sha256("\n".join(events).encode()).hexdigest() == digest

    def test_monitor_without_rules_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "no_rules.toml"
        spec.write_text(
            'schema = "repro-spec/1"\n'
            "[market]\n"
            'workload = "amt-like"\n'
            "workers = 10\ntasks = 10\nseed = 0\n"
            "[scenario]\n"
            'solver = "greedy"\nlam = 0.5\n'
        )
        assert main(["monitor", str(spec)]) == 2
        assert "nothing to monitor" in capsys.readouterr().err

    def test_slo_override_file_merges(self, tmp_path, capsys):
        # A paging threshold can be relaxed from a side file without
        # editing the committed spec.
        override = tmp_path / "slo.toml"
        override.write_text(
            "[slo]\n"
            "participation_floor = 0.0\n"
            "starvation_ceiling = 1.0\n"
            "drop_rate = 1000.0\n"
            "latency_p95 = 1000.0\n"
            "throughput_floor = 0.0001\n"
            "gini_ceiling = 1.0\n"
        )
        assert main(
            ["monitor", str(SPECS / "monitor_chaos.toml"),
             "--seed", "0", "--slo", str(override)]
        ) == 0
        assert "PAGE" not in capsys.readouterr().out
