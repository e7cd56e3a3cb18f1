"""SLO rules, burn-rate evaluation, the alert log, and the spec
``[slo]`` compilation path feeding ``python -m repro monitor``."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.obs.slo import (
    ALERT_SCHEMA,
    AlertEvent,
    SloMonitor,
    SloRule,
    default_rules,
    read_alert_log,
    write_alert_log,
)
from repro.obs.timeseries import TimeseriesStore


def _rule(**kwargs):
    defaults = dict(
        name="participation",
        series="market.participation",
        aggregate="last",
        bound="floor",
        threshold=0.5,
        short_windows=3,
        long_windows=6,
        warn_burn=0.5,
        page_burn=0.75,
    )
    defaults.update(kwargs)
    return SloRule(**defaults)


def _gauge_run(values, window=1.0):
    """A store with one gauge series, one value per window."""
    store = TimeseriesStore(window=window)
    for bucket, value in enumerate(values):
        store.gauge(
            "market.participation", store.bucket_time(bucket), value
        )
    return store


class TestRuleValidation:
    def test_bad_bound(self):
        with pytest.raises(ValidationError, match="bound"):
            _rule(bound="sideways")

    def test_non_finite_threshold(self):
        with pytest.raises(ValidationError, match="finite"):
            _rule(threshold=float("inf"))

    def test_horizons(self):
        with pytest.raises(ValidationError, match="horizons"):
            _rule(short_windows=0)
        with pytest.raises(ValidationError, match="cover"):
            _rule(short_windows=4, long_windows=3)

    def test_burn_fractions(self):
        with pytest.raises(ValidationError, match="warn_burn"):
            _rule(warn_burn=0.0)
        with pytest.raises(ValidationError, match="page_burn"):
            _rule(page_burn=1.5)

    def test_breached_directions_and_nan(self):
        floor = _rule(bound="floor", threshold=0.5)
        assert floor.breached(0.4)
        assert not floor.breached(0.5)
        assert not floor.breached(float("nan"))
        ceiling = _rule(name="gini", bound="ceiling", threshold=0.6)
        assert ceiling.breached(0.7)
        assert not ceiling.breached(0.6)


class TestBurnRateStateMachine:
    def test_single_cold_start_breach_does_not_page(self):
        # Burn fractions divide by the horizon width: the very first
        # window alone, however bad, is 1/3 of the short horizon and
        # must not look "sustained".
        monitor = SloMonitor([_rule()], _gauge_run([0.0]))
        monitor.evaluate(0)
        assert monitor.states["participation"] == "ok"
        assert monitor.events == []

    def test_sustained_breach_walks_warn_then_page(self):
        store = _gauge_run([0.0] * 8)
        monitor = SloMonitor([_rule()], store)
        monitor.run()
        states = [e.state for e in monitor.events]
        assert states[0] == "warn"
        assert "page" in states
        assert monitor.paged
        assert monitor.worst_state == "page"
        # warn precedes page: the ladder is climbed, not jumped.
        assert states.index("warn") < states.index("page")

    def test_recovery_emits_ok_transition(self):
        store = _gauge_run([0.0] * 6 + [1.0] * 8)
        monitor = SloMonitor([_rule()], store)
        monitor.run()
        assert monitor.states["participation"] == "ok"
        assert monitor.events[-1].state == "ok"

    def test_healthy_run_emits_nothing(self):
        monitor = SloMonitor([_rule()], _gauge_run([1.0] * 10))
        monitor.run()
        assert monitor.events == []
        assert not monitor.paged
        assert monitor.worst_state == "ok"

    def test_transitions_only_no_repeats(self):
        store = _gauge_run([0.0] * 10)
        monitor = SloMonitor([_rule()], store)
        monitor.run()
        # One warn, one page — not one event per breached window.
        assert [e.state for e in monitor.events] == ["warn", "page"]

    def test_evaluation_is_deterministic(self):
        def run():
            monitor = SloMonitor(
                [_rule()], _gauge_run([0.3, 0.9, 0.1, 0.0, 0.0, 0.2])
            )
            monitor.run()
            return [e.to_dict() for e in monitor.events]

        assert run() == run()

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            SloMonitor([_rule(), _rule()], TimeseriesStore())

    def test_unobserved_series_stays_silent(self):
        monitor = SloMonitor(
            [_rule(series="never.scraped")], _gauge_run([0.0] * 5)
        )
        monitor.run()
        assert monitor.events == []


class _ReferenceMonitor:
    """The per-bucket evaluation ``SloMonitor`` ran before it shared
    its window reads within a run: every bucket reads every window of
    both horizons, and the event value once more, from the store."""

    def __init__(self, rules, store):
        self.rules = tuple(rules)
        self.store = store
        self.states = {rule.name: "ok" for rule in self.rules}
        self.events = []

    def evaluate(self, bucket):
        emitted = []
        for rule in self.rules:
            short = self._burn_fraction(rule, bucket, rule.short_windows)
            long = self._burn_fraction(rule, bucket, rule.long_windows)
            if math.isnan(short) and math.isnan(long):
                continue
            if (
                not math.isnan(short)
                and not math.isnan(long)
                and short >= rule.page_burn
                and long >= rule.page_burn
            ):
                target = "page"
            elif not math.isnan(short) and short >= rule.warn_burn:
                target = "warn"
            else:
                target = "ok"
            previous = self.states[rule.name]
            if target == previous:
                continue
            self.states[rule.name] = target
            event = AlertEvent(
                rule=rule.name,
                series=rule.series,
                bucket=bucket,
                time=self.store.bucket_time(bucket),
                state=target,
                previous=previous,
                short_burn=short,
                long_burn=long,
                value=self.store.value(rule.series, bucket, rule.aggregate),
                threshold=rule.threshold,
                bound=rule.bound,
            )
            self.events.append(event)
            emitted.append(event)
        return emitted

    def run(self):
        buckets = set()
        for rule in self.rules:
            buckets.update(self.store.buckets(rule.series))
        for bucket in sorted(buckets):
            self.evaluate(bucket)
        return self.events

    def _burn_fraction(self, rule, bucket, horizon):
        observed = 0
        breached = 0
        for b in range(bucket - horizon + 1, bucket + 1):
            value = self.store.value(rule.series, b, rule.aggregate)
            if math.isnan(value):
                continue
            observed += 1
            if rule.breached(value):
                breached += 1
        if observed == 0:
            return float("nan")
        return breached / horizon


#: Aggregates of each series kind the random rules draw from.
_AGGREGATES = {
    "hits": ("sum", "rate"),
    "level": ("last", "mean"),
    "wait": ("count", "mean", "min", "max", "p50", "p95", "p99"),
}


def _random_store(rng, store=None):
    """A counter, a gauge and a sample series over up to 60 windows,
    each skipping windows at random: NaN gauge writes, empty sample
    windows, late writes, and a ring small enough to evict."""
    if store is None:
        store = TimeseriesStore(
            window=float(rng.choice([0.5, 1.0, 2.0])),
            capacity=int(rng.integers(3, 40)),
        )
    n_buckets = int(rng.integers(1, 60))
    for bucket in range(n_buckets):
        # Mostly the current window, sometimes an older one (which the
        # ring may already have evicted).
        if rng.random() < 0.1:
            bucket = int(rng.integers(0, bucket + 1))
        t = store.bucket_time(bucket)
        if rng.random() < 0.7:
            store.count("hits", t, float(rng.integers(0, 4)))
        if rng.random() < 0.7:
            value = np.nan if rng.random() < 0.2 else rng.random()
            store.gauge("level", t, value)
        if rng.random() < 0.7:
            store.extend("wait", t, rng.random(int(rng.integers(0, 6))) * 4)
    return store


def _random_rules(rng):
    rules = []
    for k in range(int(rng.integers(1, 7))):
        series = str(rng.choice(["hits", "level", "wait", "never.scraped"]))
        aggregates = _AGGREGATES.get(series, ("last",))
        short = int(rng.integers(1, 5))
        rules.append(SloRule(
            name=f"rule-{k}",
            series=series,
            aggregate=str(rng.choice(aggregates)),
            bound=str(rng.choice(["ceiling", "floor"])),
            threshold=float(rng.random() * 3),
            short_windows=short,
            long_windows=short + int(rng.integers(0, 5)),
            warn_burn=float(rng.choice([0.25, 0.5, 1.0])),
            page_burn=float(rng.choice([0.5, 0.75, 1.0])),
        ))
    return rules


def _texts(events):
    """Events as canonical JSON lines (NaN burns compare equal)."""
    return [json.dumps(event.to_dict(), sort_keys=True) for event in events]


class TestSharedWindowReads:
    """``run()`` reads each (rule, window) once and must emit exactly
    what the per-bucket reference does; ``evaluate`` alone must too."""

    @pytest.mark.parametrize("seed", range(60))
    def test_run_matches_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        store, rules = _random_store(rng), _random_rules(rng)
        monitor = SloMonitor(rules, store)
        reference = _ReferenceMonitor(rules, store)
        assert _texts(monitor.run()) == _texts(reference.run())
        assert monitor.states == reference.states
        # A store written after a run is read afresh by the next one.
        _random_store(rng, store)
        assert _texts(monitor.run()) == _texts(reference.run())
        assert monitor.states == reference.states

    @pytest.mark.parametrize("seed", range(30))
    def test_evaluate_alone_matches_the_reference(self, seed):
        rng = np.random.default_rng(1000 + seed)
        store, rules = _random_store(rng), _random_rules(rng)
        monitor = SloMonitor(rules, store)
        reference = _ReferenceMonitor(rules, store)
        for _ in range(40):
            bucket = int(rng.integers(-3, 64))
            assert _texts(monitor.evaluate(bucket)) == _texts(
                reference.evaluate(bucket)
            )
            if rng.random() < 0.2:
                _random_store(rng, store)
        assert _texts(monitor.events) == _texts(reference.events)

    def test_run_reads_each_window_once(self, monkeypatch):
        rng = np.random.default_rng(7)
        store = _random_store(rng)
        rules = [
            _rule(name=f"{series}-{aggregate}", series=series,
                  aggregate=aggregate, short_windows=3, long_windows=6)
            for series, aggregates in _AGGREGATES.items()
            for aggregate in aggregates
        ]
        reads = Counter()
        value = TimeseriesStore.value

        def counted(self, name, bucket, aggregate):
            reads[name, aggregate, bucket] += 1
            return value(self, name, bucket, aggregate)

        monkeypatch.setattr(TimeseriesStore, "value", counted)
        SloMonitor(rules, store).run()
        assert reads and max(reads.values()) == 1

    def test_unknown_aggregate_still_fails_at_its_first_window(self):
        store = _gauge_run([0.2, 0.9])
        monitor = SloMonitor([_rule(aggregate="p95")], store)
        with pytest.raises(ValidationError, match="does not apply"):
            monitor.run()


class TestDefaultCatalogue:
    def test_none_thresholds_disable_rules(self):
        assert default_rules() == ()
        only = default_rules(participation_floor=0.5)
        assert [r.name for r in only] == ["participation"]

    def test_full_catalogue_names_and_bounds(self):
        rules = default_rules(
            latency_p95=5.0,
            latency_p99=10.0,
            throughput_floor=1.0,
            drop_rate=0.5,
            gini_ceiling=0.6,
            participation_floor=0.4,
            starvation_ceiling=0.3,
        )
        by_name = {r.name: r for r in rules}
        assert set(by_name) == {
            "latency-p95", "latency-p99", "throughput", "drop-rate",
            "benefit-gini", "participation", "starvation",
        }
        assert by_name["throughput"].bound == "floor"
        assert by_name["participation"].bound == "floor"
        assert by_name["latency-p95"].aggregate == "p95"
        assert by_name["drop-rate"].aggregate == "rate"


class TestAlertLog:
    def _events(self):
        store = _gauge_run([0.0] * 10)
        monitor = SloMonitor([_rule()], store)
        monitor.run()
        return monitor.events

    def test_round_trip(self, tmp_path):
        events = self._events()
        path = write_alert_log(events, tmp_path / "alerts.jsonl")
        assert read_alert_log(path) == events
        header = path.read_text().splitlines()[0]
        assert ALERT_SCHEMA in header

    def test_event_dict_round_trip(self):
        event = self._events()[0]
        assert AlertEvent.from_dict(event.to_dict()) == event

    def test_read_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ValidationError, match="not valid JSON"):
            read_alert_log(bad)
        with pytest.raises(ValidationError, match="not found"):
            read_alert_log(tmp_path / "missing.jsonl")


class TestSpecSloCompilation:
    def _payload(self, **slo):
        return {
            "schema": "repro-spec/1",
            "market": {
                "workload": "amt-like",
                "workers": 10,
                "tasks": 10,
                "seed": 0,
            },
            "scenario": {"solver": "greedy", "lam": 0.5},
            "slo": slo,
        }

    def test_compile_slo_builds_rules_and_window(self):
        from repro.spec import compile_slo

        rules, window = compile_slo(
            self._payload(window=2.5, participation_floor=0.4)
        )
        assert window == 2.5
        assert [r.name for r in rules] == ["participation"]
        assert rules[0].threshold == 0.4

    def test_empty_slo_table_compiles_to_no_rules(self):
        from repro.spec import compile_slo

        rules, window = compile_slo(self._payload())
        assert rules == ()
        assert window == 1.0

    def test_c213_rejects_inverted_horizons(self):
        from repro.spec import check_spec

        result = check_spec(
            self._payload(short_windows=6, long_windows=3)
        )
        assert not result.ok
        assert any(d.code == "C213" for d in result.diagnostics)

    def test_c214_rejects_p99_below_p95(self):
        from repro.spec import check_spec

        result = check_spec(
            self._payload(latency_p95=5.0, latency_p99=2.0)
        )
        assert not result.ok
        assert any(d.code == "C214" for d in result.diagnostics)

    def test_threshold_domains_enforced(self):
        from repro.spec import check_spec

        assert not check_spec(self._payload(gini_ceiling=1.5)).ok
        assert not check_spec(self._payload(drop_rate=-1.0)).ok
        assert check_spec(self._payload(gini_ceiling=0.5)).ok
