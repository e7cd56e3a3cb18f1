"""Tests for the event-driven market simulation.

The continuous-time market (F20, ``repro events``) runs on
:class:`repro.stream.StreamDispatcher`: each worker and task arrives
once, tasks expire at their deadline and worker sessions end after
``session_length``.
"""

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.benefit import build_benefit_matrices
from repro.benefit.rows import RowwiseBenefit
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ConfigurationError, ValidationError
from repro.market.arrivals import TraceArrivals
from repro.market.market import LaborMarket
from repro.stream import DispatchConfig, StreamDispatcher
from repro.stream.bus import EventBus
from repro.stream.dispatch import DispatchRuntime


def _market(seed=0, **kwargs):
    defaults = dict(n_workers=20, n_tasks=10)
    defaults.update(kwargs)
    return generate_market(SyntheticConfig(**defaults), seed=seed)


def _with_inactive(market, indices):
    workers = list(market.workers)
    for index in indices:
        workers[index] = dataclasses.replace(workers[index], active=False)
    return LaborMarket(
        workers, market.tasks, market.taxonomy, market.requesters
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_window": 0.0},
            {"task_rate": 0.0},
            {"worker_rate": -1.0},
            {"deadline": 0.0},
            {"session_length": 0.0},
            {"policy": "auction"},
            {"sample_fraction": 1.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            DispatchConfig(**kwargs)

    def test_empty_market_rejected(self, taxonomy):
        with pytest.raises(ValidationError):
            StreamDispatcher(LaborMarket([], [], taxonomy))


class TestRun:
    def test_deterministic_given_seed(self):
        dispatcher = StreamDispatcher(_market())
        a = dispatcher.run(seed=5)
        b = dispatcher.run(seed=5)
        assert a.records == b.records
        assert a.posted_tasks == b.posted_tasks

    def test_accounting_consistency(self):
        market = _market()
        result = StreamDispatcher(market).run(seed=1)
        # Every posted task is assigned or expires; the run ends once
        # the whole population has arrived and every event has fired.
        assert result.assignments + result.expired_tasks == (
            result.posted_tasks
        )
        assert result.posted_tasks == market.n_tasks
        assert 0.0 <= result.fill_rate <= 1.0

    def test_waiting_times_within_deadline(self):
        config = DispatchConfig(deadline=4.0)
        result = StreamDispatcher(_market(), config).run(seed=2)
        assert result.records
        assert all(0.0 <= r.wait <= 4.0 + 1e-9 for r in result.records)

    def test_assignment_times_ordered_and_in_horizon(self):
        result = StreamDispatcher(_market()).run(seed=3)
        times = [r.time for r in result.records]
        assert times
        assert times == sorted(times)
        assert all(0.0 <= t <= result.end_time for t in times)

    def test_benefit_totals_match_edges(self):
        market = _market()
        result = StreamDispatcher(market).run(seed=4)
        combined = build_benefit_matrices(market).combined
        expected = sum(
            float(combined[r.worker_index, r.task_index])
            for r in result.records
        )
        assert result.combined_benefit == pytest.approx(expected)

    def test_only_positive_benefit_edges(self):
        market = _market()
        result = StreamDispatcher(market).run(seed=5)
        combined = build_benefit_matrices(market).combined
        assert result.records
        for r in result.records:
            assert combined[r.worker_index, r.task_index] > 0

    def test_inactive_workers_never_assigned(self):
        market = _with_inactive(_market(seed=6), (0, 1, 2))
        result = StreamDispatcher(market).run(seed=0)
        assert result.records
        assert all(r.worker_index not in (0, 1, 2) for r in result.records)

    def test_starved_market_expires_tasks(self):
        """With almost no workers, most tasks should expire."""
        config = DispatchConfig(
            task_rate=5.0, worker_rate=0.05, deadline=3.0
        )
        result = StreamDispatcher(_market(), config).run(seed=7)
        assert result.expired_tasks > result.posted_tasks * 0.5

    def test_flooded_market_fills_most(self):
        # Workers arrive ten times faster than tasks over about the
        # same span and stay for long sessions.
        config = DispatchConfig(
            task_rate=1.0,
            worker_rate=10.0,
            session_length=10.0,
            deadline=10.0,
        )
        market = _market(n_workers=100, n_tasks=10)
        result = StreamDispatcher(market, config).run(seed=8)
        assert result.fill_rate > 0.8

    def test_event_log_populated(self):
        market = _market()
        with obs.tracing() as tracer:
            result = StreamDispatcher(market).run(seed=9)
        counters = tracer.metrics.counters
        assert counters["stream.posted"] == result.posted_tasks > 0
        assert counters["stream.logins"] == result.logins > 0
        assert counters["stream.logouts"] == result.logins


class TestOverlappingSessions:
    """Regression: overlapping logins of the same worker.

    The old accounting kept one flat ``worker -> capacity`` dict and
    logged out with ``pop(worker, None)``, so when a worker logged in
    again before their first session ended, the *first* logout
    destroyed the capacity the *second* login had granted.  The
    dispatcher's runtime books capacity in a per-session ledger.
    Arrival processes yield each worker once, so the overlap is
    scripted on the runtime directly.
    """

    def test_second_session_survives_first_logout(self):
        market = _market(seed=0, n_workers=3, n_tasks=3)
        runtime = DispatchRuntime(
            DispatchConfig(session_length=5.0, deadline=4.0),
            RowwiseBenefit(market),
            EventBus(),
        )
        # Worker 0's best task, guaranteed assignable.
        combined = build_benefit_matrices(market).combined
        task = int(np.argmax(combined[0]))
        assert combined[0, task] > 0
        capacity = market.workers[0].capacity
        # Login at 0.0 (session ends 5.0) and again at 1.0 (ends 6.0);
        # the task arrives at 5.5 — inside the second session only.
        first = runtime.ledger.login(0, capacity, expires_at=5.0)
        runtime.ledger.login(0, capacity, expires_at=6.0)
        assert runtime.ledger.logout(first) == (0, capacity)
        runtime.open[task] = 5.5
        assert runtime.online_array().tolist() == [0]
        runtime.assign(0, task, 5.5, float(combined[0, task]))
        assert runtime.capacity(0) == capacity - 1
        assert task not in runtime.open


class TestSkippedLoginLogged:
    """Regression: inactive-worker logins must be counted, not lost."""

    def test_inactive_login_leaves_skipped_entry(self):
        market = _with_inactive(
            _market(seed=2, n_workers=2, n_tasks=2), (0,)
        )
        dispatcher = StreamDispatcher(
            market,
            worker_arrivals=TraceArrivals([0, 1], times=[1.0, 2.0]),
        )
        with obs.tracing() as tracer:
            result = dispatcher.run(seed=0)
        assert result.skipped_logins == 1
        assert result.logins == 1
        assert tracer.metrics.counters["stream.skipped_logins"] == 1.0
        assert all(r.worker_index == 1 for r in result.records)

    def test_active_login_has_no_skip_marker(self):
        market = _market()
        with obs.tracing() as tracer:
            result = StreamDispatcher(market).run(seed=3)
        assert result.logins == market.n_workers
        assert result.skipped_logins == 0
        assert "stream.skipped_logins" not in tracer.metrics.counters
