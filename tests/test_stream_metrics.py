"""Tests for stream latency/backpressure metrics."""

import math

import numpy as np
import pytest

from repro import obs
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError
from repro.market.arrivals import TraceArrivals
from repro.obs.timeseries import exact_percentile
from repro.stream import (
    AssignmentRecord,
    DispatchConfig,
    StreamDispatcher,
    StreamResult,
)


def _result(waits):
    """A finished result whose records carry the given waits."""
    result = StreamResult(policy="greedy")
    result.records = [
        AssignmentRecord(float(i), i, i, 1.0, float(wait))
        for i, wait in enumerate(waits)
    ]
    return result


class TestAssignmentRecord:
    def test_fields_immutability_and_dict(self):
        record = AssignmentRecord(1.5, 2, 3, 0.7, 0.5)
        assert record._fields == (
            "time", "worker_index", "task_index", "benefit", "wait"
        )
        with pytest.raises(AttributeError):
            record.benefit = 0.0
        assert record.to_dict() == {
            "time": 1.5, "worker": 2, "task": 3, "benefit": 0.7, "wait": 0.5
        }


class TestLatencyReservoir:
    """Exact latency percentiles of ``StreamResult.latency_summary()``,
    which reads the wait of every emitted record."""

    def test_percentiles_are_exact(self):
        samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        summary = _result(samples).latency_summary()
        for q in (50, 95, 99):
            assert summary[f"p{q}"] == pytest.approx(
                float(np.percentile(np.asarray(samples), q))
            )

    def test_empty_reservoir_is_nan(self):
        # A run that assigns nothing has no latency percentiles, so no
        # NaN ``stream.latency.p*`` gauge is published.
        market = generate_market(
            SyntheticConfig(n_workers=3, n_tasks=3), seed=0
        )
        dispatcher = StreamDispatcher(
            market,
            DispatchConfig(deadline=0.5),
            task_arrivals=TraceArrivals([0, 1, 2], times=[0.0, 1.0, 2.0]),
            worker_arrivals=TraceArrivals(
                [0, 1, 2], times=[10.0, 11.0, 12.0]
            ),
        )
        with obs.tracing() as tracer:
            result = dispatcher.run(seed=0)
        assert result.assignments == 0
        gauges = tracer.metrics.gauges
        assert not any(name.startswith("stream.latency.") for name in gauges)

    def test_summary_keys(self):
        summary = _result([1.0, 2.0, 3.0]).latency_summary()
        assert summary["count"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["max"] == 3.0
        assert set(summary) == {"count", "mean", "max", "p50", "p95", "p99"}

    def test_empty_summary(self):
        assert StreamResult().latency_summary() == {"count": 0.0}

    def test_len(self):
        assert _result([1.0]).latency_summary()["count"] == 1.0

    def test_out_of_range_percentile_raises(self):
        # The summary's percentile arithmetic rejects q outside [0, 100].
        waits = sorted(r.wait for r in _result([1.0, 2.0]).records)
        with pytest.raises(ValidationError):
            exact_percentile(waits, 101)

    def test_percentiles_match_numpy_at_every_size(self):
        # Property: for any sample count — including the small ones
        # where index-truncating estimators collapse p95/p99 onto the
        # max — every reported percentile interpolates exactly like
        # numpy's default linear method, whatever the record order.
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 19, 20, 21, 100):
            samples = rng.exponential(2.0, n).tolist()
            summary = _result(samples).latency_summary()
            for q in (50, 95, 99):
                assert summary[f"p{q}"] == pytest.approx(
                    float(np.percentile(np.asarray(samples), q)),
                    abs=1e-12,
                ), (n, q)
            assert summary["max"] == max(samples)

    def test_small_sample_p95_is_not_the_max(self):
        # 19 samples: p95 must land between the two largest values,
        # not snap to either of them.
        summary = _result(range(19, 0, -1)).latency_summary()
        p95 = summary["p95"]
        assert 18.0 < p95 < 19.0
        assert p95 == pytest.approx(18.1)
        assert p95 < summary["p99"] < 19.0

    def test_unbounded_reservoir_keeps_everything(self):
        summary = _result(range(1000)).latency_summary()
        assert summary["count"] == 1000.0
        assert summary["max"] == 999.0


class TestStreamResult:
    def test_fill_rate(self):
        result = StreamResult(policy="greedy")
        result.posted_tasks = 4
        result.records = [
            AssignmentRecord(0.0, 0, 0, 1.0, 0.0),
            AssignmentRecord(1.0, 1, 1, 1.0, 0.5),
        ]
        assert result.fill_rate == 0.5
        assert result.assignments == 2

    def test_fill_rate_with_nothing_posted(self):
        assert StreamResult().fill_rate == 0.0

    def test_throughput_needs_timing(self):
        result = StreamResult()
        result.records = [AssignmentRecord(0.0, 0, 0, 1.0, 0.0)]
        assert math.isnan(result.assignments_per_second)
        result.wall_time = 0.5
        assert result.assignments_per_second == 2.0
