"""Unit tests for the ``repro.obs`` tracing/metrics layer."""

import json
import math

import pytest

from repro import obs
from repro.errors import ValidationError
from repro.obs import (
    HistogramSummary,
    Metrics,
    RunReport,
    SpanRecord,
    Tracer,
    deterministic_events,
    read_trace,
    summarize,
    write_trace,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing disabled."""
    obs.disable()
    yield
    obs.disable()


class TestTracerSpans:
    def test_spans_record_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", kind="root"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        outer, first, second = tracer.spans
        assert (outer.index, outer.parent, outer.depth) == (0, None, 0)
        assert (first.index, first.parent, first.depth) == (1, 0, 1)
        assert (second.index, second.parent, second.depth) == (2, 0, 1)
        assert outer.tags == {"kind": "root"}
        assert not tracer.open_spans

    def test_durations_stamped_at_exit(self):
        tracer = Tracer()
        context = tracer.span("work")
        with context:
            assert tracer.spans[0].open
        assert not tracer.spans[0].open
        assert tracer.spans[0].duration >= 0.0

    def test_mid_span_tagging(self):
        tracer = Tracer()
        with tracer.span("solve") as span:
            span.tag(tier=2, retries=1)
        assert tracer.spans[0].tags == {"tier": 2, "retries": 1}

    def test_exception_auto_tags_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        record = tracer.spans[0]
        assert record.tags["error"] == "RuntimeError"
        assert not record.open  # duration stamped despite the raise

    def test_name_usable_as_tag(self):
        tracer = Tracer()
        with tracer.span("bench.case", name="flow/n=10"):
            pass
        assert tracer.spans[0].name == "bench.case"
        assert tracer.spans[0].tags == {"name": "flow/n=10"}

    def test_leaked_span_stays_open(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.span("leaked").__enter__()  # never exited
        assert [s.name for s in tracer.open_spans] == ["leaked"]

    def test_span_record_roundtrip(self):
        record = SpanRecord(
            index=3, parent=1, depth=2, name="x", tags={"a": 1},
            start=0.5, duration=0.25,
        )
        assert SpanRecord.from_dict(record.to_dict()) == record


class TestMetrics:
    def test_counters_accumulate(self):
        metrics = Metrics()
        metrics.count("bids")
        metrics.count("bids", 4.0)
        assert metrics.counters["bids"] == 5.0

    def test_gauges_overwrite(self):
        metrics = Metrics()
        metrics.gauge("epsilon", 0.5)
        metrics.gauge("epsilon", 0.1)
        assert metrics.gauges["epsilon"] == 0.1

    def test_histograms_summarize(self):
        metrics = Metrics()
        for value in (1.0, 3.0, 2.0):
            metrics.observe("latency", value)
        histogram = metrics.histograms["latency"]
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(2.0)
        assert (histogram.min, histogram.max) == (1.0, 3.0)

    def test_empty_histogram_mean_is_nan(self):
        assert math.isnan(HistogramSummary().mean)

    def test_snapshot_is_detached(self):
        metrics = Metrics()
        metrics.count("a")
        snapshot = metrics.snapshot()
        metrics.count("a")
        assert snapshot["counters"]["a"] == 1.0

    def test_merge_snapshot(self):
        ours = Metrics()
        ours.count("bids", 2.0)
        ours.gauge("load", 0.3)
        ours.observe("t", 1.0)
        theirs = Metrics()
        theirs.count("bids", 3.0)
        theirs.count("paths", 1.0)
        theirs.gauge("load", 0.9)
        theirs.observe("t", 3.0)
        ours.merge_snapshot(theirs.snapshot())
        assert ours.counters == {"bids": 5.0, "paths": 1.0}
        assert ours.gauges == {"load": 0.9}
        merged = ours.histograms["t"]
        assert (merged.count, merged.min, merged.max) == (2, 1.0, 3.0)


class TestModuleLevelHelpers:
    def test_disabled_span_is_shared_noop(self):
        assert obs.span("anything") is obs.span("other")
        with obs.span("anything") as span:
            span.tag(ignored=True)  # must not blow up

    def test_disabled_metrics_are_noops(self):
        obs.count("x")
        obs.gauge("y", 1.0)
        obs.observe("z", 2.0)
        assert obs.active() is None

    def test_enable_disable_cycle(self):
        assert not obs.enabled()
        tracer = obs.enable()
        assert obs.enabled() and obs.active() is tracer
        obs.count("hits")
        assert tracer.metrics.counters == {"hits": 1.0}
        assert obs.disable() is tracer
        assert not obs.enabled()

    def test_tracing_context_restores_previous(self):
        outer = obs.enable()
        with obs.tracing() as inner:
            assert obs.active() is inner
            assert inner is not outer
        assert obs.active() is outer

    def test_tracing_context_restores_disabled(self):
        with obs.tracing():
            assert obs.enabled()
        assert not obs.enabled()


class TestAdopt:
    def test_adopt_reindexes_under_open_span(self):
        child = Tracer()
        with child.span("sweep.point"):
            with child.span("solve"):
                pass
        child.metrics.count("points")
        parent = Tracer()
        with parent.span("sweep"):
            parent.adopt(child.spans, child.metrics.snapshot())
        sweep, point, solve = parent.spans
        assert (point.index, point.parent, point.depth) == (1, 0, 1)
        assert (solve.index, solve.parent, solve.depth) == (2, 1, 2)
        assert parent.metrics.counters == {"points": 1.0}

    def test_adopt_into_idle_tracer_keeps_roots(self):
        child = Tracer()
        with child.span("work"):
            pass
        parent = Tracer()
        parent.adopt(child.spans)
        assert parent.spans[0].parent is None
        assert parent.spans[0].depth == 0


class TestExport:
    def _traced(self):
        tracer = Tracer()
        with tracer.span("round", index=0):
            with tracer.span("assign", solver="greedy"):
                pass
        tracer.metrics.count("sim.rounds")
        tracer.metrics.observe("latency", 0.5)
        return tracer

    def test_roundtrip(self, tmp_path):
        tracer = self._traced()
        path = write_trace(tracer, tmp_path / "run.jsonl", tag="unit")
        trace = read_trace(path)
        assert trace.tag == "unit"
        assert trace.header["n_spans"] == 2
        assert [s.name for s in trace.spans] == ["round", "assign"]
        assert trace.spans == tracer.spans
        assert trace.metrics["counters"] == {"sim.rounds": 1.0}
        assert trace.metrics["histograms"]["latency"]["count"] == 1

    def test_open_span_refused(self, tmp_path):
        tracer = Tracer()
        tracer.span("leaked").__enter__()
        with pytest.raises(ValidationError, match="open span"):
            write_trace(tracer, tmp_path / "bad.jsonl")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            read_trace(tmp_path / "absent.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            read_trace(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(
            json.dumps({"type": "header", "schema": "repro-obs-trace/0"})
            + "\n" + json.dumps({"type": "metrics"}) + "\n"
        )
        with pytest.raises(ValidationError, match="repro-obs-trace/1"):
            read_trace(path)

    def test_header_must_be_first(self, tmp_path):
        path = tmp_path / "headerless.jsonl"
        path.write_text(json.dumps({"type": "metrics"}) + "\n")
        with pytest.raises(ValidationError, match="header"):
            read_trace(path)

    def test_truncated_trace_rejected(self, tmp_path):
        tracer = self._traced()
        path = write_trace(tracer, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop metrics
        with pytest.raises(ValidationError, match="truncated"):
            read_trace(path)

    def test_malformed_span_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(
                {"type": "header", "schema": "repro-obs-trace/1",
                 "tag": "x", "n_spans": 1}
            )
            + "\n"
            + json.dumps({"type": "span", "index": 0, "bogus": True})
            + "\n"
            + json.dumps({"type": "metrics"})
            + "\n"
        )
        with pytest.raises(ValidationError, match="malformed span"):
            read_trace(path)

    def test_bad_parent_reference_rejected(self, tmp_path):
        tracer = self._traced()
        path = write_trace(tracer, tmp_path / "run.jsonl")
        lines = path.read_text().splitlines()
        event = json.loads(lines[2])
        event["parent"] = 7
        lines[2] = json.dumps(event)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="parent"):
            read_trace(path)

    def test_deterministic_events_strip_wall_time(self, tmp_path):
        trace = read_trace(
            write_trace(self._traced(), tmp_path / "run.jsonl")
        )
        events = deterministic_events(trace)
        assert all("start" not in e and "duration" not in e for e in events)
        assert [e["name"] for e in events] == ["round", "assign"]


class TestRunReport:
    def test_from_tracer(self):
        tracer = Tracer()
        with tracer.span("round"):
            with tracer.span("assign"):
                pass
        with tracer.span("round"):
            pass
        tracer.metrics.count("sim.rounds", 2.0)
        report = RunReport.from_tracer(tracer)
        assert report.counters == {"sim.rounds": 2.0}
        assert report.n_spans == 3
        # wall_time sums root spans only — no double counting children.
        roots = [s for s in tracer.spans if s.parent is None]
        assert report.wall_time == pytest.approx(
            sum(s.duration for s in roots)
        )

    def test_dict_roundtrip(self):
        report = RunReport(
            counters={"a": 1.0}, gauges={"g": 0.5},
            histograms={"h": {"count": 1, "total": 2.0,
                              "min": 2.0, "max": 2.0}},
            n_spans=4, wall_time=0.1,
        )
        assert RunReport.from_dict(report.to_dict()) == report


class TestSummarize:
    def test_summary_mentions_everything(self, tmp_path):
        tracer = Tracer()
        for index in range(2):
            with tracer.span("round", index=index):
                with tracer.span("assign", solver="greedy"):
                    pass
                with tracer.span("aggregate"):
                    pass
        tracer.metrics.count("sim.rounds", 2.0)
        tracer.metrics.gauge("load", 0.7)
        tracer.metrics.observe("latency", 0.5)
        trace = read_trace(
            write_trace(tracer, tmp_path / "run.jsonl", tag="sum")
        )
        text = summarize(trace, top=5)
        assert "tag='sum'" in text
        assert "round" in text and "assign" in text
        assert "sim.rounds" in text
        assert "load" in text
        assert "latency" in text
        assert "per-round breakdown:" in text

    def test_summary_of_empty_trace(self, tmp_path):
        trace = read_trace(write_trace(Tracer(), tmp_path / "e.jsonl"))
        text = summarize(trace)
        assert "spans=0" in text

    def test_negative_self_time_clamped_to_zero(self):
        # Clock jitter: a child's measured duration exceeds its
        # parent's.  Self time must clamp at zero, never go negative.
        from repro.obs import TRACE_SCHEMA, TraceData

        trace = TraceData(
            header={"schema": TRACE_SCHEMA, "tag": "t", "n_spans": 2},
            spans=[
                SpanRecord(
                    index=0, parent=None, depth=0, name="round",
                    tags={"index": 0}, start=0.0, duration=0.5,
                ),
                SpanRecord(
                    index=1, parent=0, depth=1, name="assign",
                    tags={}, start=0.0, duration=0.7,
                ),
            ],
            metrics={},
        )
        text = summarize(trace)
        assert "-0." not in text
        assert "   0.0000" in text

    def test_open_spans_rendered_as_open_not_dropped(self):
        from repro.obs import TRACE_SCHEMA, TraceData

        trace = TraceData(
            header={"schema": TRACE_SCHEMA, "tag": "t", "n_spans": 3},
            spans=[
                SpanRecord(
                    index=0, parent=None, depth=0, name="round",
                    tags={"index": 0}, start=0.0, duration=0.5,
                ),
                SpanRecord(
                    index=1, parent=0, depth=1, name="assign",
                    tags={}, start=0.0, duration=float("nan"),
                ),
                SpanRecord(
                    index=2, parent=None, depth=0, name="round",
                    tags={"index": 1}, start=0.6,
                    duration=float("nan"),
                ),
            ],
            metrics={},
        )
        text = summarize(trace)
        # Both the open stage and the open round appear, marked.
        assert text.count("(open)") == 2
        assert "    1" in text  # the open round's row is present


class TestExportErrorPaths:
    """Satellite coverage: the read-side failure modes a partially
    written or future-version trace file can present."""

    def _lines(self, tmp_path):
        tracer = Tracer()
        with tracer.span("round", index=0):
            with tracer.span("assign"):
                pass
        tracer.metrics.count("sim.rounds")
        path = write_trace(tracer, tmp_path / "run.jsonl", tag="unit")
        return path, path.read_text().splitlines()

    def test_truncated_final_line_rejected(self, tmp_path):
        # A crashed writer leaves the last line half-flushed.
        path, lines = self._lines(tmp_path)
        path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        )
        with pytest.raises(ValidationError, match="not valid JSON"):
            read_trace(path)

    def test_duplicate_span_index_rejected(self, tmp_path):
        path, lines = self._lines(tmp_path)
        event = json.loads(lines[1])
        assert event["type"] == "span"
        lines.insert(2, json.dumps(event, sort_keys=True))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="sequential"):
            read_trace(path)

    def test_future_schema_gets_actionable_error(self, tmp_path):
        # A v2 trace must raise a ValidationError that names both
        # schemas — never a KeyError from blindly indexing new fields.
        path = tmp_path / "future.jsonl"
        path.write_text(
            json.dumps(
                {"type": "header", "schema": "repro-obs-trace/2",
                 "tag": "x", "n_spans": 0, "new_field": {"a": 1}}
            )
            + "\n"
            + json.dumps({"type": "metrics"})
            + "\n"
        )
        with pytest.raises(ValidationError) as excinfo:
            read_trace(path)
        message = str(excinfo.value)
        assert "repro-obs-trace/2" in message
        assert "repro-obs-trace/1" in message
        assert "upgrade" in message


class TestTracerSink:
    def test_sink_sees_spans_in_close_order(self):
        closed = []
        tracer = Tracer(sink=lambda record: closed.append(record.name))
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert closed == ["inner", "outer"]

    def test_sink_records_are_closed_with_duration(self):
        seen = []
        tracer = Tracer(sink=seen.append)
        with tracer.span("work"):
            pass
        assert not seen[0].open
        assert seen[0].duration >= 0.0

    def test_sink_errors_propagate(self):
        def boom(record):
            raise RuntimeError("sink broke")

        tracer = Tracer(sink=boom)
        with pytest.raises(RuntimeError, match="sink broke"):
            with tracer.span("work"):
                pass

    def test_no_sink_is_default(self):
        tracer = Tracer()
        assert tracer.sink is None
        with tracer.span("work"):
            pass
        assert len(tracer.spans) == 1
