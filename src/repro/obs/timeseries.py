"""Windowed, ring-buffered time-series metric store.

The flat :class:`~repro.obs.metrics.Metrics` registry answers *how
much work did the whole run do*; this store answers *how did the run
look over time* — the live-health view a platform operator steers on
(throughput per window, worker-benefit dispersion per window,
participation per window).  Producers scrape into it on the
**simulated** clock (event times in the stream dispatcher, round
indices in the engine), so every recorded value is deterministic for a
seeded run and safe to feed SLO evaluation.

Three series kinds, mirroring the flat registry:

* **counter** — per-window sums; rates derive as ``sum / window``;
* **gauge** — per-window last value plus a mean over writes;
* **sample** — exact per-window sample reservoirs for quantile
  queries (p50/p95/p99 are interpolated exactly, never sketched).

Windows are aligned: a write at time ``t`` lands in bucket
``floor(t / window)``.  Each series keeps at most ``capacity`` of its
most recent windows — recording into a window that has already been
evicted is counted in :attr:`TimeseriesStore.dropped` rather than
resurrecting history.

Serialization (:meth:`to_dict` / :meth:`from_dict`) is canonical:
sample reservoirs are emitted sorted, so two stores holding the same
multiset of observations serialize identically regardless of the
order merges happened in — this is what makes the parallel-sweep
scrape bit-identical to a serial one.

Layering: utils/errors only, like the rest of ``repro.obs`` (R301).
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ValidationError

#: Schema tag for the timeseries event embedded in trace files.
TIMESERIES_SCHEMA = "repro-obs-timeseries/1"

#: The three series kinds and the aggregates each answers.
SERIES_KINDS = ("counter", "gauge", "sample")

_COUNTER_AGGREGATES = ("sum", "rate")
_GAUGE_AGGREGATES = ("last", "mean")
_SAMPLE_AGGREGATES = ("count", "mean", "min", "max")


def exact_percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sample list.

    Matches ``numpy.percentile``'s default (linear) method exactly so
    the stream latency summary and the windowed store agree bit-for-bit;
    implemented locally because ``repro.obs`` sits below the layers
    that are allowed to assume numpy-heavy call sites.
    """
    if not 0.0 <= q <= 100.0:
        raise ValidationError(f"percentile must lie in [0, 100], got {q}")
    n = len(sorted_values)
    if n == 0:
        return float("nan")
    if n == 1:
        return float(sorted_values[0])
    rank = (q / 100.0) * (n - 1)
    low = int(math.floor(rank))
    high = min(low + 1, n - 1)
    fraction = rank - low
    return float(
        sorted_values[low]
        + fraction * (sorted_values[high] - sorted_values[low])
    )


class _Series:
    """One named series: a kind plus its retained window payloads."""

    __slots__ = ("kind", "windows", "newest", "oldest")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        #: bucket -> payload.  counter: float sum; gauge:
        #: [last, total, n]; sample: list of floats (insertion order).
        self.windows: dict[int, object] = {}
        #: Highest bucket ever written, and a lower bound on the
        #: lowest retained bucket — kept so the write path never scans
        #: the whole ring (``max(windows)`` per write is measurable in
        #: the dispatcher's per-window flush).
        self.newest: int | None = None
        self.oldest = 0


class TimeseriesStore:
    """Aligned-window metric store with per-series ring eviction."""

    def __init__(self, window: float = 1.0, capacity: int = 512) -> None:
        window = float(window)
        if not math.isfinite(window) or window <= 0.0:
            raise ValidationError(
                f"timeseries window must be a positive finite number of "
                f"simulated seconds, got {window}"
            )
        capacity = int(capacity)
        if capacity < 1:
            raise ValidationError(
                f"timeseries capacity must be >= 1 window, got {capacity}"
            )
        self.window = window
        self.capacity = capacity
        #: Writes refused because their window was already evicted.
        self.dropped = 0
        self._series: dict[str, _Series] = {}

    # -- recording ----------------------------------------------------

    def bucket(self, t: float) -> int:
        """The aligned window index a write at time ``t`` lands in."""
        return int(math.floor(float(t) / self.window))

    def bucket_time(self, bucket: int) -> float:
        """A representative time inside ``bucket`` (its midpoint).

        Producers that count in *logical* steps rather than simulated
        seconds (the engine's round index) use this to address bucket
        ``i`` without caring what the configured window width is.
        """
        return (bucket + 0.5) * self.window

    def _window(self, name: str, kind: str, t: float):
        """``(windows, bucket)`` for a write, creating the series and
        the window slot as needed; None when the write lands in a
        window the ring already evicted."""
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series(kind)
        elif series.kind != kind:
            raise ValidationError(
                f"series {name!r} is a {series.kind}, not a {kind}"
            )
        bucket = self.bucket(t)
        windows = series.windows
        if bucket not in windows:
            newest = series.newest
            if newest is None:
                series.newest = bucket
                series.oldest = bucket
            elif bucket <= newest - self.capacity:
                self.dropped += 1
                return None
            elif bucket > newest:
                series.newest = bucket
                horizon = bucket - self.capacity
                if series.oldest <= horizon:
                    # ``oldest`` is a lower bound, so walking it
                    # forward is O(evicted) for a monotone clock; a
                    # jump far past the ring falls back to one scan.
                    if horizon - series.oldest > len(windows):
                        for stale in [
                            b for b in windows if b <= horizon
                        ]:
                            del windows[stale]
                    else:
                        stale = series.oldest
                        while stale <= horizon:
                            windows.pop(stale, None)
                            stale += 1
                    series.oldest = horizon + 1
            elif bucket < series.oldest:
                series.oldest = bucket
            if kind == "counter":
                windows[bucket] = 0.0
            elif kind == "gauge":
                windows[bucket] = [0.0, 0.0, 0]
            else:
                windows[bucket] = []
        return windows, bucket

    def count(self, name: str, t: float, value: float = 1.0) -> None:
        """Add ``value`` to the counter series at time ``t``."""
        slot = self._window(name, "counter", t)
        if slot is None:
            return
        windows, bucket = slot
        windows[bucket] += float(value)

    def gauge(self, name: str, t: float, value: float) -> None:
        """Write a gauge value at time ``t`` (window keeps last + mean)."""
        slot = self._window(name, "gauge", t)
        if slot is None:
            return
        payload = slot[0][slot[1]]
        payload[0] = float(value)
        payload[1] += float(value)
        payload[2] += 1

    def observe(self, name: str, t: float, value: float) -> None:
        """Append a sample at time ``t`` (window keeps exact values)."""
        slot = self._window(name, "sample", t)
        if slot is None:
            return
        slot[0][slot[1]].append(float(value))

    def extend(self, name: str, t: float, values: Iterable[float]) -> None:
        """Append many samples at time ``t`` in one call.

        Batch form of :meth:`observe` for hot paths that buffer a
        window's worth of samples before flushing (the stream
        dispatcher's telemetry scrape); recorded order matches
        repeated ``observe`` calls.
        """
        slot = self._window(name, "sample", t)
        if slot is None:
            return
        slot[0][slot[1]].extend(float(v) for v in values)

    # -- queries ------------------------------------------------------

    def series_names(self) -> list[str]:
        return sorted(self._series)

    def kind(self, name: str) -> str:
        series = self._series.get(name)
        if series is None:
            raise ValidationError(f"no series named {name!r}")
        return series.kind

    def buckets(self, name: str) -> list[int]:
        """Retained window indices of one series, ascending; empty
        list for a series that was never recorded."""
        series = self._series.get(name)
        if series is None:
            return []
        return sorted(series.windows)

    def value(self, name: str, bucket: int, aggregate: str) -> float:
        """One aggregate of one series window; NaN when the window (or
        the whole series) holds no data."""
        series = self._series.get(name)
        if series is None or bucket not in series.windows:
            return float("nan")
        payload = series.windows[bucket]
        if series.kind == "counter":
            if aggregate == "sum":
                return float(payload)
            if aggregate == "rate":
                return float(payload) / self.window
        elif series.kind == "gauge":
            if aggregate == "last":
                return float(payload[0])
            if aggregate == "mean":
                return payload[1] / payload[2] if payload[2] else float("nan")
        else:
            if aggregate == "count":
                return float(len(payload))
            if not payload:
                return float("nan")
            if aggregate == "mean":
                return float(sum(payload) / len(payload))
            if aggregate == "min":
                return float(min(payload))
            if aggregate == "max":
                return float(max(payload))
            if aggregate.startswith("p"):
                try:
                    q = float(aggregate[1:])
                except ValueError:
                    q = None
                if q is not None:
                    return exact_percentile(sorted(payload), q)
        raise ValidationError(
            f"aggregate {aggregate!r} does not apply to {series.kind} "
            f"series {name!r} (counters: {'/'.join(_COUNTER_AGGREGATES)}; "
            f"gauges: {'/'.join(_GAUGE_AGGREGATES)}; samples: "
            f"{'/'.join(_SAMPLE_AGGREGATES)} or pNN)"
        )

    def series_values(self, name: str, aggregate: str) -> list[float]:
        """``value(...)`` over every retained window, bucket-ascending."""
        return [
            self.value(name, bucket, aggregate)
            for bucket in self.buckets(name)
        ]

    # -- serialization and merge --------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-ready payload (samples sorted ascending)."""
        series_payload = {}
        for name in sorted(self._series):
            series = self._series[name]
            windows = {}
            for bucket in sorted(series.windows):
                payload = series.windows[bucket]
                if series.kind == "counter":
                    windows[str(bucket)] = float(payload)
                elif series.kind == "gauge":
                    windows[str(bucket)] = [
                        float(payload[0]),
                        float(payload[1]),
                        int(payload[2]),
                    ]
                else:
                    windows[str(bucket)] = sorted(payload)
            series_payload[name] = {
                "kind": series.kind,
                "windows": windows,
            }
        return {
            "schema": TIMESERIES_SCHEMA,
            "window": self.window,
            "capacity": self.capacity,
            "dropped": self.dropped,
            "series": series_payload,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TimeseriesStore":
        schema = payload.get("schema")
        if schema != TIMESERIES_SCHEMA:
            raise ValidationError(
                f"not a timeseries payload (schema {schema!r}, expected "
                f"{TIMESERIES_SCHEMA!r})"
            )
        store = cls(
            window=payload.get("window", 1.0),
            capacity=payload.get("capacity", 512),
        )
        store.dropped = int(payload.get("dropped", 0))
        series_payload = payload.get("series", {})
        if not isinstance(series_payload, dict):
            raise ValidationError("timeseries 'series' must be an object")
        for name, body in series_payload.items():
            kind = body.get("kind")
            if kind not in SERIES_KINDS:
                raise ValidationError(
                    f"series {name!r} has unknown kind {kind!r}"
                )
            series = _Series(kind)
            for raw_bucket, window_payload in body.get(
                "windows", {}
            ).items():
                bucket = int(raw_bucket)
                if kind == "counter":
                    series.windows[bucket] = float(window_payload)
                elif kind == "gauge":
                    last, total, n = window_payload
                    series.windows[bucket] = [
                        float(last), float(total), int(n),
                    ]
                else:
                    series.windows[bucket] = [
                        float(v) for v in window_payload
                    ]
            if series.windows:
                series.newest = max(series.windows)
                series.oldest = min(series.windows)
            store._series[name] = series
        return store

    def merge(self, payload: "TimeseriesStore | dict") -> None:
        """Fold another store (or its :meth:`to_dict` payload) in.

        Counter windows add, gauge windows add their (total, n) and
        take the incoming last, sample windows concatenate.  Because
        serialization sorts samples and the scraped values are
        seed-deterministic, any merge order produces the same exported
        payload — the property the parallel-sweep tests pin.
        """
        other = (
            payload
            if isinstance(payload, TimeseriesStore)
            else TimeseriesStore.from_dict(payload)
        )
        if other.window != self.window:
            raise ValidationError(
                f"cannot merge timeseries with window {other.window} "
                f"into one with window {self.window}"
            )
        self.dropped += other.dropped
        for name, incoming in other._series.items():
            for bucket in sorted(incoming.windows):
                value = incoming.windows[bucket]
                if incoming.kind == "counter":
                    self.count(name, self.bucket_time(bucket), value)
                elif incoming.kind == "gauge":
                    slot = self._window(
                        name, "gauge", self.bucket_time(bucket)
                    )
                    if slot is None:
                        continue
                    payload_slot = slot[0][slot[1]]
                    payload_slot[0] = float(value[0])
                    payload_slot[1] += float(value[1])
                    payload_slot[2] += int(value[2])
                else:
                    for sample in value:
                        self.observe(
                            name, self.bucket_time(bucket), sample
                        )
