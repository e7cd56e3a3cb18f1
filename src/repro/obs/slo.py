"""Declarative SLOs with multi-window burn-rate alerting.

A :class:`SloRule` names one aggregate of one
:class:`~repro.obs.timeseries.TimeseriesStore` series and bounds it
(ceiling or floor).  Evaluation is the standard two-horizon burn-rate
scheme: at each window the monitor computes the fraction of recent
windows in breach over a *short* horizon (fast detection) and a *long*
horizon (sustained-problem confirmation), and drives a per-rule
``ok -> warn -> page`` state machine:

* **warn** — the short-horizon breach fraction reached ``warn_burn``;
* **page** — *both* horizons reached ``page_burn`` (a sustained
  breach, not a single bad window);
* recovery walks back down the same ladder as the fractions drop.

Every state *transition* emits an :class:`AlertEvent`; the JSONL alert
log (:func:`write_alert_log`) is the durable artifact a CI gate or an
operator reads.  Because the feeding store records on the simulated
clock, identical seeds produce identical alert logs.

The default catalogue (:func:`default_rules`) covers the operational
signals (latency p95/p99 ceilings, assignments/sec floor, drop-rate
ceiling) and the paper-grounded market-health signals: a per-window
worker-benefit Gini ceiling, a participation floor, and a
worker-starvation ceiling — the "platform slowly destroys its worker
pool" failure mode the mutual-benefit objective exists to prevent.

Layering: utils/errors only, like the rest of ``repro.obs`` (R301).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ValidationError
from repro.obs.timeseries import TimeseriesStore
from repro.utils.atomic import atomic_write_text

#: Schema tag of the JSONL alert log.
ALERT_SCHEMA = "repro-obs-alerts/1"

#: Alert severity ladder, mildest first.
ALERT_STATES = ("ok", "warn", "page")

#: Series names the producers scrape and the default catalogue reads.
LATENCY_SERIES = "stream.wait"
THROUGHPUT_SERIES = "stream.assigned"
DROP_SERIES = "stream.dropped"
GINI_SERIES = "market.benefit_gini"
PARTICIPATION_SERIES = "market.participation"
STARVATION_SERIES = "market.starvation"


@dataclass(frozen=True)
class SloRule:
    """One bounded aggregate of one timeseries."""

    name: str
    series: str
    aggregate: str
    #: ``"ceiling"`` (breach when value > threshold) or ``"floor"``
    #: (breach when value < threshold).
    bound: str
    threshold: float
    short_windows: int = 3
    long_windows: int = 6
    #: Short-horizon breach fraction that raises ``warn``.
    warn_burn: float = 0.5
    #: Breach fraction both horizons must reach to ``page``.
    page_burn: float = 0.75
    description: str = ""

    def __post_init__(self) -> None:
        if self.bound not in ("ceiling", "floor"):
            raise ValidationError(
                f"rule {self.name!r}: bound must be 'ceiling' or "
                f"'floor', got {self.bound!r}"
            )
        if not math.isfinite(self.threshold):
            raise ValidationError(
                f"rule {self.name!r}: threshold must be finite, got "
                f"{self.threshold}"
            )
        if self.short_windows < 1 or self.long_windows < 1:
            raise ValidationError(
                f"rule {self.name!r}: horizons must be >= 1 window"
            )
        if self.long_windows < self.short_windows:
            raise ValidationError(
                f"rule {self.name!r}: long horizon "
                f"({self.long_windows}) must cover the short one "
                f"({self.short_windows})"
            )
        for label, burn in (
            ("warn_burn", self.warn_burn),
            ("page_burn", self.page_burn),
        ):
            if not 0.0 < burn <= 1.0:
                raise ValidationError(
                    f"rule {self.name!r}: {label} must lie in (0, 1], "
                    f"got {burn}"
                )

    def breached(self, value: float) -> bool:
        """Whether one window value violates the bound (NaN never
        breaches — no data is not a breach)."""
        if math.isnan(value):
            return False
        if self.bound == "ceiling":
            return value > self.threshold
        return value < self.threshold

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "series": self.series,
            "aggregate": self.aggregate,
            "bound": self.bound,
            "threshold": self.threshold,
            "short_windows": self.short_windows,
            "long_windows": self.long_windows,
            "warn_burn": self.warn_burn,
            "page_burn": self.page_burn,
            "description": self.description,
        }


@dataclass(frozen=True)
class AlertEvent:
    """One state transition of one rule, at one evaluated window."""

    rule: str
    series: str
    bucket: int
    time: float
    #: New state after the transition.
    state: str
    previous: str
    short_burn: float
    long_burn: float
    #: The rule aggregate's value in the evaluated window.
    value: float
    threshold: float
    bound: str

    @property
    def severity(self) -> int:
        return ALERT_STATES.index(self.state)

    def to_dict(self) -> dict:
        return {
            "type": "alert",
            "rule": self.rule,
            "series": self.series,
            "bucket": self.bucket,
            "time": self.time,
            "state": self.state,
            "previous": self.previous,
            "short_burn": self.short_burn,
            "long_burn": self.long_burn,
            "value": self.value,
            "threshold": self.threshold,
            "bound": self.bound,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AlertEvent":
        return cls(
            rule=str(payload["rule"]),
            series=str(payload["series"]),
            bucket=int(payload["bucket"]),
            time=float(payload["time"]),
            state=str(payload["state"]),
            previous=str(payload["previous"]),
            short_burn=float(payload["short_burn"]),
            long_burn=float(payload["long_burn"]),
            value=float(payload["value"]),
            threshold=float(payload["threshold"]),
            bound=str(payload["bound"]),
        )


class SloMonitor:
    """Evaluates a rule set against a store, window by window."""

    def __init__(
        self, rules: tuple[SloRule, ...] | list[SloRule],
        store: TimeseriesStore,
    ) -> None:
        rules = tuple(rules)
        names = [rule.name for rule in rules]
        duplicates = sorted(
            {name for name in names if names.count(name) > 1}
        )
        if duplicates:
            raise ValidationError(
                f"duplicate SLO rule name(s): {', '.join(duplicates)}"
            )
        self.rules = rules
        self.store = store
        self.states: dict[str, str] = {
            rule.name: "ok" for rule in rules
        }
        self.events: list[AlertEvent] = []

    def evaluate(self, bucket: int) -> list[AlertEvent]:
        """Advance every rule's state machine to ``bucket``; returns
        the transitions this window caused (already appended to
        :attr:`events`)."""
        return self._evaluate(bucket, {})

    def _evaluate(
        self, bucket: int, reads: dict[str, dict[int, tuple[float, bool]]]
    ) -> list[AlertEvent]:
        """:meth:`evaluate` through ``reads``, rule name -> bucket ->
        (value, breached), shared by calls that see one store state."""
        emitted: list[AlertEvent] = []
        for rule in self.rules:
            seen = reads.setdefault(rule.name, {})
            short = _burn_fraction(self.store, rule, bucket,
                                   rule.short_windows, seen)
            long = _burn_fraction(self.store, rule, bucket,
                                  rule.long_windows, seen)
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
                value=seen[bucket][0],
                threshold=rule.threshold,
                bound=rule.bound,
            )
            self.events.append(event)
            emitted.append(event)
        return emitted

    def run(self) -> list[AlertEvent]:
        """Evaluate every retained window that any rule's series
        touches, in time order; returns all transitions.  Each
        (rule, window) is read once per call, never across calls."""
        buckets: set[int] = set()
        for rule in self.rules:
            buckets.update(self.store.buckets(rule.series))
        reads: dict[str, dict[int, tuple[float, bool]]] = {}
        for bucket in sorted(buckets):
            self._evaluate(bucket, reads)
        return self.events

    @property
    def paged(self) -> bool:
        """Whether any rule ever reached ``page``."""
        return any(event.state == "page" for event in self.events)

    @property
    def worst_state(self) -> str:
        worst = 0
        for event in self.events:
            worst = max(worst, event.severity)
        return ALERT_STATES[worst]


def _burn_fraction(
    store: TimeseriesStore, rule: SloRule, bucket: int, horizon: int,
    seen: dict[int, tuple[float, bool]],
) -> float:
    """Breach fraction over the ``horizon`` windows ending at
    ``bucket``; NaN when no window in the horizon holds data.  Windows
    missing from ``seen`` are read from the store into it.

    The denominator is the full horizon width, not the observed-window
    count: windows with no data count as healthy.  Dividing by observed
    windows would let the very first recorded window alone saturate
    both horizons (burn 1/1 = 1.0) and page on a cold start — a
    "sustained" verdict needs the horizon actually sustained.
    """
    observed = 0
    breached = 0
    for b in range(bucket - horizon + 1, bucket + 1):
        read = seen.get(b)
        if read is None:
            value = store.value(rule.series, b, rule.aggregate)
            read = seen[b] = (value, rule.breached(value))
        value, breach = read
        if math.isnan(value):
            continue
        observed += 1
        if breach:
            breached += 1
    if observed == 0:
        return float("nan")
    return breached / horizon


def default_rules(
    *,
    latency_p95: float | None = None,
    latency_p99: float | None = None,
    throughput_floor: float | None = None,
    drop_rate: float | None = None,
    gini_ceiling: float | None = None,
    participation_floor: float | None = None,
    starvation_ceiling: float | None = None,
    short_windows: int = 3,
    long_windows: int = 6,
    warn_burn: float = 0.5,
    page_burn: float = 0.75,
) -> tuple[SloRule, ...]:
    """The standard catalogue; rules with a ``None`` threshold are
    omitted, so callers enable exactly the signals they configure."""
    horizon = {
        "short_windows": short_windows,
        "long_windows": long_windows,
        "warn_burn": warn_burn,
        "page_burn": page_burn,
    }
    catalogue: list[SloRule] = []
    if latency_p95 is not None:
        catalogue.append(SloRule(
            name="latency-p95", series=LATENCY_SERIES, aggregate="p95",
            bound="ceiling", threshold=latency_p95,
            description="p95 time-to-assignment ceiling (simulated s)",
            **horizon,
        ))
    if latency_p99 is not None:
        catalogue.append(SloRule(
            name="latency-p99", series=LATENCY_SERIES, aggregate="p99",
            bound="ceiling", threshold=latency_p99,
            description="p99 time-to-assignment ceiling (simulated s)",
            **horizon,
        ))
    if throughput_floor is not None:
        catalogue.append(SloRule(
            name="throughput", series=THROUGHPUT_SERIES,
            aggregate="rate", bound="floor",
            threshold=throughput_floor,
            description="assignments per simulated second floor",
            **horizon,
        ))
    if drop_rate is not None:
        catalogue.append(SloRule(
            name="drop-rate", series=DROP_SERIES, aggregate="rate",
            bound="ceiling", threshold=drop_rate,
            description="backpressure drops per simulated second "
                        "ceiling",
            **horizon,
        ))
    if gini_ceiling is not None:
        catalogue.append(SloRule(
            name="benefit-gini", series=GINI_SERIES, aggregate="last",
            bound="ceiling", threshold=gini_ceiling,
            description="per-window worker-benefit Gini ceiling "
                        "(earnings dispersion)",
            **horizon,
        ))
    if participation_floor is not None:
        catalogue.append(SloRule(
            name="participation", series=PARTICIPATION_SERIES,
            aggregate="last", bound="floor",
            threshold=participation_floor,
            description="fraction of online workers assigned per "
                        "window floor",
            **horizon,
        ))
    if starvation_ceiling is not None:
        catalogue.append(SloRule(
            name="starvation", series=STARVATION_SERIES,
            aggregate="last", bound="ceiling",
            threshold=starvation_ceiling,
            description="fraction of online workers with no recent "
                        "assignment ceiling",
            **horizon,
        ))
    return tuple(catalogue)


def write_alert_log(
    events: list[AlertEvent], path: str | Path, tag: str = "run"
) -> Path:
    """Durable JSONL alert log: a header line then one line per
    transition, in emission order."""
    lines = [
        json.dumps(
            {
                "type": "header",
                "schema": ALERT_SCHEMA,
                "tag": tag,
                "n_alerts": len(events),
            },
            sort_keys=True,
        )
    ]
    lines.extend(
        json.dumps(event.to_dict(), sort_keys=True) for event in events
    )
    return atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_alert_log(path: str | Path) -> list[AlertEvent]:
    """Parse and validate a JSONL alert log."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"alert log not found: {path}")
    lines = [
        line for line in path.read_text().splitlines() if line.strip()
    ]
    if not lines:
        raise ValidationError(f"{path} is empty, not an alert log")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        raise ValidationError(
            f"{path} line 1 is not valid JSON: {error}"
        ) from None
    if (
        not isinstance(header, dict)
        or header.get("type") != "header"
        or header.get("schema") != ALERT_SCHEMA
    ):
        raise ValidationError(
            f"{path} is not an alert log (expected a header with "
            f"schema {ALERT_SCHEMA!r})"
        )
    events = []
    for line_number, line in enumerate(lines[1:], start=2):
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValidationError(
                f"{path} line {line_number} is not valid JSON: {error}"
            ) from None
        if not isinstance(payload, dict) or payload.get("type") != "alert":
            raise ValidationError(
                f"{path} line {line_number}: expected an alert event"
            )
        try:
            events.append(AlertEvent.from_dict(payload))
        except (KeyError, TypeError, ValueError) as error:
            raise ValidationError(
                f"{path} line {line_number}: malformed alert event "
                f"({error})"
            ) from None
    return events
