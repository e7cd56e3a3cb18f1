"""Backpressure and latency metrics for the streaming dispatcher.

The dispatcher publishes ``stream.*`` counters, gauges, and histograms
through :mod:`repro.obs` so traced runs carry the queueing story in
the standard trace/report format.  The obs histogram summary only
tracks count/total/min/max (by design — it is O(1) per observation),
so exact latency percentiles come from :class:`StreamResult`, whose
records hold every time-to-assignment; the dispatcher publishes
p50/p95/p99 from there as obs *gauges* at run end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.obs.timeseries import exact_percentile

#: Percentiles published as ``stream.latency.p*`` gauges.
LATENCY_PERCENTILES: tuple[int, ...] = (50, 95, 99)


class AssignmentRecord(NamedTuple):
    """One emitted (worker, task) edge, as the writer serializes it: a
    named tuple, immutable and built at tuple cost once per assignment."""

    time: float
    worker_index: int
    task_index: int
    benefit: float
    wait: float

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "worker": self.worker_index,
            "task": self.task_index,
            "benefit": self.benefit,
            "wait": self.wait,
        }


@dataclass
class StreamResult:
    """Aggregate outcome of one streaming dispatch run."""

    policy: str = ""
    records: list[AssignmentRecord] = field(default_factory=list)
    posted_tasks: int = 0
    expired_tasks: int = 0
    dropped_tasks: int = 0
    logins: int = 0
    logouts: int = 0
    skipped_logins: int = 0
    combined_benefit: float = 0.0
    max_queue_depth: int = 0
    #: Simulated clock value when the run ended.
    end_time: float = 0.0
    #: Wall-clock seconds the dispatch loop took (set by ``run``).
    wall_time: float = 0.0
    #: Round-mode only: the delegated engine's full result, kept so
    #: bit-identity against a direct engine run is checkable.
    round_result: object | None = None

    @property
    def assignments(self) -> int:
        return len(self.records)

    @property
    def fill_rate(self) -> float:
        """Fraction of posted tasks assigned before their deadline."""
        if self.posted_tasks == 0:
            return 0.0
        return len(self.records) / self.posted_tasks

    @property
    def assignments_per_second(self) -> float:
        """Wall-clock emission throughput; NaN before timing is set."""
        if self.wall_time <= 0.0:
            return float("nan")
        return len(self.records) / self.wall_time

    def latency_summary(self) -> dict[str, float]:
        """count/mean/max of the records' waits plus the percentile
        ladder of :data:`LATENCY_PERCENTILES`.

        Percentiles interpolate linearly via
        :func:`repro.obs.timeseries.exact_percentile` (numpy's default
        method), so small samples get exact p95/p99 rather than the max.
        """
        if not self.records:
            return {"count": 0.0}
        waits = [record.wait for record in self.records]
        ordered = sorted(waits)
        out = {
            "count": float(len(waits)),
            "mean": float(np.mean(waits)),
            "max": float(ordered[-1]),
        }
        for q in LATENCY_PERCENTILES:
            out[f"p{q}"] = exact_percentile(ordered, q)
        return out
