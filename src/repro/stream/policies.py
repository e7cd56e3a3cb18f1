"""Pluggable dispatch policies: who gets assigned at each arrival.

A policy is a set of bus subscriptions over the dispatcher's runtime:
it reacts to ``worker-login`` / ``task-posted`` (the micro-batch
policy only to ``window-flush``) events by committing assignments
through :meth:`DispatchRuntime.assign`.  Two policies mirror the
repository's online-matching layer:

* :class:`SamplePricePolicy` — the TGOA sample-and-price design
  adapted to continuous arrivals: the sample prefix of worker logins
  is matched greedily (price 0), then the median benefit the sample
  realized becomes a price later arrivals must beat (decaying to zero
  as a task's deadline nears, so a queued task is never priced out
  forever).  Each login takes its best tasks through
  :func:`repro.matching.online.take_best`.
  :class:`GreedyPolicy` is its case with a sample that never ends,
  the streaming form of
  :func:`repro.matching.online.online_greedy_matching` (a property
  test pins the equivalence on identical arrival orders);
* :class:`MicroBatchPolicy` — accumulate arrivals and, at each
  boundary, solve the active window (online workers × open tasks)
  with one max-weight b-matching of a ``RowwiseBenefit`` block, exact
  for edge-decomposable (e.g. linear) combiners.

Round mode is the fourth policy in spirit — it delegates to the batch
engine wholesale and lives in :mod:`repro.stream.dispatch`.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro import obs
from repro.benefit.matrices import BenefitMatrices
from repro.errors import ConfigurationError
from repro.matching.b_matching import max_weight_b_matching
from repro.matching.online import take_best
from repro.stream.events import TaskPosted, WindowFlush, WorkerLogin

#: Online policies selectable in ``DispatchConfig.policy`` (round mode
#: is handled by the dispatcher itself, not by a policy object).
ONLINE_POLICIES: tuple[str, ...] = (
    "greedy",
    "sample-price",
    "micro-batch",
)

#: Percentile of the sample's assignment benefits that sets the
#: sample-and-price acceptance price: the median.
PRICE_QUANTILE = 50.0


class DispatchPolicy(abc.ABC):
    """Reacts to market events by committing assignments."""

    name: str = "abstract"

    @abc.abstractmethod
    def bind(self, runtime, bus) -> None:
        """Keep the runtime and subscribe handlers on the dispatch bus."""


class SamplePricePolicy(DispatchPolicy):
    """Sample-and-price: a greedy prefix calibrates an acceptance price.

    While the first ``sample_cutoff`` worker logins run the price is 0,
    so every arrival takes its best positive edges (the sample still
    produces value — no discarded secretary sample).  When the sample
    ends the price becomes the median benefit of the sample's
    assignments.  It is read from ``runtime.result.records`` the first
    time a handler needs it, which always comes before the first
    post-sample assignment.  Afterwards an edge is only taken when its
    benefit beats the price scaled by the task's remaining deadline
    fraction — fresh tasks hold out for good matches, tasks near
    expiry accept anything positive.
    """

    name = "sample-price"

    def __init__(self, sample_cutoff: float) -> None:
        if sample_cutoff < 0:
            raise ConfigurationError(
                f"sample_cutoff must be >= 0, got {sample_cutoff}"
            )
        self.sample_cutoff = sample_cutoff
        self._logins_seen = 0
        self._price: float | None = None

    def bind(self, runtime, bus) -> None:
        self.runtime = runtime
        bus.subscribe("worker-login", self._on_login)
        bus.subscribe("task-posted", self._on_posted)

    @property
    def price(self) -> float:
        """The acceptance price: 0 while the sample runs, then the
        median benefit of the sample's assignments."""
        if self._logins_seen <= self.sample_cutoff:
            return 0.0
        if self._price is None:
            benefits = [r.benefit for r in self.runtime.result.records]
            self._price = (
                float(np.percentile(benefits, PRICE_QUANTILE))
                if benefits
                else 0.0
            )
            obs.gauge("stream.sample_price", self._price)
        return self._price

    def _thresholds(
        self, posted: np.ndarray, time: float
    ) -> np.ndarray | float:
        """Per-task acceptance price, decayed by deadline proximity
        (the scalar 0 while there is no price)."""
        price = self.price
        if price <= 0.0:
            return 0.0
        deadline = self.runtime.config.deadline
        remaining = np.maximum(1.0 - (time - posted) / deadline, 0.0)
        return price * remaining

    def _on_login(self, event: WorkerLogin) -> None:
        self._logins_seen += 1
        runtime = self.runtime
        worker = event.worker_index
        capacity = runtime.capacity(worker)
        if capacity <= 0 or not runtime.open:
            return
        tasks, posted = runtime.open_arrays()
        benefits = runtime.rows.row(worker, tasks)
        for position in take_best(
            benefits, capacity, self._thresholds(posted, event.time)
        ):
            runtime.assign(
                worker,
                int(tasks[position]),
                event.time,
                float(benefits[position]),
            )

    def _on_posted(self, event: TaskPosted) -> None:
        runtime = self.runtime
        workers = runtime.online_array()
        if workers.size == 0:
            return
        benefits = runtime.column(event.task_index, workers)
        best = int(benefits.argmax())
        # A freshly posted task is at full price.
        if float(benefits[best]) <= self.price:
            return
        runtime.assign(
            int(workers[best]),
            event.task_index,
            event.time,
            float(benefits[best]),
        )


class GreedyPolicy(SamplePricePolicy):
    """Best-positive-edge assignment at every arrival instant:
    sample-and-price whose sample never ends, so every price is 0."""

    name = "greedy"

    def __init__(self) -> None:
        super().__init__(sample_cutoff=math.inf)


class MicroBatchPolicy(DispatchPolicy):
    """Window solves over the active sets.

    Between flushes nothing is assigned; at each ``window-flush`` the
    policy gathers one :class:`~repro.benefit.rows.RowwiseBenefit`
    block of the online-with-capacity workers against the open tasks,
    checks it as a :class:`BenefitMatrices` bundle and solves it with
    :func:`~repro.matching.b_matching.max_weight_b_matching` (each
    worker up to their remaining capacity, each task at most once).
    The window maximizes the summed combined edge score, which is the
    exact MBA objective for edge-decomposable (e.g. linear) combiners.
    Each edge is checked once more as it is committed:
    :meth:`DispatchRuntime.assign` refuses a task that is not open,
    and :meth:`SessionLedger.consume` a worker past its capacity.
    """

    name = "micro-batch"

    def bind(self, runtime, bus) -> None:
        # Arrivals just accumulate in the runtime's open/ledger state.
        self.runtime = runtime
        bus.subscribe("window-flush", self._on_flush)

    def _on_flush(self, event: WindowFlush) -> None:
        runtime = self.runtime
        workers, capacities = runtime.ledger.online_capacities()
        tasks = runtime.open_tasks()
        if workers.size == 0 or tasks.size == 0:
            return
        rows = runtime.rows
        with obs.span(
            "stream.window", workers=int(workers.size), tasks=int(tasks.size)
        ):
            requester, worker = rows.side_row(workers, tasks)
            combined = rows.combiner.edge_matrix(requester, worker)
            BenefitMatrices(requester, worker, combined, rows.combiner)
            edges, _total = max_weight_b_matching(
                combined, capacities, np.ones(tasks.size, dtype=np.int64)
            )
        obs.count("stream.windows")
        for wi, tj in edges:
            runtime.assign(
                int(workers[wi]),
                int(tasks[tj]),
                event.time,
                float(combined[wi, tj]),
            )


def make_policy(config, n_workers: int) -> DispatchPolicy:
    """Instantiate the configured online policy."""
    if config.policy == "greedy":
        return GreedyPolicy()
    if config.policy == "sample-price":
        return SamplePricePolicy(
            sample_cutoff=int(round(config.sample_fraction * n_workers))
        )
    if config.policy == "micro-batch":
        return MicroBatchPolicy()
    raise ConfigurationError(
        f"no online policy named {config.policy!r}; "
        f"choose from {ONLINE_POLICIES} (round mode runs through "
        "StreamDispatcher.run)"
    )
