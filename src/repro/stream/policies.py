"""Pluggable dispatch policies: who gets assigned at each arrival.

A policy is a set of bus subscriptions over the dispatcher's runtime:
it reacts to ``worker-login`` / ``task-posted`` (and, for the
micro-batch policy, ``window-flush``) events by committing assignments
through :meth:`DispatchRuntime.assign`.  Three online policies mirror
the repository's online-matching layer:

* :class:`GreedyPolicy` — arrival-instant best-positive-edge matching,
  the streaming form of
  :func:`repro.matching.online.online_greedy_matching` (a property
  test pins the equivalence on identical arrival orders);
* :class:`SamplePricePolicy` — the TGOA sample-and-price design
  adapted to continuous arrivals: the sample prefix of worker logins
  is matched greedily while observed edge benefits calibrate a price,
  which later arrivals must beat (decaying to zero as a task's
  deadline nears, so a queued task is never priced out forever);
* :class:`MicroBatchPolicy` — accumulate arrivals and, at each
  boundary, solve the active window (online workers × open tasks)
  with one ``flow`` solve on a ``RowwiseBenefit`` block, exact for
  edge-decomposable (e.g. linear) combiners.

Round mode is the fourth policy in spirit — it delegates to the batch
engine wholesale and lives in :mod:`repro.stream.dispatch`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro import obs
from repro.benefit.matrices import BenefitMatrices
from repro.errors import ConfigurationError
from repro.stream.events import (
    StreamEvent,
    TaskPosted,
    WindowFlush,
    WorkerLogin,
)

#: Online policies selectable in ``DispatchConfig.policy`` (round mode
#: is handled by the dispatcher itself, not by a policy object).
ONLINE_POLICIES: tuple[str, ...] = (
    "greedy",
    "sample-price",
    "micro-batch",
)


class DispatchPolicy(abc.ABC):
    """Reacts to market events by committing assignments."""

    name: str = "abstract"

    def bind(self, runtime, bus) -> None:
        """Subscribe the policy's handlers on the dispatch bus."""
        self.runtime = runtime
        bus.subscribe("worker-login", self._on_login)
        bus.subscribe("task-posted", self._on_posted)

    @abc.abstractmethod
    def _on_login(self, event: StreamEvent) -> None: ...

    @abc.abstractmethod
    def _on_posted(self, event: StreamEvent) -> None: ...

    def finish(self, time: float) -> None:
        """Called once after the last event (micro-batch final flush)."""


class GreedyPolicy(DispatchPolicy):
    """Best-positive-edge assignment at every arrival instant."""

    name = "greedy"

    def _offer(self, worker_index: int, time: float) -> None:
        """Give an online worker their best open tasks, greedily."""
        runtime = self.runtime
        capacity = runtime.capacity(worker_index)
        if capacity <= 0:
            return
        tasks, _posted = runtime.open_arrays()
        if tasks.size == 0:
            return
        benefits = runtime.rows.row(worker_index, tasks)
        # Static scores: taking the top-k one at a time equals taking
        # them at once.  Stable sort keeps ties on the lowest task
        # index, matching the online greedy reference's scan order.
        order = np.argsort(-benefits, kind="stable")[:capacity]
        for position in order:
            benefit = float(benefits[position])
            if benefit <= 0.0:
                break
            runtime.assign(
                worker_index, int(tasks[position]), time, benefit
            )

    def _on_login(self, event: WorkerLogin) -> None:
        self._offer(event.worker_index, event.time)

    def _on_posted(self, event: TaskPosted) -> None:
        runtime = self.runtime
        workers = runtime.online_array()
        if workers.size == 0:
            return
        benefits = runtime.rows.column(event.task_index, workers)
        best = int(np.argmax(benefits))
        if float(benefits[best]) <= 0.0:
            return
        runtime.assign(
            int(workers[best]),
            event.task_index,
            event.time,
            float(benefits[best]),
        )


class SamplePricePolicy(GreedyPolicy):
    """Sample-and-price: greedy prefix calibrates an acceptance price.

    The first ``sample_cutoff`` worker logins behave greedily (they
    still produce value — no discarded secretary sample); the benefits
    they realize become the observed value distribution, whose
    ``price_quantile`` sets the price.  Afterwards an edge is only
    taken when its benefit beats the price scaled by the task's
    remaining deadline fraction — fresh tasks hold out for good
    matches, tasks near expiry accept anything positive.
    """

    name = "sample-price"

    def __init__(
        self, sample_cutoff: int, price_quantile: float = 50.0
    ) -> None:
        if sample_cutoff < 0:
            raise ConfigurationError(
                f"sample_cutoff must be >= 0, got {sample_cutoff}"
            )
        self.sample_cutoff = sample_cutoff
        self.price_quantile = price_quantile
        self._logins_seen = 0
        self._sample_benefits: list[float] = []
        self._price: float | None = None

    def bind(self, runtime, bus) -> None:
        super().bind(runtime, bus)
        bus.subscribe("assignment", self._on_assignment)

    def _on_assignment(self, event) -> None:
        if self._logins_seen <= self.sample_cutoff:
            self._sample_benefits.append(event.benefit)

    @property
    def price(self) -> float:
        """The calibrated acceptance price (0 before calibration)."""
        if self._price is None:
            if not self._sample_benefits:
                return 0.0
            self._price = float(
                np.percentile(
                    np.asarray(self._sample_benefits), self.price_quantile
                )
            )
            obs.gauge("stream.sample_price", self._price)
        return self._price

    def _in_sample(self) -> bool:
        return self._logins_seen <= self.sample_cutoff

    def _thresholds(
        self, posted: np.ndarray, time: float
    ) -> np.ndarray:
        """Per-task acceptance price, decayed by deadline proximity."""
        deadline = self.runtime.config.deadline
        remaining = np.maximum(1.0 - (time - posted) / deadline, 0.0)
        return self.price * remaining

    def _on_login(self, event: WorkerLogin) -> None:
        self._logins_seen += 1
        if self._in_sample():
            self._offer(event.worker_index, event.time)
            return
        runtime = self.runtime
        capacity = runtime.capacity(event.worker_index)
        if capacity <= 0:
            return
        tasks, posted = runtime.open_arrays()
        if tasks.size == 0:
            return
        benefits = runtime.rows.row(event.worker_index, tasks)
        accept = benefits > np.maximum(
            self._thresholds(posted, event.time), 0.0
        )
        order = np.argsort(-benefits, kind="stable")
        for position in order:
            if capacity <= 0:
                break
            if not accept[position] or float(benefits[position]) <= 0.0:
                continue
            runtime.assign(
                event.worker_index,
                int(tasks[position]),
                event.time,
                float(benefits[position]),
            )
            capacity -= 1

    def _on_posted(self, event: TaskPosted) -> None:
        if self._in_sample():
            super()._on_posted(event)
            return
        runtime = self.runtime
        workers = runtime.online_array()
        if workers.size == 0:
            return
        benefits = runtime.rows.column(event.task_index, workers)
        best = int(np.argmax(benefits))
        # A freshly posted task is at full price.
        if float(benefits[best]) <= max(self.price, 0.0):
            return
        runtime.assign(
            int(workers[best]),
            event.task_index,
            event.time,
            float(benefits[best]),
        )


class MicroBatchPolicy(DispatchPolicy):
    """Window solves over the active sets.

    Between flushes nothing is assigned; at each ``window-flush`` the
    policy gathers one :class:`~repro.benefit.rows.RowwiseBenefit`
    block of the online-with-capacity workers against the open tasks
    and solves it with ``flow`` (max-weight b-matching: each worker up
    to their remaining capacity, each task at most once).  The window
    maximizes the summed combined edge score, which is the exact MBA
    objective for edge-decomposable (e.g. linear) combiners.
    """

    name = "micro-batch"

    def __init__(self) -> None:
        from repro.core.solvers import get_solver

        self._solver = get_solver("flow")
        self.windows_flushed = 0

    def bind(self, runtime, bus) -> None:
        self.runtime = runtime
        bus.subscribe("window-flush", self._on_flush)

    # Arrivals just accumulate in the runtime's open/ledger state.
    def _on_login(self, event: StreamEvent) -> None:  # pragma: no cover
        pass

    def _on_posted(self, event: StreamEvent) -> None:  # pragma: no cover
        pass

    def _on_flush(self, event: WindowFlush) -> None:
        self._flush(event.time)

    def finish(self, time: float) -> None:
        """Final flush so the tail window is not silently dropped."""
        self._flush(time)

    def _flush(self, time: float) -> None:
        from repro.core.problem import MBAProblem

        runtime = self.runtime
        workers = runtime.online_array()
        tasks, _posted = runtime.open_arrays()
        if workers.size == 0 or tasks.size == 0:
            return
        rows = runtime.rows
        with obs.span(
            "stream.window", workers=int(workers.size), tasks=int(tasks.size)
        ):
            requester, worker = rows.side_row(workers, tasks)
            combined = rows.combiner.edge_matrix(requester, worker)
            problem = MBAProblem.from_benefits(
                BenefitMatrices(requester, worker, combined, rows.combiner),
                np.array([runtime.capacity(int(i)) for i in workers]),
                np.ones(tasks.size, dtype=np.int64),
            )
            assignment = self._solver.solve(problem)
        self.windows_flushed += 1
        obs.count("stream.windows")
        for wi, tj in assignment.edges:
            runtime.assign(
                int(workers[wi]), int(tasks[tj]), time, float(combined[wi, tj])
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
