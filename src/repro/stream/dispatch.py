"""The streaming dispatch service: a live market instead of rounds.

Tasks and workers arrive continuously through
:mod:`repro.market.arrivals` processes; the dispatcher merges the two
arrival streams with its internally scheduled events (task deadlines,
session logouts, micro-batch window boundaries) into one global time
order, publishes every event on an :class:`~repro.stream.bus.EventBus`,
and lets the configured policy commit assignments at arrival instants.
Assignments are *emitted incrementally*: :meth:`StreamDispatcher.dispatch`
is a generator yielding each
:class:`~repro.stream.metrics.AssignmentRecord` the moment its event
is processed, which is what lets a caller stream records into a
:class:`~repro.stream.writer.BatchWriter` (or a live printer) while
the market is still running.

Scale: benefits are computed on demand through
:class:`repro.benefit.rows.RowwiseBenefit`, vectorized over the
*active* sets only — open tasks are bounded by ``task_rate × deadline``
and online workers by ``worker_rate × session_length``, so a
10^5 × 10^5 population never materializes a matrix anywhere near its
10^10-entry full benefit table.

Round mode: ``policy = "round"`` delegates wholesale to the batch
engine (:class:`repro.sim.engine.Simulation`) — the round-based loop
becomes just one policy of the service, and its output is bit-identical
to calling the engine directly (a property test pins this).
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.benefit.mutual import LinearCombiner, MutualCombiner
from repro.benefit.rows import RowwiseBenefit
from repro.errors import ConfigurationError, ValidationError
from repro.market.arrivals import ArrivalProcess, PoissonArrivals
from repro.market.market import LaborMarket
from repro.stream.bus import EventBus
from repro.stream.events import (
    AssignmentEmitted,
    StreamEvent,
    TaskExpired,
    TaskPosted,
    WindowFlush,
    WorkerLogin,
    WorkerLogout,
)
from repro.stream.metrics import (
    LATENCY_PERCENTILES,
    AssignmentRecord,
    StreamResult,
)
from repro.stream.policies import ONLINE_POLICIES, make_policy
from repro.stream.sessions import SessionLedger
from repro.utils.rng import SeedLike, as_rng
from repro.utils.stats import gini

#: All dispatch modes: the online policies plus engine delegation.
DISPATCH_POLICIES: tuple[str, ...] = ONLINE_POLICIES + ("round",)


@dataclass
class DispatchConfig:
    """Configuration of the streaming dispatch loop.

    Attributes
    ----------
    policy:
        One of :data:`DISPATCH_POLICIES`.
    task_rate / worker_rate:
        Poisson arrival rates (entities per unit time) for the default
        arrival processes.
    deadline:
        How long a posted task stays open before expiring.
    session_length:
        How long a logged-in worker's session lasts.
    batch_window:
        Micro-batch flush period (micro-batch policy only).
    sample_fraction:
        Fraction of worker arrivals forming the calibration sample
        (sample-price policy only).
    max_open_tasks:
        Backpressure bound: a task arriving while this many are
        already open is *dropped* (counted, never queued).  0 means
        unbounded queueing.
    writer_batch:
        Batch size for the assignment-record writer.
    round_solver / round_rounds:
        Round mode's solver name and round count (ignored by the
        online policies; a full ``Scenario`` passed to the dispatcher
        overrides both).
    """

    policy: str = "greedy"
    task_rate: float = 4.0
    worker_rate: float = 1.0
    deadline: float = 10.0
    session_length: float = 5.0
    batch_window: float = 1.0
    sample_fraction: float = 0.2
    max_open_tasks: int = 0
    writer_batch: int = 256
    round_solver: str = "flow"
    round_rounds: int = 10

    def __post_init__(self) -> None:
        if self.policy not in DISPATCH_POLICIES:
            raise ConfigurationError(
                f"unknown dispatch policy {self.policy!r}; choose from "
                f"{DISPATCH_POLICIES}"
            )
        if self.task_rate <= 0 or self.worker_rate <= 0:
            raise ConfigurationError("arrival rates must be > 0")
        if self.deadline <= 0 or self.session_length <= 0:
            raise ConfigurationError(
                "deadline and session_length must be > 0"
            )
        if self.batch_window <= 0:
            raise ConfigurationError("batch_window must be > 0")
        if not 0.0 <= self.sample_fraction <= 1.0:
            raise ConfigurationError(
                "sample_fraction must lie in [0, 1]"
            )
        if self.max_open_tasks < 0:
            raise ConfigurationError("max_open_tasks must be >= 0")
        if self.writer_batch < 1:
            raise ConfigurationError("writer_batch must be >= 1")
        if self.round_rounds < 1:
            raise ConfigurationError("round_rounds must be >= 1")


class DispatchRuntime:
    """Shared mutable state the policies act on.

    Policies never mutate the open pool or the ledger directly — all
    commitment funnels through :meth:`assign`, which validates,
    updates the books, and publishes the ``assignment`` event.
    """

    def __init__(
        self,
        config: DispatchConfig,
        rows: RowwiseBenefit,
        bus: EventBus,
    ) -> None:
        self.config = config
        self.rows = rows
        self.bus = bus
        self.ledger = SessionLedger()
        #: task_index -> posted_at for unassigned, unexpired tasks.
        self.open: dict[int, float] = {}

    def capacity(self, worker_index: int) -> int:
        return self.ledger.capacity(worker_index)

    def open_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted open task indices, their posting times)."""
        if not self.open:
            return np.zeros(0, dtype=np.int64), np.zeros(0)
        tasks = np.fromiter(
            self.open, dtype=np.int64, count=len(self.open)
        )
        tasks.sort()
        posted = np.array([self.open[int(j)] for j in tasks])
        return tasks, posted

    def online_array(self) -> np.ndarray:
        """Online workers with remaining capacity, presence order."""
        return np.asarray(self.ledger.online(), dtype=np.int64)

    def assign(
        self,
        worker_index: int,
        task_index: int,
        time: float,
        benefit: float,
    ) -> None:
        """Commit one edge: book-keep and publish the event."""
        posted_at = self.open.pop(task_index, None)
        if posted_at is None:
            raise ValidationError(
                f"task {task_index} is not open at time {time}"
            )
        self.ledger.consume(worker_index, 1)
        self.bus.publish(
            AssignmentEmitted(
                time=time,
                worker_index=worker_index,
                task_index=task_index,
                instance_id=task_index,
                benefit=benefit,
                posted_at=posted_at,
            )
        )


class _Telemetry:
    """Windowed live-health scrape on the **simulated** clock.

    Per-event work is deliberately store-free — counters increment
    plain ints and samples append to plain lists — and everything
    lands in the store in one batch per series when the clock crosses
    a window boundary (``advance``).  Events between two boundary
    crossings belong to exactly one aligned window, so batch-flushing
    records the identical series a per-event scrape would, at a
    fraction of the dispatch-loop overhead (the ``obs_overhead`` bench
    case gates the ratio).  The market-health gauges the paper steers
    on — per-window worker-benefit Gini, participation, starvation —
    need *window membership* (who was online, who got work), so one
    window of state is kept alongside.  Everything recorded is a
    function of the event stream alone, so identical seeds scrape
    identical series.
    """

    __slots__ = (
        "store",
        "boundary",
        "_width",
        "_bucket",
        "_expired",
        "_dropped",
        "_depths",
        "_assignments",
        "_online",
        "_prev_assigned",
    )

    def __init__(self, store) -> None:
        self.store = store
        self._width = store.window
        self._bucket: int | None = None
        #: Clock value at which the current window ends.  The dispatch
        #: loop gates its per-event ``advance`` call on this plain
        #: float compare so the common no-crossing case costs one
        #: attribute read instead of a method call.
        self.boundary = float("-inf")
        # Event-level buffers for the current window.  The bookkeeping
        # handlers append to / add to these directly through bound
        # methods (see _subscribe_bookkeeping) — ``_flush`` mutates
        # them in place, never rebinds, so the bound methods stay
        # valid for the whole run.
        self._expired = 0
        self._dropped = 0
        #: Queue depth observed at each posting (len == posted count).
        self._depths: list[int] = []
        #: One ``(worker_index, benefit, wait)`` per assignment.
        self._assignments: list[tuple[int, float, float]] = []
        #: Workers online at any point during the window.
        self._online: set[int] = set()
        #: Workers assigned at least once last window.
        self._prev_assigned: set[int] = set()

    def advance(self, time: float, runtime: "DispatchRuntime") -> None:
        """Flush every window the clock has fully crossed."""
        bucket = int(time // self._width)
        if self._bucket is None:
            self._bucket = bucket
        else:
            while self._bucket < bucket:
                self._flush(runtime)
                self._bucket += 1
        self.boundary = (self._bucket + 1) * self._width

    def finish(self, runtime: "DispatchRuntime") -> None:
        """Flush the final, partial window at end of run."""
        if self._bucket is not None:
            self._flush(runtime)

    def _flush(self, runtime: "DispatchRuntime") -> None:
        store = self.store
        t = store.bucket_time(self._bucket)
        depths = self._depths
        if depths:
            store.count("stream.posted", t, len(depths))
            store.extend("stream.queue_depth", t, depths)
            obs.observe_many("stream.queue_depth", depths)
            depths.clear()
        assignments = self._assignments
        #: worker -> benefit accrued this window (can be negative for
        #: exploitative edges; Gini clips at zero like benefit_gini).
        benefit: dict[int, float] = {}
        assigned: set[int] = set()
        if assignments:
            waits = [event[2] for event in assignments]
            store.count("stream.assigned", t, len(assignments))
            store.extend("stream.wait", t, waits)
            obs.observe_many("stream.time_to_assignment", waits)
            for worker, value, _wait in assignments:
                assigned.add(worker)
                benefit[worker] = benefit.get(worker, 0.0) + value
            assignments.clear()
        if self._expired:
            store.count("stream.expired", t, self._expired)
            self._expired = 0
        if self._dropped:
            store.count("stream.dropped", t, self._dropped)
            self._dropped = 0
        online = self._online
        # Assignment implies an online session, so this is normally a
        # no-op — it keeps the membership exact even if a policy
        # assigns outside a tracked session.
        online |= assigned
        if online:
            # Every benefit key is in ``online``, so the Gini input is
            # the clipped benefits padded with a zero per benefit-less
            # worker; gini() sorts internally, making input order
            # irrelevant.
            benefits = [0.0] * (len(online) - len(benefit))
            benefits += [
                v if v > 0.0 else 0.0 for v in benefit.values()
            ]
            store.gauge("market.benefit_gini", t, gini(benefits))
            store.gauge(
                "market.participation", t, len(assigned) / len(online)
            )
            starved = len(online - assigned - self._prev_assigned)
            store.gauge(
                "market.starvation", t, starved / len(online)
            )
            store.gauge(
                "market.worker_benefit",
                t,
                float(sum(benefit.values())),
            )
        # Workers still online roll into the next window's membership.
        self._prev_assigned = assigned
        online.clear()
        online.update(runtime.ledger.online())


class StreamDispatcher:
    """Event-driven dispatch over a continuously arriving market.

    Parameters
    ----------
    market:
        The full population; each worker and task arrives exactly once
        through its arrival process.
    config:
        Loop configuration; defaults stream greedily.
    combiner:
        Mutual-benefit combiner for on-demand edge scoring.
    task_arrivals / worker_arrivals:
        Arrival-process overrides; Poisson at the configured rates
        when omitted (``TraceArrivals`` makes runs fully scripted).
    scenario:
        Round mode only: a full engine scenario to delegate to.  When
        omitted, round mode builds one from the config's
        ``round_solver``/``round_rounds``.
    """

    def __init__(
        self,
        market: LaborMarket,
        config: DispatchConfig | None = None,
        combiner: MutualCombiner | None = None,
        task_arrivals: ArrivalProcess | None = None,
        worker_arrivals: ArrivalProcess | None = None,
        scenario=None,
    ) -> None:
        if market.n_workers == 0 or market.n_tasks == 0:
            raise ValidationError(
                "streaming dispatch needs a non-empty market"
            )
        self.market = market
        self.config = config if config is not None else DispatchConfig()
        self.combiner = (
            combiner if combiner is not None else LinearCombiner(0.5)
        )
        self.task_arrivals = (
            task_arrivals
            if task_arrivals is not None
            else PoissonArrivals(self.config.task_rate)
        )
        self.worker_arrivals = (
            worker_arrivals
            if worker_arrivals is not None
            else PoissonArrivals(self.config.worker_rate)
        )
        self.scenario = scenario
        self.last_result: StreamResult | None = None

    # -- the event loop ---------------------------------------------------

    def dispatch(self, seed: SeedLike = None) -> Iterator[AssignmentRecord]:
        """Run the online dispatch loop, yielding records as emitted.

        The :class:`StreamResult` accumulated alongside is available as
        :attr:`last_result` once the generator is exhausted (or use
        :meth:`run`, which also times the drain).
        """
        bus = EventBus()
        try:
            yield from self._events(bus, seed)
        finally:
            # Handlers close a cycle (bus -> handlers -> runtime -> bus)
            # that would keep the run alive until a cyclic collection.
            bus.clear()

    def _events(
        self, bus: EventBus, seed: SeedLike
    ) -> Iterator[AssignmentRecord]:
        config = self.config
        if config.policy == "round":
            raise ConfigurationError(
                "round mode has no incremental stream; call run()"
            )
        rng = as_rng(seed)
        task_seed = int(rng.integers(2**31))
        worker_seed = int(rng.integers(2**31))

        rows = RowwiseBenefit(self.market, combiner=self.combiner)
        runtime = DispatchRuntime(config, rows, bus)
        policy = make_policy(config, self.market.n_workers)
        result = StreamResult(policy=config.policy)
        self.last_result = result
        # Records emitted by handlers, drained by the generator loop.
        pending: list[AssignmentRecord] = []

        # Live telemetry rides the active tracer's windowed store
        # (created here at the default window width unless the run
        # owner — e.g. the monitor CLI — installed one already).
        store = obs.timeseries_store()
        telemetry = _Telemetry(store) if store is not None else None

        # Record-keeping handlers subscribe FIRST so metrics reflect
        # the pre-decision state (queue depth includes the new task
        # before the policy may immediately assign it away).
        self._subscribe_bookkeeping(
            bus, runtime, result, pending, telemetry
        )
        policy.bind(runtime, bus)

        heap: list[tuple[float, int, StreamEvent]] = []
        tiebreak = itertools.count()
        task_stream = self.task_arrivals.stream(
            self.market.n_tasks, seed=task_seed
        )
        worker_stream = self.worker_arrivals.stream(
            self.market.n_workers, seed=worker_seed
        )

        def push(event: StreamEvent) -> None:
            heapq.heappush(heap, (event.time, next(tiebreak), event))

        def pull(stream, make_event) -> None:
            arrival = next(stream, None)
            if arrival is not None:
                push(make_event(arrival))

        def task_event(arrival) -> TaskPosted:
            return TaskPosted(
                time=arrival.time,
                task_index=arrival.index,
                instance_id=arrival.index,
            )

        def worker_event(arrival) -> WorkerLogin:
            # The login handler opens the session and assigns its id.
            return WorkerLogin(
                time=arrival.time,
                worker_index=arrival.index,
                session_id=-1,
            )

        pull(task_stream, task_event)
        pull(worker_stream, worker_event)
        if config.policy == "micro-batch":
            push(WindowFlush(time=config.batch_window, window_index=0))

        def handle(event: StreamEvent) -> None:
            if isinstance(event, TaskPosted):
                pull(task_stream, task_event)
                if (
                    config.max_open_tasks > 0
                    and len(runtime.open) >= config.max_open_tasks
                ):
                    result.dropped_tasks += 1
                    if telemetry is not None:
                        telemetry._dropped += 1
                    return
                runtime.open[event.task_index] = event.time
                push(
                    TaskExpired(
                        time=event.time + config.deadline,
                        instance_id=event.task_index,
                    )
                )
                bus.publish(event)
            elif isinstance(event, WorkerLogin):
                pull(worker_stream, worker_event)
                worker = self.market.workers[event.worker_index]
                if not worker.active:
                    result.skipped_logins += 1
                    return
                session_id = runtime.ledger.login(
                    event.worker_index,
                    worker.capacity,
                    expires_at=event.time + config.session_length,
                )
                push(
                    WorkerLogout(
                        time=event.time + config.session_length,
                        session_id=session_id,
                        worker_index=event.worker_index,
                    )
                )
                bus.publish(
                    WorkerLogin(
                        time=event.time,
                        worker_index=event.worker_index,
                        session_id=session_id,
                    )
                )
            elif isinstance(event, TaskExpired):
                if event.instance_id in runtime.open:
                    del runtime.open[event.instance_id]
                    bus.publish(event)
            elif isinstance(event, WorkerLogout):
                runtime.ledger.logout(event.session_id)
                bus.publish(event)
            elif isinstance(event, WindowFlush):
                # Keep flushing only while arrivals can still come.
                bus.publish(event)
                if heap or runtime.open:
                    push(
                        WindowFlush(
                            time=event.time + config.batch_window,
                            window_index=event.window_index + 1,
                        )
                    )

        clock = 0.0
        while heap:
            clock, _tie, event = heapq.heappop(heap)
            if telemetry is not None and clock >= telemetry.boundary:
                telemetry.advance(clock, runtime)
            handle(event)
            if pending:
                yield from pending
                pending.clear()

        policy.finish(clock)
        if pending:
            yield from pending
            pending.clear()
        # Flat obs counters are recorded once from the run totals:
        # a counter call per event is measurable on the dispatch hot
        # path (the obs_overhead bench case gates the ratio), and the
        # end-of-run sums are identical.  ``stream.expired`` must be
        # flushed before unexpired open tasks are folded into the
        # result total below — the counter tracks deadline *events*.
        for name, total in (
            ("stream.posted", result.posted_tasks),
            ("stream.assigned", len(result.records)),
            ("stream.expired", result.expired_tasks),
            ("stream.dropped", result.dropped_tasks),
            ("stream.skipped_logins", result.skipped_logins),
            ("stream.logins", result.logins),
            ("stream.logouts", result.logouts),
        ):
            if total:
                obs.count(name, total)
        bus.flush_metrics()
        result.expired_tasks += len(runtime.open)
        runtime.open.clear()
        result.end_time = clock
        if telemetry is not None:
            telemetry.finish(runtime)
        self._publish_summary(result)

    def _subscribe_bookkeeping(
        self,
        bus: EventBus,
        runtime: DispatchRuntime,
        result: StreamResult,
        pending: list[AssignmentRecord],
        telemetry: _Telemetry | None = None,
    ) -> None:
        # Bound-method handles into the telemetry buffers: the per-event
        # cost of the windowed scrape is one C-level append/add (the
        # obs_overhead bench case gates the ratio).
        if telemetry is not None:
            scrape_depth = telemetry._depths.append
            scrape_online = telemetry._online.add
            scrape_assignment = telemetry._assignments.append
        else:
            scrape_depth = scrape_online = scrape_assignment = None

        def on_posted(event: TaskPosted) -> None:
            result.posted_tasks += 1
            depth = len(runtime.open)
            result.max_queue_depth = max(result.max_queue_depth, depth)
            if scrape_depth is not None:
                scrape_depth(depth)

        def on_login(event: WorkerLogin) -> None:
            result.logins += 1
            if scrape_online is not None:
                scrape_online(event.worker_index)

        def on_logout(event: WorkerLogout) -> None:
            result.logouts += 1

        def on_expired(event: TaskExpired) -> None:
            result.expired_tasks += 1
            if telemetry is not None:
                telemetry._expired += 1

        def on_assignment(event: AssignmentEmitted) -> None:
            record = AssignmentRecord(
                time=event.time,
                worker_index=event.worker_index,
                task_index=event.task_index,
                benefit=event.benefit,
                wait=event.wait,
            )
            result.records.append(record)
            result.combined_benefit += event.benefit
            pending.append(record)
            if scrape_assignment is not None:
                scrape_assignment(
                    (event.worker_index, event.benefit, event.wait)
                )

        bus.subscribe("task-posted", on_posted)
        bus.subscribe("worker-login", on_login)
        bus.subscribe("worker-logout", on_logout)
        bus.subscribe("task-deadline", on_expired)
        bus.subscribe("assignment", on_assignment)

    def _publish_summary(self, result: StreamResult) -> None:
        """Exact latency percentiles and throughput as obs gauges."""
        summary = result.latency_summary()
        for q in LATENCY_PERCENTILES:
            key = f"p{q}"
            if key in summary:
                obs.gauge(f"stream.latency.{key}", summary[key])
        obs.gauge("stream.queue_depth.max", float(result.max_queue_depth))
        if result.wall_time > 0:
            obs.gauge(
                "stream.assignments_per_sec",
                result.assignments_per_second,
            )

    # -- draining ---------------------------------------------------------

    def run(
        self, seed: SeedLike = None, on_record=None
    ) -> StreamResult:
        """Drain the dispatch loop and return the finished result."""
        start = _time.perf_counter()
        if self.config.policy == "round":
            result = self._run_round(seed)
        else:
            with obs.span("stream.dispatch", policy=self.config.policy):
                for record in self.dispatch(seed):
                    if on_record is not None:
                        on_record(record)
            result = self.last_result
            assert result is not None
        result.wall_time = _time.perf_counter() - start
        if result.records:
            obs.gauge(
                "stream.assignments_per_sec",
                result.assignments_per_second,
            )
        self.last_result = result
        return result

    # -- round mode -------------------------------------------------------

    def _round_scenario(self):
        """The engine scenario round mode delegates to."""
        if self.scenario is not None:
            return self.scenario
        from repro.sim.scenario import Scenario

        return Scenario(
            market=self.market,
            solver_name=self.config.round_solver,
            combiner=self.combiner,
            n_rounds=self.config.round_rounds,
        )

    def _run_round(self, seed: SeedLike) -> StreamResult:
        """Delegate to the batch engine; bit-identical by construction.

        The engine is invoked exactly as a direct caller would invoke
        it — same scenario, same seed — so every round metric matches
        a standalone ``Simulation(scenario).run(seed)`` bit for bit.
        """
        from repro.sim.engine import Simulation

        scenario = self._round_scenario()
        with obs.span("stream.dispatch", policy="round"):
            sim_result = Simulation(scenario).run(seed=seed)
        result = StreamResult(policy="round")
        result.round_result = sim_result
        result.posted_tasks = sum(
            r.n_assigned_edges for r in sim_result.rounds
        )
        result.combined_benefit = float(
            sum(r.combined_benefit for r in sim_result.rounds)
        )
        result.end_time = float(len(sim_result.rounds))
        self.last_result = result
        return result
