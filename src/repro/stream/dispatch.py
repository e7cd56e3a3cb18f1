"""The streaming dispatch service: a live market instead of rounds.

Tasks and workers arrive continuously through
:mod:`repro.market.arrivals` processes; the dispatcher merges the two
arrival streams with its internally scheduled events (task deadlines,
session logouts, micro-batch window boundaries) into one global time
order, keeps its books inline, publishes on an
:class:`~repro.stream.bus.EventBus` the kinds the configured policy
subscribed to, and lets that policy commit assignments.
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
10^10-entry full benefit table.  A posted task's column is cut from a
block that covers it and the next ``BLOCK_TASKS - 1`` task arrivals
against the workers online now and those logging in before the last
of them: one block build serves up to ``BLOCK_TASKS`` posts.  The
arrival streams are read ahead for this, but the heap still receives
one arrival at a time, in stream order.

Round mode: ``policy = "round"`` delegates wholesale to the batch
engine (:class:`repro.sim.engine.Simulation`) — the round-based loop
becomes just one policy of the service, and its output is bit-identical
to calling the engine directly (a property test pins this).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.benefit.mutual import LinearCombiner, MutualCombiner
from repro.benefit.rows import RowwiseBenefit
from repro.errors import ConfigurationError, ValidationError
from repro.market.arrivals import Arrival, ArrivalProcess, PoissonArrivals
from repro.market.market import LaborMarket
from repro.stream.bus import EventBus
from repro.stream.events import TaskPosted, WindowFlush, WorkerLogin
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

#: Task arrivals covered by one block of posted-task columns.
BLOCK_TASKS = 32
#: Most worker arrivals read ahead into one block's rows.
_BLOCK_LOGINS = 1024


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


class _Lookahead:
    """An arrival stream that can be read ahead of the heap.

    The dispatch loop takes arrivals one at a time with :meth:`pull`,
    in stream order, so the heap sees exactly the unbuffered stream.
    The first queued arrival is the one pulled last — on the heap and
    not yet handled — and :meth:`ahead` reads from it onwards without
    consuming anything.
    """

    __slots__ = ("_stream", "_queue")

    def __init__(self, stream: Iterator[Arrival]) -> None:
        self._stream = stream
        self._queue: list[Arrival] = []

    def pull(self) -> Arrival | None:
        """Retire the arrival pulled last and return the next one."""
        queue = self._queue
        if queue:
            del queue[0]
        if not queue:
            arrival = next(self._stream, None)
            if arrival is None:
                return None
            queue.append(arrival)
        return queue[0]

    def ahead(
        self, count: int, horizon: float = math.inf
    ) -> list[Arrival]:
        """Up to ``count`` arrivals from the one pulled last, stopping
        before the first that arrives after ``horizon``."""
        queue = self._queue
        if not queue:  # nothing on the heap: not started, or exhausted
            return []
        if len(queue) < count:
            queue.extend(itertools.islice(self._stream, count - len(queue)))
        return list(
            itertools.takewhile(
                lambda arrival: arrival.time <= horizon, queue[:count]
            )
        )


class DispatchRuntime:
    """Shared mutable state the policies act on.

    Policies never mutate the open pool or the ledger directly — all
    commitment funnels through :meth:`assign`, which validates,
    updates the books, and emits the assignment record.
    ``task_arrivals`` / ``worker_arrivals`` are the dispatch loop's
    read-ahead streams; :meth:`column` uses them only to size its
    blocks, so without them each block is a single column.
    """

    def __init__(
        self,
        config: DispatchConfig,
        rows: RowwiseBenefit,
        result: StreamResult | None = None,
        telemetry: "_Telemetry | None" = None,
        task_arrivals: _Lookahead | None = None,
        worker_arrivals: _Lookahead | None = None,
    ) -> None:
        self.config = config
        self.rows = rows
        self._task_arrivals = task_arrivals or _Lookahead(iter(()))
        self._worker_arrivals = worker_arrivals or _Lookahead(iter(()))
        # The cached block of posted-task columns: task -> column, and
        # worker -> row.  A worker outside the block maps to
        # ``n_workers``, a row no block has, so gathering it raises.
        n_workers = rows.market.n_workers
        self._block = np.zeros((0, 0))
        self._block_columns: dict[int, int] = {}
        self._block_workers = np.zeros(0, dtype=np.int64)
        self._block_rows = np.full(n_workers, n_workers, dtype=np.int64)
        self.ledger = SessionLedger()
        #: task_index -> posted_at for unassigned, unexpired tasks.
        self.open: dict[int, float] = {}
        self.result = result if result is not None else StreamResult()
        #: Records emitted since the dispatch loop last drained them.
        self.pending: list[AssignmentRecord] = []
        self._scrape = (
            telemetry._assignments.append if telemetry is not None else None
        )

    def capacity(self, worker_index: int) -> int:
        return self.ledger.capacity(worker_index)

    def open_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted open task indices, their posting times)."""
        tasks = np.fromiter(self.open, dtype=np.int64, count=len(self.open))
        tasks.sort()
        posted = np.array([self.open[int(j)] for j in tasks])
        return tasks, posted

    def open_tasks(self) -> np.ndarray:
        """The task indices of :meth:`open_arrays`, without building
        their posting times."""
        tasks = np.fromiter(self.open, dtype=np.int64, count=len(self.open))
        tasks.sort()
        return tasks

    def online_array(self) -> np.ndarray:
        """Online workers with remaining capacity, presence order."""
        return self.ledger.online_array()

    def column(self, task_index: int, workers: np.ndarray) -> np.ndarray:
        """Combined benefit of one task against online ``workers``.

        Equal bit for bit to ``rows.column(task_index, workers)``: the
        benefit formulas are elementwise, so an entry does not depend
        on the block it is computed in.  A task or worker outside the
        cached block rebuilds it, so the read-ahead only decides how
        often that happens.
        """
        column = self._block_columns.get(task_index)
        if column is not None:
            try:
                return self._block[self._block_rows[workers], column]
            except IndexError:  # an online worker is not in the block
                pass
        self._build_block(task_index, workers)
        return self._block[self._block_rows[workers], 0]

    def _build_block(self, task_index: int, workers: np.ndarray) -> None:
        """Block of ``task_index`` and the next task arrivals against
        ``workers`` and the worker arrivals up to the last of them."""
        tasks = self._task_arrivals.ahead(BLOCK_TASKS - 1)
        logins = (
            self._worker_arrivals.ahead(
                _BLOCK_LOGINS, max(arrival.time for arrival in tasks)
            )
            if tasks
            else []
        )
        # Online workers have logged in and the read-ahead ones have
        # not; each worker arrives once, so the rows are distinct.
        block_workers = np.concatenate(
            (
                workers,
                np.array([arrival.index for arrival in logins], np.int64),
            )
        )
        block_tasks = [task_index] + [arrival.index for arrival in tasks]
        self._block = self.rows.row(
            block_workers, np.array(block_tasks, dtype=np.int64)
        )
        self._block_columns = {
            task: column for column, task in enumerate(block_tasks)
        }
        self._block_rows[self._block_workers] = self._block_rows.size
        self._block_rows[block_workers] = np.arange(block_workers.size)
        self._block_workers = block_workers

    def assign(
        self,
        worker_index: int,
        task_index: int,
        time: float,
        benefit: float,
    ) -> None:
        """Commit one edge: book-keep and emit its record."""
        posted_at = self.open.pop(task_index, None)
        if posted_at is None:
            raise ValidationError(
                f"task {task_index} is not open at time {time}"
            )
        self.ledger.consume(worker_index, 1)
        wait = time - posted_at
        record = AssignmentRecord(
            time, worker_index, task_index, benefit, wait
        )
        result = self.result
        result.records.append(record)
        result.combined_benefit += benefit
        self.pending.append(record)
        if self._scrape is not None:
            self._scrape((worker_index, benefit, wait))


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
        # Event-level buffers for the current window.  The dispatch
        # loop's handlers and ``DispatchRuntime.assign`` append to /
        # add to these directly through bound methods — ``_flush``
        # mutates them in place, never rebinds, so the bound methods
        # stay valid for the whole run.
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
        config = self.config
        if config.policy == "round":
            raise ConfigurationError(
                "round mode has no incremental stream; call run()"
            )
        rng = as_rng(seed)
        task_seed = int(rng.integers(2**31))
        worker_seed = int(rng.integers(2**31))

        result = StreamResult(policy=config.policy)
        self.last_result = result
        # Live telemetry rides the active tracer's windowed store
        # (created here at the default window width unless the run
        # owner — e.g. the monitor CLI — installed one already).
        store = obs.timeseries_store()
        telemetry = _Telemetry(store) if store is not None else None
        task_stream = _Lookahead(
            self.task_arrivals.stream(self.market.n_tasks, seed=task_seed)
        )
        worker_stream = _Lookahead(
            self.worker_arrivals.stream(
                self.market.n_workers, seed=worker_seed
            )
        )
        runtime = DispatchRuntime(
            config,
            RowwiseBenefit(self.market, combiner=self.combiner),
            result,
            telemetry,
            task_stream,
            worker_stream,
        )
        bus = EventBus()
        policy = make_policy(config, self.market.n_workers)
        policy.bind(runtime, bus)

        # The books are kept inline below; an event object is built
        # only for a kind some handler subscribed to.
        publish = bus.publish
        publish_posted = bus.subscribers(TaskPosted.kind) > 0
        publish_login = bus.subscribers(WorkerLogin.kind) > 0
        publish_flush = bus.subscribers(WindowFlush.kind) > 0
        # Bound-method handles into the telemetry buffers: the per-event
        # cost of the windowed scrape is one C-level append/add (the
        # obs_overhead bench case gates the ratio).
        if telemetry is not None:
            scrape_depth = telemetry._depths.append
            scrape_online = telemetry._online.add
        else:
            scrape_depth = scrape_online = None

        open_tasks = runtime.open
        ledger = runtime.ledger
        workers = self.market.workers
        pending = runtime.pending
        deadline = config.deadline
        session_length = config.session_length
        max_open = config.max_open_tasks
        # Heap entries are ``(time, seq, handler, arg)``; ``seq`` breaks
        # time ties in push order, so handlers are never compared.
        heap: list[tuple[float, int, object, int]] = []
        seq = itertools.count()
        push = heapq.heappush
        # Deadline of the last task posted, scheduled or not.
        last_deadline = 0.0

        def pull(stream: _Lookahead, handler) -> None:
            arrival = stream.pull()
            if arrival is not None:
                push(heap, (arrival.time, next(seq), handler, arrival.index))

        def on_task(time: float, task: int) -> None:
            nonlocal last_deadline
            pull(task_stream, on_task)
            if max_open > 0 and len(open_tasks) >= max_open:
                result.dropped_tasks += 1
                if telemetry is not None:
                    telemetry._dropped += 1
                return
            open_tasks[task] = time
            # Queue depth includes the new task, read before the
            # policy may assign it away.
            result.posted_tasks += 1
            depth = len(open_tasks)
            if depth > result.max_queue_depth:
                result.max_queue_depth = depth
            if scrape_depth is not None:
                scrape_depth(depth)
            if publish_posted:
                publish(TaskPosted(time, task, task))
            # Only a task still open can expire.  Handlers push nothing,
            # so the deadline keeps its ``seq`` order.
            last_deadline = time + deadline
            if task in open_tasks:
                push(heap, (last_deadline, next(seq), on_expire, task))

        def on_login(time: float, index: int) -> None:
            pull(worker_stream, on_login)
            worker = workers[index]
            if not worker.active:
                result.skipped_logins += 1
                return
            session = ledger.login(index, worker.capacity)
            push(
                heap, (time + session_length, next(seq), on_logout, session)
            )
            result.logins += 1
            if scrape_online is not None:
                scrape_online(index)
            if publish_login:
                publish(WorkerLogin(time, index, session))

        def on_expire(time: float, task: int) -> None:
            if open_tasks.pop(task, None) is None:
                return
            result.expired_tasks += 1
            if telemetry is not None:
                telemetry._expired += 1

        def on_logout(time: float, session: int) -> None:
            ledger.logout(session)
            result.logouts += 1

        def on_flush(time: float, window: int) -> None:
            if publish_flush:
                publish(WindowFlush(time, window))
            # Keep flushing only while arrivals can still come.
            if heap or open_tasks:
                push(
                    heap,
                    (time + config.batch_window, next(seq), on_flush,
                     window + 1),
                )

        pull(task_stream, on_task)
        pull(worker_stream, on_login)
        if config.policy == "micro-batch":
            push(heap, (config.batch_window, next(seq), on_flush, 0))

        pop = heapq.heappop
        clock = 0.0
        try:
            while heap:
                clock, _seq, handler, arg = pop(heap)
                if telemetry is not None and clock >= telemetry.boundary:
                    telemetry.advance(clock, runtime)
                handler(clock, arg)
                if pending:
                    yield from pending
                    pending.clear()
        finally:
            # Handlers on the heap and in each other's closures form
            # reference cycles; break them so an abandoned stream is
            # freed without a cyclic collection.
            heap.clear()
            on_task = on_login = on_expire = on_logout = on_flush = None
        # Flat obs counters are recorded once from the run totals:
        # a counter call per event is measurable on the dispatch hot
        # path (the obs_overhead bench case gates the ratio), and the
        # end-of-run sums are identical.  Every task its posting left
        # open had its deadline on the heap, so no task is open here.
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
        # The run ends at its last event, unscheduled deadlines included
        # (micro-batch, whose flush chain runs while the heap is not
        # empty, assigns nothing at posting, so it schedules them all).
        result.end_time = max(clock, last_deadline)
        if telemetry is not None:
            telemetry.finish(runtime)
        self._publish_summary(result)

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
