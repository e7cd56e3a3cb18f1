"""Run-level durability: checkpoints, supervision, chaos survival.

A parameter sweep or long simulation is itself a system that can fail:
a pool worker segfaults, a task hangs, the operator hits Ctrl-C, the
host reboots.  This module makes *the run* as resilient as the solvers
it measures:

* :class:`CheckpointStore` — an on-disk, content-addressed record of
  completed work units.  Every write is atomic (temp file + fsync +
  rename, via :mod:`repro.utils.atomic`), so a checkpoint directory is
  valid at every instant and a killed run resumes by skipping exactly
  the recorded units.  A manifest fingerprints the run configuration;
  resuming against a different configuration is refused instead of
  silently mixing incompatible results.
* :class:`SupervisedPool` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  wrapped with per-task wall-clock timeouts, bounded seeded-backoff
  retries, broken-pool recovery (respawn + requeue), poison-task
  quarantine (reported via :class:`RunStats`, never fatal), and
  graceful ``KeyboardInterrupt``/``SIGTERM`` handling that returns the
  partial results instead of orphaning workers.
* :class:`RuntimePolicy` / :class:`RunStats` — the declarative knobs
  and the accounting of what supervision actually did.

Determinism contract: supervision changes *scheduling*, never
*values*.  Work units own their RNG streams up front (the sweep spawns
all of them before submission; the engine checkpoints generator
state), so a run that crashes, retries, and resumes is bit-identical
to one that sailed through.  The chaos tests drive a seeded
:class:`~repro.resilience.faults.ChaosPlan` through this pool and
assert exactly that.

Observability: supervision events surface as
``resilience.runtime.*`` counters (retries, requeues, worker
restarts, timeouts, quarantines, checkpoint hits/writes) plus
``runtime.retry`` / ``runtime.checkpoint`` spans on the active tracer,
so a resumed trace explains what the run skipped and why.
"""

from __future__ import annotations

import contextlib
import json
import re
import signal
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.errors import ConfigurationError, ValidationError
from repro.resilience.faults import ChaosPlan
from repro.utils.atomic import atomic_write_text
from repro.utils.rng import derive_rng

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

CHECKPOINT_SCHEMA = "repro-checkpoint/1"
_MANIFEST_NAME = "manifest.json"
_RECORD_DIR = "records"
_KEY_PATTERN = re.compile(r"^[A-Za-z0-9_-]+$")


# -- policy and accounting ----------------------------------------------------

@dataclass(frozen=True)
class RuntimePolicy:
    """Supervision knobs for a :class:`SupervisedPool` run.

    ``task_timeout`` is a per-task wall-clock bound (``None`` disables
    it); a task that exceeds it is presumed hung, the pool is recycled,
    and the task is charged a *crash*.  Tasks that raise are charged a
    *soft failure* and retried up to ``max_point_retries`` times with
    seeded exponential backoff.  A task reaching ``quarantine_after``
    crashes (kills/hangs with definite blame) — or exhausting its soft
    retries — is quarantined: recorded in :class:`RunStats`, skipped,
    and the run continues.
    """

    task_timeout: float | None = None
    max_point_retries: int = 2
    quarantine_after: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    backoff_seed: int = 0

    def __post_init__(self) -> None:
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be > 0 (or None), got "
                f"{self.task_timeout}"
            )
        if self.max_point_retries < 0:
            raise ConfigurationError(
                f"max_point_retries must be >= 0, got "
                f"{self.max_point_retries}"
            )
        if self.quarantine_after < 1:
            raise ConfigurationError(
                f"quarantine_after must be >= 1, got "
                f"{self.quarantine_after}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ConfigurationError("backoff delays must be >= 0")

    def backoff_delay(self, position: int, attempt: int) -> float:
        """Seeded exponential backoff with deterministic jitter.

        Addressed by ``(backoff_seed, position, attempt)`` so the delay
        schedule — like everything else in a run — replays exactly.
        """
        jitter = derive_rng(
            self.backoff_seed, position, attempt
        ).random()
        delay = self.backoff_base * (2.0 ** attempt) * (0.5 + jitter)
        return min(self.backoff_cap, delay)


@dataclass(frozen=True)
class QuarantinedTask:
    """One work unit given up on: where, why, and after how much."""

    position: int
    reason: str
    crashes: int
    errors: int

    def to_dict(self) -> dict:
        return {
            "position": self.position,
            "reason": self.reason,
            "crashes": self.crashes,
            "errors": self.errors,
        }


@dataclass
class RunStats:
    """What supervision did during one :meth:`SupervisedPool.run`."""

    completed: int = 0
    skipped: int = 0
    retries: int = 0
    requeues: int = 0
    worker_restarts: int = 0
    timeouts: int = 0
    interrupted: bool = False
    quarantined: list[QuarantinedTask] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.quarantined)

    def to_dict(self) -> dict:
        return {
            "completed": self.completed,
            "skipped": self.skipped,
            "retries": self.retries,
            "requeues": self.requeues,
            "worker_restarts": self.worker_restarts,
            "timeouts": self.timeouts,
            "interrupted": self.interrupted,
            "quarantined": [q.to_dict() for q in self.quarantined],
        }


# -- checkpointing ------------------------------------------------------------

class CheckpointStore:
    """Atomic, content-addressed persistence of completed work units.

    Layout::

        <root>/manifest.json          # schema + run fingerprint
        <root>/records/<key>.json     # one completed unit per file

    The *fingerprint* is a JSON-able dict capturing everything that
    makes records reusable (workload identity, seed, solver config —
    the caller decides); its :func:`repro.obs.content_id` is stamped
    into the manifest.  Opening a store against a directory whose
    manifest carries a different fingerprint raises
    :class:`~repro.errors.ValidationError` — a resumed run either
    matches the interrupted one bit-for-bit or is refused.

    Keys are caller-chosen content ids (``[A-Za-z0-9_-]+``); every
    record write goes through :func:`repro.utils.atomic.atomic_write_text`,
    so a crash mid-store leaves the directory with one fewer record,
    never a torn one.
    """

    def __init__(
        self, root: str | Path, fingerprint: dict[str, Any]
    ) -> None:
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.fingerprint_id = obs.content_id(fingerprint)
        self._open()

    # -- identity --------------------------------------------------------

    @staticmethod
    def key_for(payload: object) -> str:
        """Durable content-addressed key for a work-unit identity."""
        return obs.content_id(payload)

    @property
    def manifest_path(self) -> Path:
        return self.root / _MANIFEST_NAME

    def record_path(self, key: str) -> Path:
        self._check_key(key)
        return self.root / _RECORD_DIR / f"{key}.json"

    def _open(self) -> None:
        manifest_path = self.manifest_path
        if manifest_path.exists():
            try:
                manifest = json.loads(manifest_path.read_text())
            except json.JSONDecodeError:
                raise ValidationError(
                    f"{manifest_path} is not valid JSON — the "
                    "checkpoint directory is corrupt; remove it to "
                    "start fresh"
                ) from None
            if manifest.get("schema") != CHECKPOINT_SCHEMA:
                raise ValidationError(
                    f"{manifest_path} has schema "
                    f"{manifest.get('schema')!r}, expected "
                    f"{CHECKPOINT_SCHEMA!r}"
                )
            found = manifest.get("fingerprint_id")
            if found != self.fingerprint_id:
                raise ValidationError(
                    f"checkpoint directory {self.root} belongs to a "
                    f"different run configuration (fingerprint "
                    f"{found} != {self.fingerprint_id}); point "
                    "--checkpoint at a fresh directory or rerun the "
                    "original configuration"
                )
            return
        atomic_write_text(
            manifest_path,
            json.dumps(
                {
                    "schema": CHECKPOINT_SCHEMA,
                    "fingerprint_id": self.fingerprint_id,
                    "fingerprint": self.fingerprint,
                },
                indent=2,
                sort_keys=True,
                default=str,
            )
            + "\n",
        )

    # -- records ---------------------------------------------------------

    def has(self, key: str) -> bool:
        return self.record_path(key).exists()

    def keys(self) -> set[str]:
        """Keys of every record currently on disk."""
        record_dir = self.root / _RECORD_DIR
        if not record_dir.is_dir():
            return set()
        return {path.stem for path in record_dir.glob("*.json")}

    def load(self, key: str) -> Any | None:
        """The recorded payload for ``key``, or ``None`` if absent."""
        path = self.record_path(key)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError:
            raise ValidationError(
                f"checkpoint record {path} is not valid JSON — the "
                "checkpoint directory is corrupt"
            ) from None

    def store(self, key: str, payload: Any) -> Path:
        """Atomically persist one completed unit under ``key``."""
        with obs.span("runtime.checkpoint", key=key):
            path = atomic_write_text(
                self.record_path(key),
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
            )
        obs.count("resilience.runtime.checkpoint.writes")
        return path

    @staticmethod
    def _check_key(key: str) -> None:
        if not _KEY_PATTERN.fullmatch(key):
            raise ValidationError(
                f"checkpoint key {key!r} is not a content id "
                "([A-Za-z0-9_-]+)"
            )


# -- supervised execution -----------------------------------------------------

def _worker_init() -> None:
    """Pool-worker signal hygiene.

    Workers must not inherit the parent's SIGTERM-to-KeyboardInterrupt
    handler (they'd print tracebacks instead of dying quietly when the
    pool terminates them), and they ignore SIGINT so a terminal Ctrl-C
    reaches only the parent — which then kills the pool deliberately.
    """
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)


def _supervised_entry(payload: tuple) -> Any:
    """Worker-side entry: run the chaos plan, then the real task.

    Top-level so it pickles by reference.  Chaos executes *before* the
    task so a killed attempt does no work at all — exactly the failure
    the checkpoint layer must mask.
    """
    fn, args, chaos, position, attempt = payload
    if chaos is not None:
        chaos.execute(position, attempt)
    return fn(args)


class SupervisedPool:
    """A process pool that survives its workers (and its operator).

    ``run(fn, tasks)`` executes ``fn(task)`` for every task in a
    :class:`~concurrent.futures.ProcessPoolExecutor` under a
    :class:`RuntimePolicy`:

    * a worker that **raises** costs its task a soft failure — retried
      with seeded backoff, quarantined past ``max_point_retries``;
    * a worker that **dies** breaks the pool; the pool is respawned
      and every in-flight task requeued.  Because a broken pool cannot
      say *which* task killed it, the implicated tasks re-run one at a
      time (isolation) until the poison task crashes alone — definite
      blame — and quarantines after ``quarantine_after`` crashes;
    * a task that **exceeds** ``task_timeout`` is presumed hung: the
      pool is recycled (a running future cannot be cancelled), the
      overdue task charged a crash, innocent in-flight tasks requeued
      blame-free;
    * ``KeyboardInterrupt``/``SIGTERM`` kill the workers, flush
      nothing mid-write (all persistence is atomic), and return the
      partial results with ``stats.interrupted`` set.

    At most ``n_workers`` tasks are ever in flight, so submission time
    approximates start time and the wall-clock timeout measures the
    task, not the queue.
    """

    def __init__(
        self,
        n_workers: int,
        policy: RuntimePolicy | None = None,
        chaos: ChaosPlan | None = None,
        mp_context=None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.n_workers = n_workers
        self.policy = policy if policy is not None else RuntimePolicy()
        self.chaos = chaos
        self.mp_context = mp_context

    # -- public API ------------------------------------------------------

    def run(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        on_result: Callable[[int, Any], None] | None = None,
    ) -> tuple[dict[int, Any], RunStats]:
        """Execute every task; returns ``(position -> result, stats)``.

        ``fn`` must be a module-level (picklable) callable.
        ``on_result`` runs in the parent as each task completes — the
        sweep layer uses it to write checkpoint records the moment a
        point finishes, so an interrupt can never lose completed work.
        Quarantined positions are absent from the result dict and
        listed in ``stats.quarantined``.
        """
        stats = RunStats()
        results: dict[int, Any] = {}
        pending: deque[int] = deque(range(len(tasks)))
        isolation: deque[int] = deque()
        attempts: dict[int, int] = {}
        errors: dict[int, int] = {}
        crashes: dict[int, int] = {}
        self._generation = 0
        executor = self._spawn()
        in_flight: dict[Future, tuple[int, float]] = {}
        previous_sigterm = self._install_sigterm()
        try:
            while pending or isolation or in_flight:
                executor = self._fill(
                    executor, fn, tasks, pending, isolation, in_flight,
                    attempts, stats,
                )
                if not in_flight:
                    continue
                self._await_one(in_flight)
                executor = self._reap(
                    executor, done=[f for f in in_flight if f.done()],
                    in_flight=in_flight, results=results,
                    pending=pending, isolation=isolation,
                    attempts=attempts, errors=errors, crashes=crashes,
                    stats=stats, on_result=on_result,
                )
                executor = self._expire(
                    executor, in_flight, pending, isolation,
                    crashes, stats,
                )
        except KeyboardInterrupt:
            stats.interrupted = True
            obs.count("resilience.runtime.interrupts")
            self._kill_pool(executor)
        finally:
            if previous_sigterm is not None:
                signal.signal(signal.SIGTERM, previous_sigterm)
            executor.shutdown(wait=False, cancel_futures=True)
        return results, stats

    # -- pool lifecycle --------------------------------------------------

    def _spawn(self) -> ProcessPoolExecutor:
        # The pool stack (concurrent.futures, multiprocessing, socket,
        # logging) loads here, not on every ``import repro``.
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.n_workers,
            mp_context=self.mp_context,
            initializer=_worker_init,
        )

    def _kill_pool(self, executor: ProcessPoolExecutor) -> None:
        """Hard-stop a pool: SIGKILL the workers, drop the queue.

        Used on recycle (broken/hung pool) and on interrupt — the one
        path where waiting politely could wait forever.
        """
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            with contextlib.suppress(OSError):
                process.kill()
        executor.shutdown(wait=False, cancel_futures=True)

    def _recycle(
        self, executor: ProcessPoolExecutor, stats: RunStats
    ) -> ProcessPoolExecutor:
        self._kill_pool(executor)
        self._generation += 1
        stats.worker_restarts += 1
        obs.count("resilience.runtime.worker_restarts")
        return self._spawn()

    @staticmethod
    def _install_sigterm():
        """Route SIGTERM through the KeyboardInterrupt path (main
        thread only), so ``kill <pid>`` gets the same graceful
        partial-result shutdown as Ctrl-C."""
        if threading.current_thread() is not threading.main_thread():
            return None

        def _to_interrupt(signum, frame):
            raise KeyboardInterrupt

        try:
            return signal.signal(signal.SIGTERM, _to_interrupt)
        except (ValueError, OSError):
            return None

    # -- scheduling ------------------------------------------------------

    def _capacity(self, isolation: deque[int]) -> int:
        # Isolation mode runs implicated tasks strictly one at a time:
        # a crash with a single task in flight is definite blame.
        return 1 if isolation else self.n_workers

    def _fill(
        self, executor, fn, tasks, pending, isolation, in_flight,
        attempts, stats,
    ):
        from concurrent.futures.process import BrokenProcessPool

        while len(in_flight) < self._capacity(isolation):
            if isolation:
                if in_flight:
                    break
                source = isolation
            elif pending:
                source = pending
            else:
                break
            position = source.popleft()
            attempt = attempts.get(position, 0)
            attempts[position] = attempt + 1
            try:
                future = executor.submit(
                    _supervised_entry,
                    (fn, tasks[position], self.chaos, position,
                     attempt),
                )
            except BrokenProcessPool:
                # The attempt never started: give the position back to
                # its queue (and its attempt number back) and recycle.
                source.appendleft(position)
                attempts[position] = attempt
                executor = self._recycle(executor, stats)
                continue
            in_flight[future] = (
                position, time.monotonic(), self._generation
            )
        return executor

    def _await_one(self, in_flight) -> None:
        from concurrent.futures import FIRST_COMPLETED, wait

        timeout = None
        if self.policy.task_timeout is not None:
            now = time.monotonic()
            deadline = min(
                submitted + self.policy.task_timeout
                for _, submitted, _ in in_flight.values()
            )
            timeout = max(0.01, deadline - now)
        wait(set(in_flight), timeout=timeout,
             return_when=FIRST_COMPLETED)

    def _reap(
        self, executor, done, in_flight, results, pending, isolation,
        attempts, errors, crashes, stats, on_result,
    ):
        from concurrent.futures.process import BrokenProcessPool

        # Successes first: a pool breakage clears in_flight wholesale,
        # and a task that finished cleanly in the same pass should land
        # in the results, not be needlessly requeued as implicated.
        done = sorted(done, key=lambda f: f.exception() is not None)
        for future in done:
            if future not in in_flight:
                continue  # cleared by an earlier breakage this pass
            position, _, generation = in_flight.pop(future)
            try:
                value = future.result()
            except BrokenProcessPool:
                executor = self._breakage(
                    executor, position, generation, in_flight,
                    isolation, crashes, stats,
                )
            except Exception as error:  # supervision boundary
                self._soft_failure(
                    position, error, pending, isolation,
                    attempts, errors, crashes, stats,
                )
            else:
                results[position] = value
                stats.completed += 1
                if on_result is not None:
                    on_result(position, value)
        return executor

    def _expire(
        self, executor, in_flight, pending, isolation, crashes, stats,
    ):
        if self.policy.task_timeout is None or not in_flight:
            return executor
        now = time.monotonic()
        overdue = [
            (future, position)
            for future, (position, submitted, _) in in_flight.items()
            if not future.done()
            and now - submitted > self.policy.task_timeout
        ]
        if not overdue:
            return executor
        # A running future cannot be cancelled; reclaiming the worker
        # means recycling the pool.  Overdue tasks get definite blame
        # (their own clock ran out); the rest requeue blame-free.
        overdue_positions = {position for _, position in overdue}
        innocents = [
            position
            for future, (position, _, _) in in_flight.items()
            if position not in overdue_positions
        ]
        in_flight.clear()
        executor = self._recycle(executor, stats)
        for position in sorted(overdue_positions):
            stats.timeouts += 1
            obs.count("resilience.runtime.timeouts")
            self._crash(
                position, "task timeout", isolation, crashes, stats
            )
        for position in innocents:
            stats.requeues += 1
            obs.count("resilience.runtime.requeues")
            isolation.append(position)
        return executor

    # -- failure accounting ----------------------------------------------

    def _breakage(
        self, executor, position, generation, in_flight, isolation,
        crashes, stats,
    ):
        """A worker died.  With one task in flight the blame is
        definite; otherwise every implicated task re-runs in
        isolation until the culprit crashes alone."""
        if generation != self._generation:
            # This future died with an already-replaced pool (the
            # breakage was handled at submit time); just requeue it.
            stats.requeues += 1
            obs.count("resilience.runtime.requeues")
            isolation.append(position)
            return executor
        implicated = [position] + [
            pos for pos, _, _ in in_flight.values()
        ]
        in_flight.clear()
        executor = self._recycle(executor, stats)
        if len(implicated) == 1:
            self._crash(
                implicated[0], "worker died", isolation, crashes,
                stats,
            )
            return executor
        for pos in implicated:
            stats.requeues += 1
            obs.count("resilience.runtime.requeues")
            isolation.append(pos)
        return executor

    def _crash(
        self, position, reason, isolation, crashes, stats,
    ) -> None:
        crashes[position] = crashes.get(position, 0) + 1
        if crashes[position] >= self.policy.quarantine_after:
            self._quarantine(
                position,
                f"{reason} x{crashes[position]}",
                crashes, stats,
            )
            return
        stats.retries += 1
        obs.count("resilience.runtime.retries")
        isolation.append(position)

    def _soft_failure(
        self, position, error, pending, isolation,
        attempts, errors, crashes, stats,
    ) -> None:
        errors[position] = errors.get(position, 0) + 1
        if errors[position] > self.policy.max_point_retries:
            self._quarantine(
                position,
                f"raised {type(error).__name__}: {error}",
                crashes, stats, errors=errors,
            )
            return
        stats.retries += 1
        obs.count("resilience.runtime.retries")
        attempt = attempts.get(position, 1)
        delay = self.policy.backoff_delay(position, attempt)
        with obs.span(
            "runtime.retry", position=position, attempt=attempt
        ):
            if delay > 0:
                time.sleep(delay)
        # Retried soft failures rejoin the parallel queue — unlike
        # crashes, an exception cannot hurt other tasks.
        (isolation if isolation else pending).append(position)

    def _quarantine(
        self, position, reason, crashes, stats, errors=None,
    ) -> None:
        stats.quarantined.append(
            QuarantinedTask(
                position=position,
                reason=reason,
                crashes=crashes.get(position, 0),
                errors=(errors or {}).get(position, 0),
            )
        )
        obs.count("resilience.runtime.quarantined")
