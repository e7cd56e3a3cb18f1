"""Typed events flowing through the streaming dispatch bus.

Every event is a small frozen dataclass with a class-level ``kind``
string — the bus routes on ``kind``, handlers read the typed fields.
The continuous dispatcher (:mod:`repro.stream.dispatch`) keeps its own
books and builds one of these only to publish it to a subscriber (a
policy); kinds nobody subscribed to are never built.  Deadlines,
logouts and assignments are booked by the dispatcher alone and have
no event.

Time semantics: ``time`` is simulated market time (the arrival
process's clock), never wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class StreamEvent:
    """Base event: everything that happens, happens at a time."""

    kind: ClassVar[str] = "event"

    time: float


@dataclass(frozen=True)
class TaskPosted(StreamEvent):
    """A task instance entered the open pool.

    The dispatcher posts each task exactly once and uses the task
    index itself as the instance id.
    """

    kind: ClassVar[str] = "task-posted"

    task_index: int
    instance_id: int


@dataclass(frozen=True)
class WorkerLogin(StreamEvent):
    """A worker logged in; ``session_id`` names the session opened."""

    kind: ClassVar[str] = "worker-login"

    worker_index: int
    session_id: int


@dataclass(frozen=True)
class WindowFlush(StreamEvent):
    """A micro-batch window boundary: time to re-solve the window."""

    kind: ClassVar[str] = "window-flush"

    window_index: int
