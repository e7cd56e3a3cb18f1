"""A deterministic synchronous event bus.

The dispatcher and the event simulator publish
:mod:`repro.stream.events` objects; subscribers (policy hooks, metric
recorders, the batch writer) receive them in subscription order,
synchronously, on the publisher's stack.  Synchronous delivery is a
deliberate choice: the simulated clock must not advance while an
event's consequences are still pending, and handler order must be a
pure function of subscription order for runs to be reproducible.

The bus never swallows handler exceptions — a failing handler fails
the run, loudly.  Resilience policy belongs to the layers above
(:mod:`repro.resilience`), not to the transport.
"""

from __future__ import annotations

from collections.abc import Callable

from repro import obs
from repro.stream.events import StreamEvent

Handler = Callable[[StreamEvent], None]


class EventBus:
    """Routes events to handlers by their ``kind`` string."""

    __slots__ = ("_handlers", "published", "delivered", "_counted")

    def __init__(self) -> None:
        self._handlers: dict[str, list[Handler]] = {}
        #: Total events published / handler invocations, for tests and
        #: the ``stream.bus.*`` obs counters.
        self.published = 0
        self.delivered = 0
        self._counted = 0

    def subscribe(self, kind: str, handler: Handler) -> None:
        """Register ``handler`` for events of ``kind``.

        Handlers for one kind run in subscription order.
        """
        self._handlers.setdefault(kind, []).append(handler)

    def clear(self) -> None:
        """Drop every subscription (and the references handlers hold)."""
        self._handlers.clear()

    def subscribers(self, kind: str) -> int:
        """Number of handlers currently registered for ``kind``."""
        return len(self._handlers.get(kind, ()))

    def publish(self, event: StreamEvent) -> int:
        """Deliver ``event`` to every subscriber of its kind.

        Returns the number of handlers invoked.  Publishing a kind
        nobody subscribed to is legal and counts zero deliveries —
        emitters stay decoupled from what the run chooses to observe.
        """
        handlers = self._handlers.get(event.kind, ())
        for handler in handlers:
            handler(event)
        self.published += 1
        self.delivered += len(handlers)
        return len(handlers)

    def flush_metrics(self) -> None:
        """Record publishes since the last flush as an obs counter.

        Publishing is the dispatch loop's hottest path, so the
        ``stream.bus.published`` counter is recorded in one batch at
        end of run rather than per event.  Delta-based, so repeated
        flushes never double-count.
        """
        delta = self.published - self._counted
        if delta:
            obs.count("stream.bus.published", delta)
            self._counted = self.published
