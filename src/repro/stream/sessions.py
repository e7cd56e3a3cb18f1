"""Session-scoped worker capacity accounting.

A worker's capacity is granted per *session* (login), not per worker:
when sessions overlap — a worker logs in again before a prior logout
fires — each logout must withdraw only the remaining capacity of its
own session.  The previous accounting (a flat ``worker -> capacity``
dict whose logout did ``pop(worker)``) destroyed the second session's
grant at the first logout; this ledger is the fix.  The streaming
dispatcher logs each worker in once per arrival, and every arrival
process yields each worker exactly once, so its sessions never
overlap today.

Consumption order is earliest-expiring-first: using up the grant that
dies soonest preserves the most future capacity, and makes the ledger
behave exactly like the old flat dict whenever sessions do not
overlap (so historical single-session runs stay bit-identical).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.errors import ValidationError


@dataclass
class SessionGrant:
    """One login's capacity grant."""

    session_id: int
    worker_index: int
    remaining: int
    expires_at: float


class SessionLedger:
    """Tracks per-session capacity grants for online workers."""

    def __init__(self) -> None:
        self._grants: dict[int, SessionGrant] = {}
        #: worker -> session ids with remaining capacity, login order.
        self._by_worker: dict[int, list[int]] = {}
        #: Workers with positive total capacity, in the order their
        #: current online presence began (mirrors the insertion-order
        #: semantics of the flat dict this ledger replaced).
        self._active_order: dict[int, None] = {}
        self._ids = itertools.count()

    # -- session lifecycle -------------------------------------------------

    def login(
        self, worker_index: int, capacity: int, expires_at: float
    ) -> int:
        """Open a session granting ``capacity`` units; returns its id."""
        if capacity < 0:
            raise ValidationError(
                f"session capacity must be >= 0, got {capacity}"
            )
        session_id = next(self._ids)
        self._grants[session_id] = SessionGrant(
            session_id, worker_index, capacity, expires_at
        )
        self._by_worker.setdefault(worker_index, []).append(session_id)
        if capacity > 0 and worker_index not in self._active_order:
            self._active_order[worker_index] = None
        return session_id

    def logout(self, session_id: int) -> tuple[int, int]:
        """Withdraw one session's remaining grant.

        Returns ``(worker_index, capacity_released)``.  Other sessions
        of the same worker are untouched — that is the whole point.
        Unknown or already-closed sessions release zero (idempotent,
        like the old ``pop(entity, None)``).
        """
        grant = self._grants.pop(session_id, None)
        if grant is None:
            return (-1, 0)
        sessions = self._by_worker.get(grant.worker_index, [])
        if session_id in sessions:
            sessions.remove(session_id)
        if self.capacity(grant.worker_index) <= 0:
            self._active_order.pop(grant.worker_index, None)
            if not sessions:
                self._by_worker.pop(grant.worker_index, None)
        return (grant.worker_index, grant.remaining)

    # -- capacity ----------------------------------------------------------

    def capacity(self, worker_index: int) -> int:
        """Total remaining capacity across the worker's open sessions."""
        ids = self._by_worker.get(worker_index)
        if not ids:
            return 0
        total = 0
        for sid in ids:
            total += self._grants[sid].remaining
        return total

    def consume(self, worker_index: int, amount: int = 1) -> None:
        """Use up ``amount`` units, earliest-expiring session first."""
        if amount <= 0:
            return
        ids = self._by_worker.get(worker_index, [])
        open_grants = sorted(
            (self._grants[sid] for sid in ids),
            key=lambda g: (g.expires_at, g.session_id),
        )
        for grant in open_grants:
            if amount <= 0:
                break
            used = min(grant.remaining, amount)
            grant.remaining -= used
            amount -= used
        if amount > 0:
            raise ValidationError(
                f"worker {worker_index} has no capacity left to consume"
            )
        if self.capacity(worker_index) <= 0:
            self._active_order.pop(worker_index, None)

    def online(self) -> list[int]:
        """Workers with positive capacity, in online-presence order."""
        return list(self._active_order)

    def session_worker(self, session_id: int) -> int | None:
        """Worker owning an open session, or ``None`` if closed."""
        grant = self._grants.get(session_id)
        return None if grant is None else grant.worker_index

    def open_sessions(self) -> int:
        """Number of sessions not yet logged out."""
        return len(self._grants)
