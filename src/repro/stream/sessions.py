"""Per-worker capacity accounting for the workers currently online.

Each arrival process yields every worker exactly once, so a worker has
at most one open session: the ledger keeps, per online worker, the
open session's id and the capacity it has left.  Logging in a worker
who is already online raises :class:`~repro.errors.ValidationError`
rather than silently merging or dropping a grant — re-logins would
need a new arrival contract, and this ledger with it.

:meth:`SessionLedger.online` lists the workers with capacity left in
the order their sessions began; a worker who logs out and back in
joins the end of that order.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import ValidationError


class SessionLedger:
    """Tracks the open session and remaining capacity of each worker."""

    def __init__(self) -> None:
        #: worker -> open session id.
        self._session: dict[int, int] = {}
        #: open session id -> worker.
        self._worker: dict[int, int] = {}
        #: worker -> remaining capacity, only while it is positive;
        #: insertion order is online-presence order.
        self._remaining: dict[int, int] = {}
        self._ids = itertools.count()

    # -- session lifecycle -------------------------------------------------

    def login(self, worker_index: int, capacity: int) -> int:
        """Open a session granting ``capacity`` units; returns its id."""
        if capacity < 0:
            raise ValidationError(
                f"session capacity must be >= 0, got {capacity}"
            )
        if worker_index in self._session:
            raise ValidationError(
                f"worker {worker_index} is already online in session "
                f"{self._session[worker_index]}"
            )
        session_id = next(self._ids)
        self._session[worker_index] = session_id
        self._worker[session_id] = worker_index
        if capacity > 0:
            self._remaining[worker_index] = capacity
        return session_id

    def logout(self, session_id: int) -> tuple[int, int]:
        """Close a session and withdraw its remaining capacity.

        Returns ``(worker_index, capacity_released)``.  Unknown or
        already-closed sessions release nothing: ``(-1, 0)``.
        """
        worker_index = self._worker.pop(session_id, None)
        if worker_index is None:
            return (-1, 0)
        del self._session[worker_index]
        return (worker_index, self._remaining.pop(worker_index, 0))

    # -- capacity ----------------------------------------------------------

    def capacity(self, worker_index: int) -> int:
        """Remaining capacity of the worker's open session (0 if none)."""
        return self._remaining.get(worker_index, 0)

    def consume(self, worker_index: int, amount: int = 1) -> None:
        """Use up ``amount`` units of the worker's open session."""
        if amount <= 0:
            return
        left = self._remaining.get(worker_index, 0) - amount
        if left < 0:
            raise ValidationError(
                f"worker {worker_index} has no capacity left to consume"
            )
        if left:
            self._remaining[worker_index] = left
        else:
            del self._remaining[worker_index]

    def online(self) -> list[int]:
        """Workers with positive capacity, in online-presence order."""
        return list(self._remaining)

    def online_array(self) -> np.ndarray:
        """:meth:`online` as an int64 array, read without a list copy."""
        return np.fromiter(self._remaining, np.int64, count=len(self._remaining))

    def online_capacities(self) -> tuple[np.ndarray, np.ndarray]:
        """(:meth:`online_array`, each worker's remaining capacity)."""
        count = len(self._remaining)
        return self.online_array(), np.fromiter(
            self._remaining.values(), np.int64, count=count
        )

    def session_worker(self, session_id: int) -> int | None:
        """Worker owning an open session, or ``None`` if closed."""
        return self._worker.get(session_id)

    def open_sessions(self) -> int:
        """Number of sessions not yet logged out."""
        return len(self._worker)
