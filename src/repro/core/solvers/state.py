"""Shared cross-round solver state: id-keyed edges and warm-start duals.

Three solver families carry information from one round to the next —
the incremental flow solver (previous edges), the warm-start wrapper
(auction prices), and the sharded solver (which reuses both through
the warm wrapper).  They all face the same two
problems, solved here exactly once:

* **Identity across snapshots.**  Matrix indices are only meaningful
  within one market snapshot; cross-round state must be keyed on the
  stable entity ids (``worker_id``, ``task_id``).  :func:`edge_ids`
  and :func:`index_maps` translate between the two spaces.
* **Staleness detection.**  Reusing state is only *exact* when the
  problem is bit-identical; :func:`problem_fingerprint` hashes every
  input a deterministic solver reads (benefit matrix, capacities,
  active mask, entity ids), so "nothing changed" is a cheap equality
  check instead of a hope.

:class:`WarmState` bundles the persisted pieces.  It is a plain
picklable dataclass, so a solver holding one checkpoints for free
through the simulation engine's state snapshot (the engine pickles the
solver object itself — see ``Simulation._snapshot_bytes``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem


def edge_ids(
    problem: MBAProblem, assignment: Assignment
) -> set[tuple[int, int]]:
    """(worker_id, task_id) pairs of an assignment, for cross-round reuse."""
    market = assignment.problem.market
    return {
        (market.workers[i].worker_id, market.tasks[j].task_id)
        for i, j in assignment.edges
    }


def retention_overlap(
    previous_ids: set[tuple[int, int]],
    problem: MBAProblem,
    assignment: Assignment,
) -> float:
    """Fraction of the previous edges retained in the new assignment."""
    if not previous_ids:
        return 1.0
    market = problem.market
    current = {
        (market.workers[i].worker_id, market.tasks[j].task_id)
        for i, j in assignment.edges
    }
    return len(previous_ids & current) / len(previous_ids)


def index_maps(market) -> tuple[dict[int, int], dict[int, int]]:
    """``(worker_id -> index, task_id -> index)`` for one snapshot."""
    worker_index = {w.worker_id: i for i, w in enumerate(market.workers)}
    task_index = {t.task_id: j for j, t in enumerate(market.tasks)}
    return worker_index, task_index


def problem_fingerprint(problem: MBAProblem) -> bytes:
    """Content hash of everything a deterministic solver reads.

    Covers the combined benefit matrix bytes, the effective capacities
    (inactive workers already zeroed), the replication quotas, and the
    entity id sequences.  Two problems with equal fingerprints yield
    bit-identical assignments from any deterministic solver, which is
    what licenses the warm wrapper's replay fast path.

    Memoized per problem instance (hashing the combined matrix is the
    dominant cost at scale): a problem's inputs are immutable for its
    lifetime, so the hash is computed at most once and repeated solves
    of the same instance — the replay fast path's whole point — pay
    only a dictionary-sized check.
    """
    memo = getattr(problem, "_fingerprint", None)
    if memo is not None:
        return memo
    market = problem.market
    digest = hashlib.blake2b(digest_size=16)
    worker_ids = np.fromiter(
        (w.worker_id for w in market.workers),
        dtype=np.int64,
        count=market.n_workers,
    )
    task_ids = np.fromiter(
        (t.task_id for t in market.tasks),
        dtype=np.int64,
        count=market.n_tasks,
    )
    for part in (
        worker_ids,
        task_ids,
        problem.worker_capacities().astype(np.int64),
        problem.task_capacities().astype(np.int64),
    ):
        digest.update(np.ascontiguousarray(part).data)
        digest.update(b"|")
    combined = np.ascontiguousarray(
        problem.benefits.combined, dtype=np.float64
    )
    digest.update(str(combined.shape).encode())
    digest.update(combined.data)
    result = digest.digest()
    try:
        problem._fingerprint = result
    except AttributeError:
        pass  # frozen duck problems just skip the memo
    return result


@dataclass
class WarmState:
    """Cross-round solver memory: last solution plus dual variables.

    ``fingerprint``/``edges`` support the *exact* replay path: when the
    next round's problem hashes identically, the previous planned edges
    ARE the deterministic base solver's answer.  The auction prices
    per task feed the *approximate* delta-solve path under membership
    churn.  All fields are picklable, so the state rides simulation
    checkpoints unchanged.
    """

    fingerprint: bytes | None = None
    edges: tuple[tuple[int, int], ...] | None = None
    edge_id_pairs: frozenset = frozenset()
    task_prices: dict[int, float] = field(default_factory=dict)
    seen_workers: frozenset = frozenset()
    seen_tasks: frozenset = frozenset()
    rounds_recorded: int = 0
    replays: int = 0
    warm_solves: int = 0
    cold_solves: int = 0

    def churn_fraction(self, market) -> float:
        """Fraction of the current market unseen at the last record.

        1.0 before anything was recorded (cold by definition); 0.0 when
        every current worker and task id was present last round.
        """
        if self.rounds_recorded == 0:
            return 1.0
        total = market.n_workers + market.n_tasks
        if total == 0:
            return 0.0
        known = sum(
            1 for w in market.workers if w.worker_id in self.seen_workers
        ) + sum(1 for t in market.tasks if t.task_id in self.seen_tasks)
        return 1.0 - known / total

    def record(
        self,
        problem: MBAProblem,
        fingerprint: bytes,
        assignment: Assignment,
    ) -> None:
        """Remember a fresh solve's identity and solution."""
        market = problem.market
        self.fingerprint = fingerprint
        self.edges = tuple(assignment.edges)
        self.edge_id_pairs = frozenset(edge_ids(problem, assignment))
        self.seen_workers = frozenset(
            w.worker_id for w in market.workers
        )
        self.seen_tasks = frozenset(t.task_id for t in market.tasks)
        self.rounds_recorded += 1

    def price_vector(self, market, default: float = 0.0) -> np.ndarray:
        """Per-task-index price array for the current snapshot."""
        return np.array(
            [
                self.task_prices.get(t.task_id, default)
                for t in market.tasks
            ],
            dtype=float,
        )
