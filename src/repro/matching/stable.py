"""Stable matching: Gale–Shapley deferred acceptance, many-to-one.

In the matching-theory view of a two-sided market, "mutual benefit" has
a classical formalization: a matching is *stable* when no worker-task
pair prefers each other to what they currently hold (no *blocking
pair*).  Deferred acceptance computes a stable many-to-one matching in
O(n·m); it is the natural matching-theory baseline for the MBA problem
and the F19 experiment compares them:

* DA yields (essentially) zero blocking pairs but optimizes nobody's
  *total* benefit;
* the MBA solvers maximize total benefit and tolerate a few blocking
  pairs — the price of utilitarian optimality.

Preferences here are induced by the benefit matrices: worker ``i``
ranks tasks by worker-side benefit, task ``j`` ranks workers by
requester-side benefit, and only positive-benefit partners are
acceptable (matching an unacceptable partner would itself be blocked by
the outside option).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro import obs
from repro.utils.validation import (
    check_capacities,
    check_same_shape,
    check_weights,
)


def deferred_acceptance(
    worker_preferences: np.ndarray,
    task_preferences: np.ndarray,
    worker_capacities: np.ndarray,
    task_capacities: np.ndarray,
) -> list[tuple[int, int]]:
    """Worker-proposing deferred acceptance with capacities on both sides.

    Parameters
    ----------
    worker_preferences:
        ``(n, m)`` scores: worker ``i``'s value for task ``j``; only
        strictly positive entries are acceptable.
    task_preferences:
        ``(n, m)`` scores: task ``j``'s value for worker ``i``; only
        strictly positive entries are acceptable.
    worker_capacities / task_capacities:
        How many partners each side can hold, checked as the
        b-matching kernel's ``row_capacities``/``col_capacities``.

    Returns
    -------
    Matched (worker, task) edges.  The result is stable w.r.t. the
    given preferences under the standard responsive-preference
    semantics: no mutually-acceptable pair exists where both sides
    would profitably deviate (taking an open slot or displacing their
    worst-held partner).
    """
    check_same_shape(
        "preference matrices", worker_preferences, task_preferences
    )
    worker_preferences = check_weights(worker_preferences)
    task_preferences = check_weights(task_preferences)
    n, m = worker_preferences.shape
    worker_capacities = check_capacities("row_capacities", worker_capacities, n)
    task_capacities = check_capacities("col_capacities", task_capacities, m)

    # Each worker's proposal order: acceptable tasks, best first.
    proposal_order: list[deque[int]] = []
    for i in range(n):
        acceptable = [
            j for j in range(m) if worker_preferences[i, j] > 0
            and task_preferences[i, j] > 0
        ]
        acceptable.sort(key=lambda j: -worker_preferences[i, j])
        proposal_order.append(deque(acceptable))

    held_by_task: list[list[int]] = [[] for _ in range(m)]
    held_by_worker: list[set[int]] = [set() for _ in range(n)]
    # Workers with spare capacity and proposals left.
    free = deque(
        i for i in range(n) if worker_capacities[i] > 0 and proposal_order[i]
    )

    proposal_rounds = 0
    proposals = 0
    displacements = 0
    while free:
        i = free.popleft()
        proposal_rounds += 1
        while (
            len(held_by_worker[i]) < worker_capacities[i]
            and proposal_order[i]
        ):
            j = proposal_order[i].popleft()
            proposals += 1
            capacity = task_capacities[j]
            if capacity <= 0:
                continue
            if len(held_by_task[j]) < capacity:
                held_by_task[j].append(i)
                held_by_worker[i].add(j)
            else:
                worst = min(
                    held_by_task[j], key=lambda w: task_preferences[w, j]
                )
                if task_preferences[i, j] > task_preferences[worst, j]:
                    held_by_task[j].remove(worst)
                    held_by_worker[worst].discard(j)
                    held_by_task[j].append(i)
                    held_by_worker[i].add(j)
                    displacements += 1
                    if proposal_order[worst]:
                        free.append(worst)
        # A displaced worker re-enters via the free queue above.
    obs.count("stable.proposal_rounds", proposal_rounds)
    obs.count("stable.proposals", proposals)
    obs.count("stable.displacements", displacements)

    return sorted(
        (i, j) for j in range(m) for i in held_by_task[j]
    )


def blocking_pairs(
    edges: list[tuple[int, int]],
    worker_preferences: np.ndarray,
    task_preferences: np.ndarray,
    worker_capacities: np.ndarray,
    task_capacities: np.ndarray,
) -> list[tuple[int, int]]:
    """All blocking pairs of a matching under the induced preferences.

    A mutually-acceptable pair (i, j) ∉ M blocks M when *both* sides
    would deviate: worker ``i`` has spare capacity or holds a task
    worse than ``j``, and task ``j`` has a spare slot or holds a worker
    worse than ``i``.  Fewer blocking pairs = more "mutually
    agreeable" in the matching-theory sense; F19 reports the count.
    """
    check_same_shape(
        "preference matrices", worker_preferences, task_preferences
    )
    worker_preferences = check_weights(worker_preferences)
    task_preferences = check_weights(task_preferences)
    n, m = worker_preferences.shape
    worker_capacities = check_capacities("row_capacities", worker_capacities, n)
    task_capacities = check_capacities("col_capacities", task_capacities, m)
    edge_set = set(edges)
    held_by_worker: dict[int, list[int]] = {}
    held_by_task: dict[int, list[int]] = {}
    for i, j in edges:
        held_by_worker.setdefault(i, []).append(j)
        held_by_task.setdefault(j, []).append(i)

    blockers: list[tuple[int, int]] = []
    for i in range(n):
        for j in range(m):
            if (i, j) in edge_set:
                continue
            if worker_preferences[i, j] <= 0 or task_preferences[i, j] <= 0:
                continue
            worker_holdings = held_by_worker.get(i, [])
            worker_wants = len(worker_holdings) < worker_capacities[i] or any(
                worker_preferences[i, held] < worker_preferences[i, j]
                for held in worker_holdings
            )
            if not worker_wants:
                continue
            task_holdings = held_by_task.get(j, [])
            task_wants = len(task_holdings) < task_capacities[j] or any(
                task_preferences[held, j] < task_preferences[i, j]
                for held in task_holdings
            )
            if task_wants:
                blockers.append((i, j))
    return blockers
