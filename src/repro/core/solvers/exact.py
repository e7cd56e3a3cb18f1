"""Exact branch-and-bound solver for small instances.

Explores edge-inclusion decisions in decreasing-surrogate-gain order.
Pruning combines three ingredients:

* **greedy warm start** — the incumbent starts at the greedy solution,
  so the bound has something to beat from node one;
* **sorted-prefix bound** — candidates are sorted by surrogate gain,
  so the best ``R`` additions available from position ``k`` are exactly
  ``gains[k : k + R]``; for linear objectives the surrogate equals the
  marginal and for the coverage objective the singleton surrogate
  upper-bounds every later marginal (submodularity), so the prefix sum
  is a valid optimistic completion;
* **capacity cap** — ``R`` is capped by the total remaining worker
  capacity and task replication, which the relaxation above would
  otherwise ignore.

Still exponential in the worst case; guarded by an explicit
instance-size limit and a search-node budget (:data:`MAX_NODES`) so
it cannot be misused in a sweep: few candidate edges with large task
capacities can still span a tree too large to search.  Its role is
ground truth: experiment F12 compares greedy/flow output against it,
and tests cross-validate the flow solver on linear instances.

The bound argument requires the surrogate to upper-bound marginal
gains, which holds for :class:`LinearObjective` under a decomposing
combiner and for :class:`CoverageObjective`; pairing this solver with
the egalitarian/Nash combiners is unsupported.
"""

from __future__ import annotations

import numpy as np

from repro.core.assignment import Assignment
from repro.core.objective import LinearObjective, Objective
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, register_solver
from repro.core.solvers.greedy import GreedySolver
from repro.errors import ValidationError
from repro.matching.greedy import ranked_edges
from repro.utils.rng import SeedLike

#: Search nodes one solve may explore before it refuses the instance.
#: F12 reaches at most 203,514 over seeds 0-6 (156,033 at seed 0), the
#: exact-vs-flow cross-validation tests 22,486.
MAX_NODES = 500_000


@register_solver("exact")
class ExactSolver(Solver):
    """Branch-and-bound optimum; refuses instances above ``max_edges``
    candidate edges or :data:`MAX_NODES` search nodes."""

    def __init__(self, objective_factory=None, max_edges: int = 120) -> None:
        self._objective_factory = (
            objective_factory if objective_factory is not None else LinearObjective
        )
        self.max_edges = max_edges

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        objective: Objective = self._objective_factory(problem)
        caps_w = problem.worker_capacities()
        caps_t = problem.task_capacities()
        combined = problem.benefits.combined

        rows, cols = ranked_edges(combined, caps_w, caps_t)
        if rows.size > self.max_edges:
            raise ValidationError(
                f"exact solver limited to {self.max_edges} candidate edges, "
                f"instance has {rows.size}; use 'flow' or 'greedy'"
            )
        candidates = list(zip(rows.tolist(), cols.tolist()))
        gains = combined[rows, cols]
        # prefix[k] = sum of the k largest gains; the best R additions
        # from position k onward are gains[k : k + R] because the list
        # is sorted descending.
        prefix = np.concatenate(([0.0], np.cumsum(gains)))

        # Warm start: greedy gives a strong incumbent for pruning.
        warm = GreedySolver(self._objective_factory).solve(problem, seed)
        best_edges = list(warm.edges)
        best_value = objective.value(best_edges)
        empty_value = objective.value([])
        if empty_value > best_value:
            best_value = empty_value
            best_edges = []

        remaining_w = caps_w.copy()
        remaining_t = caps_t.copy()
        current: list[tuple[int, int]] = []
        n_candidates = len(candidates)
        # Every inclusion takes one worker slot and one task slot.
        total_slots = min(int(caps_w.sum()), int(caps_t.sum()))
        nodes = 0

        def bound_from(k: int) -> float:
            slots = min(total_slots - len(current), n_candidates - k)
            if slots <= 0:
                return 0.0
            return float(prefix[k + slots] - prefix[k])

        def recurse(k: int, current_value: float) -> None:
            nonlocal best_value, best_edges, nodes
            nodes += 1
            if nodes > MAX_NODES:
                raise ValidationError(
                    f"exact solver limited to {MAX_NODES} search nodes, "
                    "instance needs more; use 'flow' or 'greedy'"
                )
            if current_value > best_value + 1e-12:
                best_value = current_value
                best_edges = list(current)
            if k == n_candidates:
                return
            if current_value + bound_from(k) <= best_value + 1e-12:
                return
            i, j = candidates[k]
            # Branch 1: include (i, j) if capacity remains.
            if remaining_w[i] > 0 and remaining_t[j] > 0:
                marginal = objective.marginal(current, (i, j))
                if marginal > 0:
                    current.append((i, j))
                    remaining_w[i] -= 1
                    remaining_t[j] -= 1
                    recurse(k + 1, current_value + marginal)
                    current.pop()
                    remaining_w[i] += 1
                    remaining_t[j] += 1
            # Branch 2: exclude.
            recurse(k + 1, current_value)

        recurse(0, empty_value)
        return self._finish(problem, best_edges)
