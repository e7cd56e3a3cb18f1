"""Sharded solving: partition the market, solve shards, stitch, refine.

At platform scale the dense worker×task matrix is too large to solve
monolithically every round.  The standard decomposition — and the one
the crowdsourcing-scale literature converges on — exploits the market's
*category* structure: a worker's benefit concentrates on the task
categories they are skilled in, so partitioning workers and tasks by
category yields shards whose internal edges carry almost all of the
achievable value.  Each shard is a self-contained (smaller) MBA problem
solved by any registered base solver, optionally in parallel on the
resilience layer's ``SupervisedPool``; a cross-shard refinement pass
then recovers value stranded on boundary edges (worker in shard A,
task in shard B) via greedy fill + 1-swap local search over the pruned
candidate set.

**Objective-gap guarantee.**  For edge-decomposable objectives the
solver reports a *provable* optimality gap alongside every solve: the
capacity-relaxed dual bound

``UB = min( Σ_i top-c_i positive values of row i,
            Σ_j top-r_j positive values of column j )``

dominates the true optimum (any feasible assignment takes at most
``c_i`` edges per worker and ``r_j`` per task, and an optimum never
keeps a negative edge), so ``gap = (UB - achieved) / UB`` upper-bounds
the real suboptimality.  The gap lands in ``last_report`` and in the
``shard.solve`` span, and the perf harness gates the shard suite on it.

Single-shard plans (``strategy="none"`` or one populated shard) are an
exact passthrough: the base solver's edges verbatim.
"""

from __future__ import annotations

import importlib
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.benefit.matrices import BenefitMatrices
from repro.core.assignment import Assignment
from repro.core.problem import MBAProblem
from repro.core.solvers.base import Solver, get_solver, register_solver
from repro.core.solvers.pruned import top_k_edge_mask
from repro.errors import ValidationError
from repro.utils.rng import SeedLike

#: Base solvers the sharded wrapper may delegate to.  All are
#: deterministic and seed-ignoring, so shard solves are reproducible
#: regardless of process placement; wrappers that themselves manage
#: state or processes (resilient, warm, sharded) are excluded.
SUPPORTED_BASES: tuple[str, ...] = (
    "auction",
    "flow",
    "greedy",
    "local-search",
    "pruned-greedy",
)

_STRATEGIES = ("category", "balanced", "none")


@dataclass(frozen=True)
class ShardPlan:
    """How to partition the market.

    ``strategy="category"`` — one shard per task category, workers
    joining the category they are most skilled in.
    ``strategy="balanced"`` — categories packed into ``n_shards``
    task-count-balanced groups (largest first into the lightest shard).
    ``strategy="none"`` — a single shard: exact passthrough.
    """

    strategy: str = "category"
    n_shards: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValidationError(
                f"unknown shard strategy {self.strategy!r}; "
                f"expected one of {_STRATEGIES}"
            )
        if self.n_shards < 0:
            raise ValidationError(
                f"n_shards must be >= 0, got {self.n_shards}"
            )


@dataclass
class Shard:
    """One partition cell: global worker/task index arrays."""

    worker_indices: np.ndarray
    task_indices: np.ndarray

    @property
    def size(self) -> tuple[int, int]:
        return int(self.worker_indices.size), int(self.task_indices.size)


@dataclass
class ShardReport:
    """Provenance + quality report of one sharded solve."""

    n_shards: int
    shard_sizes: list[tuple[int, int]]
    achieved: float
    upper_bound: float
    gap: float
    refine_gain: float
    parallel: bool
    boundary_candidates: int = 0
    exact_passthrough: bool = False
    extras: dict = field(default_factory=dict)


def plan_shards(problem: MBAProblem, plan: ShardPlan) -> list[Shard]:
    """Partition the problem's workers and tasks per ``plan``.

    Returns non-empty shards only; every worker and task lands in
    exactly one shard (workers with no skill signal join the first
    category — deterministic lowest-index tie-break throughout).
    """
    market = problem.market
    n_workers, n_tasks = problem.n_workers, problem.n_tasks
    if plan.strategy == "none":
        return [
            Shard(
                np.arange(n_workers, dtype=np.int64),
                np.arange(n_tasks, dtype=np.int64),
            )
        ]
    categories = np.fromiter(
        (t.category for t in market.tasks), dtype=np.int64, count=n_tasks
    )
    present = np.unique(categories)
    if plan.strategy == "category":
        groups = [[int(c)] for c in present]
    else:  # balanced k-way over categories
        k = plan.n_shards if plan.n_shards > 0 else max(
            1, int(round(np.sqrt(present.size)))
        )
        k = min(k, present.size)
        counts = np.array(
            [(categories == c).sum() for c in present], dtype=np.int64
        )
        # Largest category first into the currently lightest shard —
        # the classic LPT packing; ties resolve to the lowest shard
        # index for determinism.
        order = np.argsort(-counts, kind="stable")
        groups = [[] for _ in range(k)]
        loads = np.zeros(k, dtype=np.int64)
        for position in order:
            target = int(np.argmin(loads))
            groups[target].append(int(present[position]))
            loads[target] += counts[position]
        groups = [g for g in groups if g]
    if len(groups) <= 1:
        return [
            Shard(
                np.arange(n_workers, dtype=np.int64),
                np.arange(n_tasks, dtype=np.int64),
            )
        ]

    group_of_category = {
        category: g for g, members in enumerate(groups) for category in members
    }
    task_group = np.array(
        [group_of_category[int(c)] for c in categories], dtype=np.int64
    )
    # Worker -> group with the worker's best summed skill; argmax takes
    # the first maximum, i.e. the lowest group index on ties.
    max_category = int(categories.max()) + 1
    skills = np.zeros((n_workers, max_category))
    for i, worker in enumerate(market.workers):
        row = np.asarray(worker.skills, dtype=float)
        width = min(row.size, max_category)
        skills[i, :width] = row[:width]
    affinity = np.column_stack(
        [skills[:, members].sum(axis=1) for members in groups]
    )
    worker_group = np.argmax(affinity, axis=1)

    shards = []
    for g in range(len(groups)):
        workers = np.flatnonzero(worker_group == g).astype(np.int64)
        tasks = np.flatnonzero(task_group == g).astype(np.int64)
        if workers.size and tasks.size:
            shards.append(Shard(workers, tasks))
    if not shards:
        return [
            Shard(
                np.arange(n_workers, dtype=np.int64),
                np.arange(n_tasks, dtype=np.int64),
            )
        ]
    return shards


def _make_shard_problem(problem, shard: Shard) -> MBAProblem:
    """A shard as a block problem: sliced matrices, no sub-market.

    Picklable for pool workers; inactive workers are already zeroed
    out of the sliced capacities.
    """
    rows = shard.worker_indices[:, np.newaxis]
    cols = shard.task_indices[np.newaxis, :]
    benefits = problem.benefits
    sliced = BenefitMatrices(
        requester=benefits.requester[rows, cols],
        worker=benefits.worker[rows, cols],
        combined=benefits.combined[rows, cols],
        combiner=benefits.combiner,
    )
    return MBAProblem.from_benefits(
        sliced,
        problem.worker_capacities()[shard.worker_indices],
        problem.task_capacities()[shard.task_indices],
    )


def _solve_shard_payload(payload: dict) -> list[tuple[int, int]]:
    """Pool task: solve one shard, return *local* edges.

    Module-level and dict-driven so it pickles into
    ``SupervisedPool.run``; also the serial path's unit of work so both
    paths share one code route.
    """
    solver = get_solver(payload["base"], **payload["base_kwargs"])
    assignment = solver.solve(payload["problem"], seed=None)
    return list(assignment.edges)


@register_solver("sharded")
class ShardedSolver(Solver):
    """Partition → per-shard base solve → cross-shard refinement.

    Parameters
    ----------
    base:
        Registered base solver run inside each shard (one of
        :data:`SUPPORTED_BASES`).
    base_kwargs:
        Constructor kwargs for the base solver.
    strategy / n_shards:
        The :class:`ShardPlan` knobs.
    refine / refine_rounds / boundary_k:
        Cross-shard stitching: candidate boundary edges come from the
        problem's memoized top-``boundary_k`` pruning mask; each round
        does a greedy fill of spare capacity then best-effort 1-swaps,
        for at most ``refine_rounds`` rounds (early exit when a round
        gains nothing).
    parallel_workers:
        ``> 1`` solves shards on a ``SupervisedPool`` of that many
        processes; ``0``/``1`` solves serially in-process.  Nested
        pools are refused automatically (shards solve serially inside
        pool workers, e.g. under ``repro sweep``).
    """

    def __init__(
        self,
        base: str = "pruned-greedy",
        base_kwargs: dict | None = None,
        strategy: str = "category",
        n_shards: int = 0,
        refine: bool = True,
        refine_rounds: int = 2,
        boundary_k: int = 10,
        parallel_workers: int = 0,
    ) -> None:
        if base not in SUPPORTED_BASES:
            raise ValidationError(
                f"sharded base must be one of {SUPPORTED_BASES}, "
                f"got {base!r}"
            )
        if refine_rounds < 0:
            raise ValidationError(
                f"refine_rounds must be >= 0, got {refine_rounds}"
            )
        if boundary_k < 1:
            raise ValidationError(
                f"boundary_k must be >= 1, got {boundary_k}"
            )
        if parallel_workers < 0:
            raise ValidationError(
                f"parallel_workers must be >= 0, got {parallel_workers}"
            )
        self.base = base
        self.base_kwargs = dict(base_kwargs or {})
        self.plan = ShardPlan(strategy=strategy, n_shards=n_shards)
        self.refine = refine
        self.refine_rounds = refine_rounds
        self.boundary_k = boundary_k
        self.parallel_workers = parallel_workers
        self.last_report: ShardReport | None = None

    def solve(self, problem: MBAProblem, seed: SeedLike = None) -> Assignment:
        with obs.span("shard.plan", strategy=self.plan.strategy):
            shards = plan_shards(problem, self.plan)
        obs.count("shard.shards", len(shards))

        if len(shards) == 1:
            # Exact passthrough: the base solver sees the whole problem.
            base_solver = get_solver(self.base, **self.base_kwargs)
            with obs.span("shard.solve", shards=1, base=self.base):
                assignment = base_solver.solve(problem, seed)
            achieved = self._achieved(problem, list(assignment.edges))
            upper = self._upper_bound(problem)
            self.last_report = ShardReport(
                n_shards=1,
                shard_sizes=[shards[0].size],
                achieved=achieved,
                upper_bound=upper,
                gap=self._gap(achieved, upper),
                refine_gain=0.0,
                parallel=False,
                exact_passthrough=True,
            )
            return self._finish(problem, list(assignment.edges))

        payloads = [
            {
                "problem": _make_shard_problem(problem, shard),
                "base": self.base,
                "base_kwargs": self.base_kwargs,
            }
            for shard in shards
        ]

        used_parallel = False
        local_edges: dict[int, list[tuple[int, int]]] = {}
        want_parallel = (
            self.parallel_workers > 1
            and len(shards) > 1
            # Never nest process pools: inside a sweep worker the
            # parent already parallelizes over points.
            and multiprocessing.parent_process() is None
        )
        with obs.span(
            "shard.solve",
            shards=len(shards),
            base=self.base,
            parallel=want_parallel,
        ):
            if want_parallel:
                runtime = importlib.import_module(
                    "repro.resilience.runtime"
                )
                pool = runtime.SupervisedPool(
                    n_workers=min(self.parallel_workers, len(shards))
                )
                results, _stats = pool.run(_solve_shard_payload, payloads)
                local_edges.update(results)
                used_parallel = True
            # Serial path, and the fallback for any shard the pool
            # quarantined: solve in-process.
            for position, payload in enumerate(payloads):
                if position not in local_edges:
                    local_edges[position] = _solve_shard_payload(payload)

        edges: list[tuple[int, int]] = []
        for position, shard in enumerate(shards):
            workers = shard.worker_indices
            tasks = shard.task_indices
            edges.extend(
                (int(workers[i]), int(tasks[j]))
                for i, j in local_edges[position]
            )
        shard_total = self._achieved(problem, edges)

        boundary_candidates = 0
        refine_extras: dict = {}
        if self.refine and self.refine_rounds > 0:
            with obs.span("shard.refine", rounds=self.refine_rounds):
                edges, boundary_candidates, refine_extras = self._refine(
                    problem, edges
                )
            obs.count("shard.boundary_edges", boundary_candidates)
        achieved = self._achieved(problem, edges)
        upper = self._upper_bound(problem)
        self.last_report = ShardReport(
            n_shards=len(shards),
            shard_sizes=[shard.size for shard in shards],
            achieved=achieved,
            upper_bound=upper,
            gap=self._gap(achieved, upper),
            refine_gain=achieved - shard_total,
            parallel=used_parallel,
            boundary_candidates=boundary_candidates,
            extras=refine_extras,
        )
        return self._finish(problem, edges)

    # -- refinement ------------------------------------------------------

    def _refine(
        self, problem, edges: list[tuple[int, int]]
    ) -> tuple[list[tuple[int, int]], int, dict]:
        """Greedy fill + 1-swap stitching over pruned candidates.

        Candidates come from the problem's memoized top-``boundary_k``
        mask (row ∪ column union), which includes exactly the
        cross-shard edges good enough to matter.  Every accepted move
        strictly increases the combined total, so refinement is
        monotone and the objective-gap report can only shrink.
        """
        combined = problem.benefits.combined
        mask = self._candidate_mask(problem)
        caps_w = problem.worker_capacities()
        caps_t = problem.task_capacities()

        chosen = set(edges)
        load_w = np.zeros(problem.n_workers, dtype=np.int64)
        load_t = np.zeros(problem.n_tasks, dtype=np.int64)
        by_worker: dict[int, set[int]] = {}
        by_task: dict[int, set[int]] = {}
        for i, j in chosen:
            load_w[i] += 1
            load_t[j] += 1
            by_worker.setdefault(i, set()).add(j)
            by_task.setdefault(j, set()).add(i)

        rows, cols = np.nonzero(mask & (combined > 0))
        boundary_candidates = int(rows.size)
        order = np.argsort(-combined[rows, cols], kind="stable")
        # The fill/swap pass can only place about total-capacity many
        # edges, so candidates deep in the sorted tail cannot win;
        # capping them bounds the Python loop at large n.  Generous
        # headroom keeps swap opportunities alive.
        limit = max(4096, 4 * int(min(caps_w.sum(), caps_t.sum())))
        extras: dict = {}
        if order.size > limit:
            order = order[:limit]
            extras["refine_candidate_limit"] = limit
        candidates = [
            (int(rows[position]), int(cols[position]))
            for position in order
        ]

        def weakest_task_for(i: int) -> int:
            held = by_worker.get(i)
            best_j = -1
            best_w = np.inf
            for j2 in held or ():
                w2 = float(combined[i, j2])
                if w2 < best_w:
                    best_w = w2
                    best_j = j2
            return best_j

        def weakest_worker_for(j: int) -> int:
            held = by_task.get(j)
            best_i = -1
            best_w = np.inf
            for i2 in held or ():
                w2 = float(combined[i2, j])
                if w2 < best_w:
                    best_w = w2
                    best_i = i2
            return best_i

        def drop(i: int, j: int) -> None:
            chosen.discard((i, j))
            load_w[i] -= 1
            load_t[j] -= 1
            by_worker[i].discard(j)
            by_task[j].discard(i)

        def add(i: int, j: int) -> None:
            chosen.add((i, j))
            load_w[i] += 1
            load_t[j] += 1
            by_worker.setdefault(i, set()).add(j)
            by_task.setdefault(j, set()).add(i)

        for _round in range(self.refine_rounds):
            improved = False
            for i, j in candidates:
                if (i, j) in chosen:
                    continue
                weight = float(combined[i, j])
                free_w = caps_w[i] - load_w[i] > 0
                free_t = caps_t[j] - load_t[j] > 0
                if free_w and free_t:
                    add(i, j)
                    improved = True
                    continue
                # 1-swap: evict the weakest edge of a saturated
                # endpoint when this candidate strictly beats it and
                # the other endpoint can absorb the move.
                if not free_w and free_t and caps_w[i] > 0:
                    j_weak = weakest_task_for(i)
                    if j_weak >= 0 and weight > float(combined[i, j_weak]):
                        drop(i, j_weak)
                        add(i, j)
                        improved = True
                        continue
                if free_w and not free_t and caps_t[j] > 0:
                    i_weak = weakest_worker_for(j)
                    if i_weak >= 0 and weight > float(combined[i_weak, j]):
                        drop(i_weak, j)
                        add(i, j)
                        improved = True
            if not improved:
                break
        return sorted(chosen), boundary_candidates, extras

    # -- objective-gap accounting ---------------------------------------

    @staticmethod
    def _achieved(problem, edges: list[tuple[int, int]]) -> float:
        if not edges:
            return 0.0
        pairs = np.asarray(edges, dtype=np.int64)
        return float(
            problem.benefits.combined[pairs[:, 0], pairs[:, 1]].sum()
        )

    def _candidate_mask(self, problem) -> np.ndarray:
        """The top-``boundary_k`` candidate mask, memoized on the
        problem when it offers the cache."""
        top_k = getattr(problem, "top_k_candidates", None)
        if top_k is not None:
            return top_k(self.boundary_k)
        return top_k_edge_mask(problem.benefits.combined, self.boundary_k)

    def _upper_bound(self, problem) -> float:
        """Capacity-relaxed dual bound on the combined-benefit optimum.

        See the module docstring for the argument that this dominates
        the true optimum of any edge-decomposable objective.

        When every capacity fits within ``boundary_k``, each row's
        (and column's) top-``cap`` entries are contained in the
        memoized candidate mask, so the bound is computed from the
        sparse candidate set — the same value as the dense
        full-matrix reduction up to float summation order, at a
        fraction of the cost.
        """
        combined = problem.benefits.combined
        caps_w = problem.worker_capacities().astype(np.int64)
        caps_t = problem.task_capacities().astype(np.int64)
        k = min(self.boundary_k, *combined.shape) if combined.size else 0
        if (
            combined.size
            and caps_w.max(initial=0) <= k
            and caps_t.max(initial=0) <= k
        ):
            mask = self._candidate_mask(problem)
            rows, cols = np.nonzero(mask)
            vals = combined[rows, cols]
            return min(
                _capacity_bound_sparse(
                    rows, vals, caps_w, problem.n_workers
                ),
                _capacity_bound_sparse(
                    cols, vals, caps_t, problem.n_tasks
                ),
            )
        return min(
            _capacity_bound(combined, caps_w),
            _capacity_bound(combined.T, caps_t),
        )

    @staticmethod
    def _gap(achieved: float, upper: float) -> float:
        if upper <= 0.0:
            return 0.0
        return max(0.0, upper - achieved) / upper


def _capacity_bound(values: np.ndarray, caps: np.ndarray) -> float:
    """Σ_rows (sum of the top ``caps[row]`` positive entries)."""
    n, m = values.shape
    if n == 0 or m == 0 or caps.size == 0:
        return 0.0
    k = int(min(int(caps.max(initial=0)), m))
    if k <= 0:
        return 0.0
    positive = np.maximum(values, 0.0)
    if k < m:
        top = -np.partition(-positive, k - 1, axis=1)[:, :k]
    else:
        top = positive
    top = -np.sort(-top, axis=1)  # descending per row
    prefix = np.cumsum(top, axis=1)
    take = np.minimum(caps, k)
    row_bounds = np.where(
        take > 0, prefix[np.arange(n), np.maximum(take - 1, 0)], 0.0
    )
    return float(row_bounds.sum())


def _capacity_bound_sparse(
    rows: np.ndarray, vals: np.ndarray, caps: np.ndarray, n: int
) -> float:
    """:func:`_capacity_bound` from candidate triplets.

    ``(rows, vals)`` must contain every row's top-``caps[row]``
    positive entries — guaranteed by the top-k candidate mask whenever
    ``caps.max() <= k``, because positive entries always outrank
    non-positive ones in a row's top-k.
    """
    positive = vals > 0.0
    rows = rows[positive]
    vals = vals[positive]
    if rows.size == 0:
        return 0.0
    order = np.lexsort((-vals, rows))
    rows_sorted = rows[order]
    vals_sorted = vals[order]
    row_start = np.searchsorted(rows_sorted, np.arange(n))
    rank = np.arange(rows_sorted.size) - row_start[rows_sorted]
    return float(vals_sorted[rank < caps[rows_sorted]].sum())
