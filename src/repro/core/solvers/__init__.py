"""Solver registry for MBA task assignment.

Registered names (use :func:`get_solver`):

========================  ====================================================
``flow``                  exact for additive objectives, via min-cost flow
``greedy``                lazy greedy on any objective (1/2 guarantee on
                          submodular + partition matroid)
``local-search``          greedy followed by swap-based improvement
``exact``                 branch-and-bound optimum, small instances only
``online-greedy``         workers arrive online, greedy per arrival
``online-two-phase``      sample-and-price online algorithm
``auction``               decentralizable ε-scaling auction (exact when a
                          side is unit-capacity)
``online-batch``          micro-batching: per-window optimal assignment
``budgeted-flow``         Lagrangian bisection under a global payment cap
``pruned-greedy``         scalable greedy on top-k pruned candidates
``incremental-flow``      stability-biased flow for cross-round re-solves
``constrained-greedy``    greedy honouring budget/qualification/diversity
                          constraints (see :mod:`repro.core.constraints`)
``stable-matching``       Gale–Shapley deferred acceptance baseline (zero
                          blocking pairs under the induced preferences)
``resilient``             deadline/retry/fallback wrapper around any other
                          solver (lazily loaded from
                          :mod:`repro.resilience`)
``sharded``               partition-by-category solve (optionally on a
                          supervised process pool) with cross-shard
                          refinement and a provable objective-gap report
``warm``                  warm-start wrapper: fingerprint replay,
                          price-warmed auction delta-solves, cold
                          fallback
``quality-only``          baseline: requester side only (λ=1)
``worker-only``           baseline: worker side only (λ=0)
``random``                baseline: random feasible positive edges
``round-robin``           baseline: tasks take turns picking workers
========================  ====================================================
"""

from repro.core.solvers.auction_solver import AuctionSolver
from repro.core.solvers.base import (
    LAZY_SOLVER_MODULES,
    SOLVER_REGISTRY,
    Solver,
    accepted_solver_kwargs,
    get_solver,
    list_solvers,
    register_solver,
    solver_signature,
    validate_solver_kwargs,
)
from repro.core.solvers.batched import OnlineBatchSolver
from repro.core.solvers.budgeted import BudgetedFlowSolver
from repro.core.solvers.baselines import (
    QualityOnlySolver,
    RandomSolver,
    RoundRobinSolver,
    WorkerOnlySolver,
)
from repro.core.solvers.exact import ExactSolver
from repro.core.solvers.flow import FlowSolver
from repro.core.solvers.greedy import GreedySolver
from repro.core.solvers.incremental import IncrementalFlowSolver
from repro.core.solvers.local_search import LocalSearchSolver
from repro.core.solvers.online import OnlineGreedySolver, OnlineTwoPhaseSolver
from repro.core.solvers.pruned import PrunedGreedySolver
from repro.core.solvers.sharded import (
    Shard,
    ShardPlan,
    ShardReport,
    ShardedSolver,
    plan_shards,
)
from repro.core.solvers.stable import StableMatchingSolver
from repro.core.solvers.state import (
    WarmState,
    edge_ids,
    problem_fingerprint,
    retention_overlap,
)
from repro.core.solvers.warm import WarmStartSolver

__all__ = [
    "AuctionSolver",
    "BudgetedFlowSolver",
    "LAZY_SOLVER_MODULES",
    "ExactSolver",
    "FlowSolver",
    "GreedySolver",
    "IncrementalFlowSolver",
    "LocalSearchSolver",
    "OnlineBatchSolver",
    "OnlineGreedySolver",
    "OnlineTwoPhaseSolver",
    "PrunedGreedySolver",
    "QualityOnlySolver",
    "RandomSolver",
    "RoundRobinSolver",
    "SOLVER_REGISTRY",
    "Shard",
    "ShardPlan",
    "ShardReport",
    "ShardedSolver",
    "Solver",
    "StableMatchingSolver",
    "WarmState",
    "WarmStartSolver",
    "WorkerOnlySolver",
    "edge_ids",
    "plan_shards",
    "problem_fingerprint",
    "retention_overlap",
    "accepted_solver_kwargs",
    "get_solver",
    "list_solvers",
    "register_solver",
    "solver_signature",
    "validate_solver_kwargs",
]
