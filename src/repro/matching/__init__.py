"""Bipartite matching and flow substrate, implemented from scratch.

This package contains the combinatorial machinery the assignment
solvers are built on:

* :mod:`graph` — a residual flow network;
* :mod:`mincost_flow` — successive-shortest-path min-cost max-flow with
  Johnson potentials on an explicit residual network;
* :mod:`auction` — Bertsekas' ε-scaling auction algorithm (an
  independent optimum for cross-validation), with sequential
  (Gauss-Seidel) and batched (Jacobi) bidding modes;
* :mod:`reference` — scalar-loop reference implementations the
  vectorized hot paths are cross-validated and benchmarked against;
* :mod:`b_matching` — capacitated maximum-weight b-matching: an
  array-native successive-shortest-path kernel (the workhorse behind
  the flow-optimal solver), validated against the explicit-network
  reduction to :mod:`mincost_flow` kept in :mod:`reference`;
* :mod:`greedy` — the greedy walk: take candidate edges in a given
  order while both ends have capacity (greedy, pruned and random
  solvers);
* :mod:`online` — online bipartite matching: two-phase
  sample-and-price, priced by the b-matching kernel (greedy is its
  empty-sample case), and Ranking.
"""

from repro.matching.auction import auction_assignment
from repro.matching.b_matching import max_weight_b_matching
from repro.matching.graph import FlowNetwork
from repro.matching.mincost_flow import MinCostFlowResult, min_cost_flow
from repro.matching.online import (
    online_greedy_matching,
    ranking_matching,
    two_phase_matching,
)
from repro.matching.reference import b_matching_reference

__all__ = [
    "FlowNetwork",
    "MinCostFlowResult",
    "auction_assignment",
    "b_matching_reference",
    "max_weight_b_matching",
    "min_cost_flow",
    "online_greedy_matching",
    "ranking_matching",
    "two_phase_matching",
]
