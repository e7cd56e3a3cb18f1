"""Cross-validation against scipy and networkx reference implementations.

The library itself depends only on numpy; scipy/networkx are test-only
dependencies used here as independent oracles for the from-scratch
substrate:

* the unit-capacity b-matching kernel vs ``linear_sum_assignment``
  on the matrix padded with one zero column per row;
* the ε-scaling auction vs ``linear_sum_assignment(maximize=True)``,
  within the auction's ε-complementary-slackness bound;
* min-cost flow vs ``networkx.max_flow_min_cost``;
* the kernel's unit-weight matching size (``MBAProblem.max_assignable``)
  vs ``networkx.algorithms.bipartite.maximum_matching``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

scipy_optimize = pytest.importorskip("scipy.optimize")
networkx = pytest.importorskip("networkx")

from repro.matching.auction import auction_assignment  # noqa: E402
from repro.matching.b_matching import max_weight_b_matching  # noqa: E402
from repro.matching.graph import FlowNetwork  # noqa: E402
from repro.matching.mincost_flow import min_cost_flow  # noqa: E402


def _assignment_total(weights):
    n, m = weights.shape
    _edges, total = max_weight_b_matching(
        weights, np.ones(n, dtype=int), np.ones(m, dtype=int)
    )
    return total


def _padded_scipy_total(weights):
    padded = np.hstack([weights, np.zeros((weights.shape[0],) * 2)])
    rows, cols = scipy_optimize.linear_sum_assignment(padded, maximize=True)
    return float(padded[rows, cols].sum())


class TestBMatchingVsScipy:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_optimal_values_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 10))
        weights = rng.uniform(-10, 10, (n, m))
        assert _assignment_total(weights) == pytest.approx(
            _padded_scipy_total(weights), abs=1e-8
        )

    def test_large_instance(self):
        rng = np.random.default_rng(7)
        weights = rng.uniform(0, 100, (60, 60))
        rows, cols = scipy_optimize.linear_sum_assignment(
            weights, maximize=True
        )
        assert _assignment_total(weights) == pytest.approx(
            float(weights[rows, cols].sum())
        )


class TestAuctionVsScipy:
    """ε-complementary slackness bounds the auction's shortfall by
    ``n·ε_final``, and ``ε_final = span·1e-9/n + 1e-12`` for a value
    span ``max|w|`` (see ``repro.matching.auction``); the bound gets
    1e-9 of slack for float summation."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from(["gauss-seidel", "jacobi"]))
    def test_within_epsilon_of_optimum(self, seed, mode):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        m = int(rng.integers(n, 10))
        weights = rng.uniform(-10, 10, (n, m))
        assignment, ours = auction_assignment(weights, mode=mode)
        assert sorted(set(assignment)) == sorted(assignment)
        rows, cols = scipy_optimize.linear_sum_assignment(
            weights, maximize=True
        )
        optimum = float(weights[rows, cols].sum())
        span = float(np.abs(weights).max())
        bound = n * (span * 1e-9 / n + 1e-12) + 1e-9
        assert optimum - bound <= ours <= optimum + 1e-9


class TestMinCostFlowVsNetworkx:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 100_000))
    def test_min_cost_of_max_flow_agrees(self, seed):
        """Compare on random bipartite transportation networks.

        Integer capacities and costs so networkx's exact integral
        solution is directly comparable.
        """
        rng = np.random.default_rng(seed)
        n_left = int(rng.integers(1, 5))
        n_right = int(rng.integers(1, 5))
        source, sink = 0, 1 + n_left + n_right
        ours = FlowNetwork(n_left + n_right + 2)
        graph = networkx.DiGraph()
        for u in range(n_left):
            cap = int(rng.integers(1, 4))
            ours.add_edge(source, 1 + u, cap, 0.0)
            graph.add_edge("s", f"l{u}", capacity=cap, weight=0)
        for v in range(n_right):
            cap = int(rng.integers(1, 4))
            ours.add_edge(1 + n_left + v, sink, cap, 0.0)
            graph.add_edge(f"r{v}", "t", capacity=cap, weight=0)
        for u in range(n_left):
            for v in range(n_right):
                if rng.random() < 0.7:
                    cost = int(rng.integers(0, 10))
                    ours.add_edge(1 + u, 1 + n_left + v, 1.0, float(cost))
                    graph.add_edge(
                        f"l{u}", f"r{v}", capacity=1, weight=cost
                    )
        result = min_cost_flow(ours, source, sink)
        if "s" not in graph or "t" not in graph:
            assert result.flow == 0.0
            return
        try:
            flow_dict = networkx.max_flow_min_cost(graph, "s", "t")
        except networkx.NetworkXUnfeasible:
            return
        reference_flow = sum(flow_dict["s"].values())
        reference_cost = networkx.cost_of_flow(graph, flow_dict)
        assert result.flow == pytest.approx(reference_flow)
        assert result.cost == pytest.approx(reference_cost)


class TestMatchingSizeVsNetworkx:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matching_sizes_agree(self, seed):
        rng = np.random.default_rng(seed)
        n_left = int(rng.integers(1, 8))
        n_right = int(rng.integers(1, 8))
        adjacent = rng.random((n_left, n_right)) < 0.4
        graph = networkx.Graph()
        graph.add_nodes_from((f"l{u}" for u in range(n_left)), bipartite=0)
        graph.add_nodes_from((f"r{v}" for v in range(n_right)), bipartite=1)
        for u, v in zip(*np.nonzero(adjacent)):
            graph.add_edge(f"l{u}", f"r{v}")
        edges, _total = max_weight_b_matching(
            adjacent.astype(float),
            np.ones(n_left, dtype=int),
            np.ones(n_right, dtype=int),
        )
        top = {f"l{u}" for u in range(n_left)}
        reference = networkx.algorithms.bipartite.maximum_matching(
            graph, top_nodes=top
        )
        assert len(edges) == len(reference) // 2
