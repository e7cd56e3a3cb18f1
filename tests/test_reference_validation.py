"""Cross-validation against scipy and networkx reference implementations.

The library itself depends only on numpy; scipy/networkx are test-only
dependencies used here as independent oracles for the from-scratch
substrate:

* Hungarian vs ``scipy.optimize.linear_sum_assignment``;
* the ε-scaling auction vs ``linear_sum_assignment(maximize=True)``,
  within the auction's ε-complementary-slackness bound;
* min-cost flow vs ``networkx.max_flow_min_cost``;
* Hopcroft–Karp vs ``networkx.algorithms.bipartite.maximum_matching``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

scipy_optimize = pytest.importorskip("scipy.optimize")
networkx = pytest.importorskip("networkx")

from repro.matching.auction import auction_assignment  # noqa: E402
from repro.matching.graph import FlowNetwork  # noqa: E402
from repro.matching.hopcroft_karp import hopcroft_karp  # noqa: E402
from repro.matching.hungarian import hungarian  # noqa: E402
from repro.matching.mincost_flow import min_cost_flow  # noqa: E402


class TestHungarianVsScipy:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 100_000))
    def test_optimal_values_agree(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        m = int(rng.integers(n, 10))
        cost = rng.uniform(-10, 10, (n, m))
        _ours_assignment, ours_total = hungarian(cost)
        rows, cols = scipy_optimize.linear_sum_assignment(cost)
        reference = float(cost[rows, cols].sum())
        assert ours_total == pytest.approx(reference, abs=1e-8)

    def test_large_instance(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(0, 100, (60, 60))
        _a, ours = hungarian(cost)
        rows, cols = scipy_optimize.linear_sum_assignment(cost)
        assert ours == pytest.approx(float(cost[rows, cols].sum()))


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


class TestHopcroftKarpVsNetworkx:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matching_sizes_agree(self, seed):
        rng = np.random.default_rng(seed)
        n_left = int(rng.integers(1, 8))
        n_right = int(rng.integers(1, 8))
        adjacency = []
        graph = networkx.Graph()
        graph.add_nodes_from((f"l{u}" for u in range(n_left)), bipartite=0)
        graph.add_nodes_from((f"r{v}" for v in range(n_right)), bipartite=1)
        for u in range(n_left):
            neighbors = sorted(
                int(v) for v in np.nonzero(rng.random(n_right) < 0.4)[0]
            )
            adjacency.append(neighbors)
            for v in neighbors:
                graph.add_edge(f"l{u}", f"r{v}")
        ours_size, _l, _r = hopcroft_karp(n_left, n_right, adjacency)
        top = {f"l{u}" for u in range(n_left)}
        reference = networkx.algorithms.bipartite.maximum_matching(
            graph, top_nodes=top
        )
        assert ours_size == len(reference) // 2
