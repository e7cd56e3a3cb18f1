"""A residual flow network for min-cost max-flow.

Edges are stored in a flat arc list where arc ``e`` and its residual
twin ``e ^ 1`` are adjacent — the standard trick that makes pushing
flow O(1) without hash lookups.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.utils.validation import check_nonnegative


class FlowNetwork:
    """Directed graph with capacities and costs, supporting residuals.

    Node ids are dense integers ``0 .. n-1``.  Every :meth:`add_edge`
    creates the forward arc and its zero-capacity reverse twin.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 0:
            raise ValidationError(f"n_nodes must be >= 0, got {n_nodes}")
        self.n_nodes = n_nodes
        #: adjacency: node -> list of arc indices leaving it
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]
        self.to: list[int] = []
        self.cap: list[float] = []
        self.cost: list[float] = []

    def add_node(self) -> int:
        """Append a node; returns its id."""
        self.adj.append([])
        self.n_nodes += 1
        return self.n_nodes - 1

    def add_edge(self, u: int, v: int, capacity: float, cost: float = 0.0) -> int:
        """Add arc ``u -> v``; returns the forward arc index.

        The reverse residual arc is ``index ^ 1``.
        """
        self._check_node(u)
        self._check_node(v)
        check_nonnegative("capacity", capacity)
        index = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((capacity, 0.0))
        self.cost.extend((cost, -cost))
        self.adj[u].append(index)
        self.adj[v].append(index + 1)
        return index

    def push(self, arc: int, amount: float) -> None:
        """Move ``amount`` units along ``arc``, updating the residual."""
        if amount > self.cap[arc] + 1e-12:
            raise ValidationError(
                f"cannot push {amount} along arc {arc} with residual "
                f"capacity {self.cap[arc]}"
            )
        self.cap[arc] -= amount
        self.cap[arc ^ 1] += amount

    def flow_on(self, arc: int) -> float:
        """Flow currently on a forward arc (its twin's residual capacity)."""
        return self.cap[arc ^ 1]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ValidationError(
                f"node {node} outside [0, {self.n_nodes})"
            )

    def __repr__(self) -> str:
        return f"FlowNetwork(nodes={self.n_nodes}, arcs={len(self.to) // 2})"
