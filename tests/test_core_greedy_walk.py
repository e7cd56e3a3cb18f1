"""Edges of the greedy-family solvers, pinned in the order they are taken.

``greedy``, ``pruned-greedy`` and ``random`` all walk candidate edges in
an order and take an edge while both its ends have capacity.  The
digests below were recorded when each solver wrote that walk itself
(greedy through a lazy heap for every objective, random by shuffling a
list of tuples); they pin the order of the taken edges, not only the
set, and for ``random`` the generator's final state.
"""

import hashlib

import numpy as np
import pytest

from repro.benefit.matrices import BenefitMatrices
from repro.benefit.mutual import (
    EgalitarianCombiner,
    LinearCombiner,
    NashCombiner,
)
from repro.core.objective import CoverageObjective
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.datagen.traces import workload_registry


def _block(weights, worker_caps, task_caps):
    """A problem whose combined benefit is exactly ``weights``."""
    weights = np.asarray(weights, dtype=float)
    benefits = BenefitMatrices(weights, weights, weights, LinearCombiner(0.5))
    return MBAProblem.from_benefits(benefits, worker_caps, task_caps)


def _tied_blocks(count=120, seed=26):
    """Quarter-step weights (many ties, zeros and negatives) with
    capacities 0-2, so rows and columns of zero capacity are common."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = (int(size) for size in rng.integers(1, 13, size=2))
        weights = rng.integers(-4, 9, size=(n, m)) / 4.0
        yield _block(
            weights, rng.integers(0, 3, size=n), rng.integers(0, 3, size=m)
        )


def _markets(combiner=LinearCombiner(0.5), n_workers=40, n_tasks=25):
    for _name, make in sorted(workload_registry().items()):
        for market_seed in range(2):
            market = make(n_workers=n_workers, n_tasks=n_tasks, seed=market_seed)
            yield MBAProblem(market, combiner=combiner)


def _problems():
    yield from _tied_blocks()
    yield from _markets()


def _taken(solver, problem, seed=None):
    """The edges ``solver`` takes, in the order it takes them (an
    :class:`Assignment` keeps them sorted)."""
    taken = []
    finish = solver._finish

    def record(problem, edges):
        taken.extend(edges)
        return finish(problem, edges)

    solver._finish = record
    solver.solve(problem, seed=seed)
    return taken


def _digest(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode())
    return digest.hexdigest()


def _greedy_parts():
    for problem in _problems():
        for min_gain in (0.0, 0.5, -0.5):
            solver = get_solver("greedy", min_gain=min_gain)
            yield min_gain, _taken(solver, problem)


def _pruned_parts():
    for problem in _problems():
        for k in (1, 2, 5):
            yield k, _taken(get_solver("pruned-greedy", k=k), problem)


def _random_parts():
    for problem in _problems():
        for seed in range(3):
            rng = np.random.default_rng(seed)
            edges = _taken(get_solver("random"), problem, seed=rng)
            yield seed, edges, rng.bit_generator.state


def _heap_parts():
    """Objectives that do not decompose over edges keep the lazy heap."""
    for problem in _markets(n_workers=16, n_tasks=10):
        solver = get_solver(
            "greedy", objective_factory=lambda p: CoverageObjective(p, 0.5)
        )
        yield "coverage", _taken(solver, problem)
    for combiner in (NashCombiner(), EgalitarianCombiner()):
        for problem in _markets(combiner, n_workers=16, n_tasks=10):
            yield type(combiner).__name__, _taken(get_solver("greedy"), problem)


class TestPinnedEdges:
    PINNED = {
        "greedy": (
            "c104dd97f141e1086fbf21ee725944440ac6606289486391bdb0308f2bb08d18"
        ),
        "pruned-greedy": (
            "fba9f1347301eb50413c408f302987ab591900e24389d49e5b4c25cd31418e30"
        ),
        "random": (
            "04549daa8e84a41ec9ecd4908435aac5ac572430db452324cdeb039e8c7a7aea"
        ),
        "heap": (
            "6066ffda664215a7ee6b68bda082d86febad4d49082eeff06317aaa7eed00fc5"
        ),
    }

    PARTS = {
        "greedy": _greedy_parts,
        "pruned-greedy": _pruned_parts,
        "random": _random_parts,
        "heap": _heap_parts,
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_edges_match_the_pinned_digest(self, name):
        assert _digest(self.PARTS[name]()) == self.PINNED[name]


class TestConstrainedGreedy:
    def test_no_constraints_takes_greedys_edges_on_ties(self):
        """With no constraints the solver is plain greedy: it took the
        highest ``(i, j)`` among tied edges, and greedy the lowest."""
        for problem in _tied_blocks(count=200, seed=7):
            assert _taken(
                get_solver("constrained-greedy", constraints=[]), problem
            ) == _taken(get_solver("greedy"), problem)
