"""Micro-benchmarks of the matching substrate.

Not tied to a paper figure: these time the from-scratch combinatorial
kernels (auction, b-matching, deferred acceptance) on fixed random
instances so substrate regressions show up in CI the same way
experiment regressions do.
"""

import numpy as np
import pytest

from repro.matching.auction import auction_assignment
from repro.matching.b_matching import max_weight_b_matching
from repro.matching.stable import deferred_acceptance

SIZE = 80


@pytest.fixture(scope="module")
def square_weights():
    rng = np.random.default_rng(0)
    return rng.uniform(0.0, 10.0, (SIZE, SIZE))


def test_bench_auction(benchmark, square_weights):
    assignment, total = benchmark(auction_assignment, square_weights)
    assert len(assignment) == SIZE


def test_bench_b_matching(benchmark, square_weights):
    caps = np.full(SIZE, 2, dtype=int)
    edges, _total = benchmark(
        max_weight_b_matching, square_weights, caps, caps
    )
    assert edges


def test_bench_deferred_acceptance(benchmark):
    rng = np.random.default_rng(2)
    worker_prefs = rng.uniform(0.1, 5.0, (SIZE, SIZE))
    task_prefs = rng.uniform(0.1, 5.0, (SIZE, SIZE))
    caps = np.full(SIZE, 2, dtype=int)
    edges = benchmark(
        deferred_acceptance, worker_prefs, task_prefs, caps, caps
    )
    assert edges
