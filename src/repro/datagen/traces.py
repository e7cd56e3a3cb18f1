"""Trace-shaped market generators (the real-data substitutes).

The paper evaluated on real labor-market traces; those are proprietary.
These two generators produce markets whose aggregate statistics match
what is publicly documented about the two market archetypes.  The
algorithms only ever see benefit matrices and arrival orders, so
matching the distributional shape exercises the same code paths.

**AMT-like (micro-task)** — many cheap tasks, modest worker pool, high
capacities, high replication, worker accuracy mostly 0.6–0.95 with the
documented long tail of low-quality workers, Zipf-popular categories.

**Upwork-like (freelance)** — fewer, expensive tasks, replication 1
(one freelancer per job), low worker capacity (1–2 concurrent jobs),
strongly specialized skills (high in 1–2 categories, low elsewhere),
log-normal budgets with a heavy tail, meaningful reservation wages.
"""

from __future__ import annotations

import numpy as np

from repro.market.categories import CategoryTaxonomy
from repro.market.market import LaborMarket
from repro.market.requester import Requester
from repro.utils.rng import SeedLike, as_rng


def amt_like_market(
    n_workers: int = 200, n_tasks: int = 100, seed: SeedLike = None
) -> LaborMarket:
    """Micro-task platform shape (Mechanical-Turk-like)."""
    rng = as_rng(seed)
    n_categories = 10
    taxonomy = CategoryTaxonomy.default(n_categories)

    # Worker accuracy: beta(6, 2) has mean ~0.75 and the documented tail
    # of sub-0.5 spammy workers (~3 %); skills correlate across
    # categories through a per-worker base plus small category jitter.
    base = rng.beta(6.0, 2.0, n_workers)
    jitter = rng.normal(0.0, 0.05, (n_workers, n_categories))
    skills = np.clip(base[:, np.newaxis] + jitter, 0.0, 1.0)
    interests = rng.uniform(0.0, 1.0, (n_workers, n_categories))
    # Activity is heavy-tailed: most workers do a handful of HITs, a few
    # do hundreds. Capacity = 1 + Pareto-ish draw, capped.
    capacity = 1 + np.minimum(
        rng.pareto(1.2, n_workers).astype(int), 9
    )

    # Categories Zipf-popular; payments are cents-scale; replication is
    # 3 or 5 (answer aggregation is the point of micro-tasks).
    ranks = np.arange(1, n_categories + 1, dtype=float)
    weights = ranks ** -1.2
    weights /= weights.sum()
    categories = rng.choice(n_categories, size=n_tasks, p=weights)
    payments = np.round(rng.lognormal(np.log(0.08), 0.6, n_tasks), 3)
    payments = np.maximum(payments, 0.01)
    difficulties = rng.beta(2.0, 4.0, n_tasks)  # mostly easy, some hard
    replication = rng.choice([3, 5], size=n_tasks, p=[0.7, 0.3])
    requester_ids = rng.integers(0, max(n_tasks // 20, 1), n_tasks)
    return LaborMarket.from_arrays(
        taxonomy,
        skills=skills,
        interests=interests,
        capacities=capacity,
        reservation_wages=0.02,
        categories=categories,
        difficulties=difficulties,
        payments=payments,
        replications=replication,
        requester_ids=requester_ids,
        efforts=0.2,
        requesters=_requesters(requester_ids),
    )


def upwork_like_market(
    n_workers: int = 150, n_tasks: int = 60, seed: SeedLike = None
) -> LaborMarket:
    """Freelance marketplace shape (Upwork/oDesk-like)."""
    rng = as_rng(seed)
    n_categories = 8
    taxonomy = CategoryTaxonomy.default(n_categories)

    # Freelancers are specialists: 1–2 strong categories, weak elsewhere.
    skills = rng.uniform(0.35, 0.55, (n_workers, n_categories))
    for i in range(n_workers):
        n_special = int(rng.integers(1, 3))
        special = rng.choice(n_categories, size=n_special, replace=False)
        skills[i, special] = rng.uniform(0.75, 0.98, n_special)
    interests = np.clip(
        skills + rng.normal(0.0, 0.15, skills.shape), 0.0, 1.0
    )
    capacity = rng.choice([1, 2], size=n_workers, p=[0.7, 0.3])
    # Hourly-rate-like reservation wages, log-normal.
    reservations = rng.lognormal(np.log(3.0), 0.5, n_workers)

    categories = rng.integers(0, n_categories, n_tasks)
    payments = rng.lognormal(np.log(8.0), 0.8, n_tasks)  # heavy tail
    difficulties = rng.beta(3.0, 3.0, n_tasks)  # centered, varied
    requester_ids = rng.integers(0, max(n_tasks // 4, 1), n_tasks)
    return LaborMarket.from_arrays(
        taxonomy,
        skills=skills,
        interests=interests,
        capacities=capacity,
        reservation_wages=reservations,
        categories=categories,
        difficulties=difficulties,
        payments=payments,
        replications=1,  # one freelancer per job
        requester_ids=requester_ids,
        efforts=2.0,
        requesters=_requesters(requester_ids),
    )


def _requesters(requester_ids: np.ndarray) -> list[Requester]:
    """One requester per id up to the largest drawn."""
    return [
        Requester(requester_id=r) for r in range(int(requester_ids.max()) + 1)
    ]


def workload_registry():
    """Name -> generator for the four Table-1 workloads."""
    from repro.datagen.synthetic import uniform_market, zipf_market

    return {
        "synthetic-uniform": uniform_market,
        "synthetic-zipf": zipf_market,
        "amt-like": amt_like_market,
        "upwork-like": upwork_like_market,
    }
