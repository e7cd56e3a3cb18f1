"""Per-entity references for the column-built market generators.

The AMT-like, Upwork-like and synthetic generators used to build one
``Worker(...)`` and one ``Task(...)`` per entity, each checked on its
own, and hand the lists to ``LaborMarket(...)``.  Those builders live on
here, with the same draws in the same order, as the ground truth
``LaborMarket.from_arrays`` is checked against
(``tests/test_market_from_arrays.py``).  Test-only: nothing in
``repro`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.synthetic import (
    SyntheticConfig,
    _draw_categories,
    _draw_skills,
)
from repro.market.categories import CategoryTaxonomy
from repro.market.market import LaborMarket
from repro.market.requester import Requester
from repro.market.task import Task
from repro.market.worker import Worker
from repro.utils.rng import SeedLike, as_rng


def amt_like_market_reference(
    n_workers: int = 200, n_tasks: int = 100, seed: SeedLike = None
) -> LaborMarket:
    rng = as_rng(seed)
    n_categories = 10
    taxonomy = CategoryTaxonomy.default(n_categories)

    base = rng.beta(6.0, 2.0, n_workers)
    jitter = rng.normal(0.0, 0.05, (n_workers, n_categories))
    skills = np.clip(base[:, np.newaxis] + jitter, 0.0, 1.0)
    interests = rng.uniform(0.0, 1.0, (n_workers, n_categories))
    capacity = 1 + np.minimum(
        rng.pareto(1.2, n_workers).astype(int), 9
    )
    workers = [
        Worker(
            worker_id=i,
            skills=skills[i],
            capacity=int(capacity[i]),
            reservation_wage=0.02,
            interests=interests[i],
        )
        for i in range(n_workers)
    ]

    ranks = np.arange(1, n_categories + 1, dtype=float)
    weights = ranks ** -1.2
    weights /= weights.sum()
    categories = rng.choice(n_categories, size=n_tasks, p=weights)
    payments = np.round(rng.lognormal(np.log(0.08), 0.6, n_tasks), 3)
    payments = np.maximum(payments, 0.01)
    difficulties = rng.beta(2.0, 4.0, n_tasks)
    replication = rng.choice([3, 5], size=n_tasks, p=[0.7, 0.3])
    requester_ids = rng.integers(0, max(n_tasks // 20, 1), n_tasks)
    tasks = [
        Task(
            task_id=j,
            category=int(categories[j]),
            difficulty=float(difficulties[j]),
            payment=float(payments[j]),
            replication=int(replication[j]),
            requester_id=int(requester_ids[j]),
            effort=0.2,
        )
        for j in range(n_tasks)
    ]
    requesters = [
        Requester(requester_id=r) for r in range(int(requester_ids.max()) + 1)
    ]
    return LaborMarket(workers, tasks, taxonomy, requesters)


def upwork_like_market_reference(
    n_workers: int = 150, n_tasks: int = 60, seed: SeedLike = None
) -> LaborMarket:
    rng = as_rng(seed)
    n_categories = 8
    taxonomy = CategoryTaxonomy.default(n_categories)

    skills = rng.uniform(0.35, 0.55, (n_workers, n_categories))
    for i in range(n_workers):
        n_special = int(rng.integers(1, 3))
        special = rng.choice(n_categories, size=n_special, replace=False)
        skills[i, special] = rng.uniform(0.75, 0.98, n_special)
    interests = np.clip(
        skills + rng.normal(0.0, 0.15, skills.shape), 0.0, 1.0
    )
    capacity = rng.choice([1, 2], size=n_workers, p=[0.7, 0.3])
    reservations = rng.lognormal(np.log(3.0), 0.5, n_workers)
    workers = [
        Worker(
            worker_id=i,
            skills=skills[i],
            capacity=int(capacity[i]),
            reservation_wage=float(reservations[i]),
            interests=interests[i],
        )
        for i in range(n_workers)
    ]

    categories = rng.integers(0, n_categories, n_tasks)
    payments = rng.lognormal(np.log(8.0), 0.8, n_tasks)
    difficulties = rng.beta(3.0, 3.0, n_tasks)
    requester_ids = rng.integers(0, max(n_tasks // 4, 1), n_tasks)
    tasks = [
        Task(
            task_id=j,
            category=int(categories[j]),
            difficulty=float(difficulties[j]),
            payment=float(payments[j]),
            replication=1,
            requester_id=int(requester_ids[j]),
            effort=2.0,
        )
        for j in range(n_tasks)
    ]
    requesters = [
        Requester(requester_id=r) for r in range(int(requester_ids.max()) + 1)
    ]
    return LaborMarket(workers, tasks, taxonomy, requesters)


def generate_market_reference(
    config: SyntheticConfig, seed: SeedLike = None
) -> LaborMarket:
    rng = as_rng(seed)
    taxonomy = CategoryTaxonomy.default(config.n_categories)

    skills = _draw_skills(config, rng)
    interests = rng.uniform(0.0, 1.0, skills.shape)
    capacities = rng.integers(
        config.capacity_low, config.capacity_high + 1, config.n_workers
    )
    reservation = config.reservation_fraction * config.payment_mean
    workers = [
        Worker(
            worker_id=i,
            skills=skills[i],
            capacity=int(capacities[i]),
            reservation_wage=reservation,
            interests=interests[i],
        )
        for i in range(config.n_workers)
    ]

    categories = _draw_categories(config, rng)
    difficulties = rng.uniform(
        config.difficulty_low, config.difficulty_high, config.n_tasks
    )
    payments = rng.lognormal(
        np.log(config.payment_mean), config.payment_sigma, config.n_tasks
    )
    replications = rng.choice(config.replication_choices, config.n_tasks)
    requester_ids = (
        rng.integers(0, config.n_requesters, config.n_tasks)
        if config.n_requesters > 0
        else np.full(config.n_tasks, -1)
    )
    tasks = [
        Task(
            task_id=j,
            category=int(categories[j]),
            difficulty=float(difficulties[j]),
            payment=float(payments[j]),
            replication=int(replications[j]),
            requester_id=int(requester_ids[j]),
            effort=config.effort,
        )
        for j in range(config.n_tasks)
    ]
    requesters = [
        Requester(requester_id=r) for r in range(config.n_requesters)
    ]
    return LaborMarket(workers, tasks, taxonomy, requesters)


def workload_registry_reference():
    """The per-entity builder behind each name of ``workload_registry()``."""
    return {
        "synthetic-uniform": lambda n_workers, n_tasks, seed: (
            generate_market_reference(
                SyntheticConfig(n_workers=n_workers, n_tasks=n_tasks), seed
            )
        ),
        "synthetic-zipf": lambda n_workers, n_tasks, seed: (
            generate_market_reference(
                SyntheticConfig(
                    n_workers=n_workers,
                    n_tasks=n_tasks,
                    skill_distribution="zipf",
                    category_popularity="zipf",
                ),
                seed,
            )
        ),
        "amt-like": amt_like_market_reference,
        "upwork-like": upwork_like_market_reference,
    }
