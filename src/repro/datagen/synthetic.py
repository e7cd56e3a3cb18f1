"""Parametric synthetic market generation.

A :class:`SyntheticConfig` names every distributional knob the
experiments sweep; :func:`generate_market` materializes a seeded
:class:`~repro.market.market.LaborMarket` from it.  The two convenience
constructors, :func:`uniform_market` and :func:`zipf_market`, are the
"synthetic-uniform" and "synthetic-zipf" workloads of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.market.categories import CategoryTaxonomy
from repro.market.market import LaborMarket
from repro.market.requester import Requester
from repro.utils.rng import SeedLike, as_rng


@dataclass(frozen=True)
class SyntheticConfig:
    """All knobs of the synthetic market generator.

    Attributes
    ----------
    n_workers / n_tasks / n_categories:
        Population sizes.
    skill_distribution:
        ``"uniform"`` (skills ~ U[skill_low, skill_high]),
        ``"gaussian"`` (clipped normal around skill_mean/skill_std),
        ``"zipf"`` (a few experts per category, most workers mediocre),
        or ``"bimodal"`` (a trained minority near skill_high, a novice
        majority near skill_low — the two-population shape real
        qualification tests induce).
    skill_low / skill_high / skill_mean / skill_std / zipf_exponent:
        Parameters of the above.
    category_popularity:
        ``"uniform"`` or ``"zipf"`` — how task categories are drawn.
    difficulty_low / difficulty_high:
        Task difficulty range (uniform).
    payment_mean / payment_sigma:
        Log-normal payment parameters (real market payments are
        heavy-tailed).
    capacity_low / capacity_high:
        Worker capacity range (uniform integer, inclusive).
    replication_choices:
        Replication factors tasks draw from (uniformly).
    reservation_fraction:
        Worker reservation wage as a fraction of the mean payment.
    effort:
        Effort units per task (drives the worker-side cost; raising it
        relative to ``payment_mean`` creates tasks that *lose* workers
        money — the regime where ignoring the worker side bites).
    n_requesters:
        Tasks are spread over this many requesters (0 = standalone).
    """

    n_workers: int = 100
    n_tasks: int = 50
    n_categories: int = 10
    skill_distribution: str = "uniform"
    skill_low: float = 0.5
    skill_high: float = 0.95
    skill_mean: float = 0.75
    skill_std: float = 0.12
    zipf_exponent: float = 1.5
    category_popularity: str = "uniform"
    difficulty_low: float = 0.0
    difficulty_high: float = 0.6
    payment_mean: float = 1.0
    payment_sigma: float = 0.35
    capacity_low: int = 1
    capacity_high: int = 3
    replication_choices: tuple[int, ...] = (1, 3, 5)
    reservation_fraction: float = 0.2
    effort: float = 1.0
    n_requesters: int = 5

    def __post_init__(self) -> None:
        if self.n_workers < 1 or self.n_tasks < 1 or self.n_categories < 1:
            raise ConfigurationError(
                "n_workers, n_tasks, n_categories must all be >= 1"
            )
        if self.skill_distribution not in (
            "uniform", "gaussian", "zipf", "bimodal"
        ):
            raise ConfigurationError(
                f"unknown skill_distribution {self.skill_distribution!r}"
            )
        if self.category_popularity not in ("uniform", "zipf"):
            raise ConfigurationError(
                f"unknown category_popularity {self.category_popularity!r}"
            )
        if not 0.0 <= self.skill_low <= self.skill_high <= 1.0:
            raise ConfigurationError(
                "need 0 <= skill_low <= skill_high <= 1"
            )
        if not 0.0 <= self.difficulty_low <= self.difficulty_high <= 1.0:
            raise ConfigurationError(
                "need 0 <= difficulty_low <= difficulty_high <= 1"
            )
        if self.capacity_low < 0 or self.capacity_high < self.capacity_low:
            raise ConfigurationError(
                "need 0 <= capacity_low <= capacity_high"
            )
        if not self.replication_choices or min(self.replication_choices) < 1:
            raise ConfigurationError(
                "replication_choices must be non-empty with entries >= 1"
            )
        if self.effort <= 0:
            raise ConfigurationError("effort must be > 0")

    def scaled(self, n_workers: int, n_tasks: int) -> "SyntheticConfig":
        """Copy with different population sizes (for scalability sweeps)."""
        return replace(self, n_workers=n_workers, n_tasks=n_tasks)


def _draw_skills(
    config: SyntheticConfig, rng: np.random.Generator
) -> np.ndarray:
    shape = (config.n_workers, config.n_categories)
    if config.skill_distribution == "uniform":
        return rng.uniform(config.skill_low, config.skill_high, shape)
    if config.skill_distribution == "gaussian":
        skills = rng.normal(config.skill_mean, config.skill_std, shape)
        return np.clip(skills, 0.0, 1.0)
    if config.skill_distribution == "bimodal":
        # ~30 % trained workers near the ceiling, the rest near the
        # floor; per-worker membership, small per-category jitter.
        trained = rng.random(config.n_workers) < 0.3
        centers = np.where(trained, config.skill_high, config.skill_low)
        skills = centers[:, np.newaxis] + rng.normal(0.0, 0.05, shape)
        return np.clip(skills, 0.0, 1.0)
    # zipf: each worker's base quality is Pareto-tailed above 0.5, so a
    # small elite is near-perfect while the mass sits near the floor.
    base = rng.pareto(config.zipf_exponent, shape)
    normalized = base / (base + 1.0)  # maps [0, inf) -> [0, 1)
    return config.skill_low + (config.skill_high - config.skill_low) * normalized


def _draw_categories(
    config: SyntheticConfig, rng: np.random.Generator
) -> np.ndarray:
    if config.category_popularity == "uniform":
        return rng.integers(0, config.n_categories, config.n_tasks)
    ranks = np.arange(1, config.n_categories + 1, dtype=float)
    weights = ranks ** (-config.zipf_exponent)
    weights /= weights.sum()
    return rng.choice(config.n_categories, size=config.n_tasks, p=weights)


def generate_market(
    config: SyntheticConfig, seed: SeedLike = None
) -> LaborMarket:
    """Materialize a seeded market from a config."""
    rng = as_rng(seed)
    taxonomy = CategoryTaxonomy.default(config.n_categories)

    skills = _draw_skills(config, rng)
    interests = rng.uniform(0.0, 1.0, skills.shape)
    capacities = rng.integers(
        config.capacity_low, config.capacity_high + 1, config.n_workers
    )
    reservation = config.reservation_fraction * config.payment_mean

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
    return LaborMarket.from_arrays(
        taxonomy,
        skills=skills,
        interests=interests,
        capacities=capacities,
        reservation_wages=reservation,
        categories=categories,
        difficulties=difficulties,
        payments=payments,
        replications=replications,
        requester_ids=requester_ids,
        efforts=config.effort,
        requesters=[
            Requester(requester_id=r) for r in range(config.n_requesters)
        ],
    )


def uniform_market(
    n_workers: int = 100, n_tasks: int = 50, seed: SeedLike = None
) -> LaborMarket:
    """The "synthetic-uniform" workload: everything uniform."""
    return generate_market(
        SyntheticConfig(n_workers=n_workers, n_tasks=n_tasks), seed
    )


def zipf_market(
    n_workers: int = 100, n_tasks: int = 50, seed: SeedLike = None
) -> LaborMarket:
    """The "synthetic-zipf" workload: skewed skills and categories."""
    return generate_market(
        SyntheticConfig(
            n_workers=n_workers,
            n_tasks=n_tasks,
            skill_distribution="zipf",
            category_popularity="zipf",
        ),
        seed,
    )
