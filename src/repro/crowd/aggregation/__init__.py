"""Answer aggregation: majority, weighted, one-coin Dawid–Skene, GLAD.

Besides the raw aggregation functions, this package owns the
:data:`AGGREGATOR_REGISTRY` — the single source of truth for which
aggregators a :class:`repro.sim.scenario.Scenario` (and a spec file,
see :mod:`repro.spec`) may name.  The simulation engine dispatches
through the registry, and scenario/spec validation derives the legal
name set from it, so adding an aggregator here is the *only* step
needed for it to become simulatable and spec-addressable.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.crowd.aggregation.dawid_skene import DawidSkeneResult, dawid_skene
from repro.crowd.aggregation.glad import GladResult, glad
from repro.crowd.aggregation.majority import majority_vote
from repro.crowd.aggregation.weighted import weighted_majority_vote
from repro.crowd.answer_model import AnswerSet
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class AggregatorSpec:
    """One registry entry: a uniform calling convention per aggregator.

    ``run(answer_set, weights=..., seed=...)`` returns the aggregated
    ``task_index -> label`` dict.  ``needs_weights`` tells the caller
    (the simulation engine) to supply per-worker accuracies; weight-free
    aggregators ignore the argument.
    """

    name: str
    needs_weights: bool
    run: Callable[..., dict[int, int]]
    summary: str = ""


def _run_majority(
    answer_set: AnswerSet,
    weights: dict[int, float] | None = None,
    seed: SeedLike = None,
) -> dict[int, int]:
    return majority_vote(answer_set, seed=seed)


def _run_weighted(
    answer_set: AnswerSet,
    weights: dict[int, float] | None = None,
    seed: SeedLike = None,
) -> dict[int, int]:
    return weighted_majority_vote(answer_set, weights or {}, seed=seed)


def _run_dawid_skene(
    answer_set: AnswerSet,
    weights: dict[int, float] | None = None,
    seed: SeedLike = None,
) -> dict[int, int]:
    return dawid_skene(answer_set).labels


AGGREGATOR_REGISTRY: dict[str, AggregatorSpec] = {
    "majority": AggregatorSpec(
        name="majority",
        needs_weights=False,
        run=_run_majority,
        summary="unweighted plurality vote, fair-coin ties",
    ),
    "weighted": AggregatorSpec(
        name="weighted",
        needs_weights=True,
        run=_run_weighted,
        summary="log-odds weighted vote from per-worker accuracies",
    ),
    "dawid-skene": AggregatorSpec(
        name="dawid-skene",
        needs_weights=False,
        run=_run_dawid_skene,
        summary="one-coin Dawid-Skene EM labels",
    ),
}


def aggregator_names() -> tuple[str, ...]:
    """Sorted legal aggregator names (the scenario/spec domain)."""
    return tuple(sorted(AGGREGATOR_REGISTRY))


def get_aggregator(name: str) -> AggregatorSpec:
    """Look up a registered aggregator by name."""
    try:
        return AGGREGATOR_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown aggregator {name!r}; known: "
            f"{', '.join(aggregator_names())}"
        ) from None


__all__ = [
    "AGGREGATOR_REGISTRY",
    "AggregatorSpec",
    "DawidSkeneResult",
    "GladResult",
    "aggregator_names",
    "dawid_skene",
    "get_aggregator",
    "glad",
    "majority_vote",
    "weighted_majority_vote",
]
