"""The worker side of the bipartite labor market."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.market.checks import check_worker_fields


def accuracy(skill, difficulty):
    """Probability of answering a task correctly, elementwise.

    Difficulty ``d`` scales the distance of a skill above random
    guessing: 0 leaves skill untouched, 1 reduces everyone to a coin
    flip.  The answer simulator and the benefit models all read this
    one formula, so quality estimates and simulated outcomes agree.
    """
    return 0.5 + (skill - 0.5) * (1.0 - difficulty)


@dataclass(slots=True)
class Worker:
    """A crowd worker.

    Attributes
    ----------
    worker_id:
        Stable integer identity within a market.
    skills:
        Per-category probability of answering a task of that category
        correctly (before difficulty adjustment); each entry in
        ``[0, 1]``.  Length must equal the market taxonomy size.
    capacity:
        Maximum number of tasks the worker is willing to take in one
        assignment round.
    reservation_wage:
        Minimum payment at which taking a task is worthwhile; tasks
        paying less yield negative worker benefit.
    interests:
        Per-category affinity in ``[0, 1]``; enters the worker-side
        benefit as a non-monetary term (workers prefer tasks they like,
        a key "willingness to participate" ingredient from the
        abstract).
    active:
        Whether the worker currently participates.  The retention model
        flips this to ``False`` when accumulated benefit is too low.
    """

    worker_id: int
    skills: np.ndarray
    capacity: int = 1
    reservation_wage: float = 0.0
    interests: np.ndarray = field(default=None)  # type: ignore[assignment]
    active: bool = True

    def __post_init__(self) -> None:
        self.skills = np.asarray(self.skills, dtype=float)
        if self.skills.ndim != 1 or self.skills.size == 0:
            raise ValidationError(
                f"worker {self.worker_id}: skills must be a non-empty 1-D "
                f"array, got shape {self.skills.shape}"
            )
        if self.interests is None:
            self.interests = np.full_like(self.skills, 0.5)
        else:
            self.interests = np.asarray(self.interests, dtype=float)
        if self.interests.shape != self.skills.shape:
            raise ValidationError(
                f"worker {self.worker_id}: interests shape "
                f"{self.interests.shape} != skills shape {self.skills.shape}"
            )
        check_worker_fields(
            (self.worker_id,),
            self.skills[np.newaxis],
            self.interests[np.newaxis],
            np.asarray([self.capacity]),
            np.asarray([self.reservation_wage], dtype=float),
        )

    @classmethod
    def _unchecked(
        cls,
        worker_id: int,
        skills: np.ndarray,
        capacity: int,
        reservation_wage: float,
        interests: np.ndarray,
    ) -> "Worker":
        """A worker whose fields were already checked as columns by
        :meth:`LaborMarket.from_arrays`; skips ``__post_init__``."""
        worker = object.__new__(cls)
        worker.worker_id = worker_id
        worker.skills = skills
        worker.capacity = capacity
        worker.reservation_wage = reservation_wage
        worker.interests = interests
        worker.active = True
        return worker

    def clone(self, skills: np.ndarray, interests: np.ndarray) -> "Worker":
        """A copy of this worker, ``active`` included, that carries
        ``skills`` and ``interests``: arrays of this worker's shape,
        already checked by the caller, so ``__post_init__`` is skipped."""
        worker = self._unchecked(
            self.worker_id, skills, self.capacity, self.reservation_wage,
            interests,
        )
        worker.active = self.active
        return worker

    def skill_for(self, category: int) -> float:
        """Skill level for one category id."""
        return float(self.skills[category])

    def accuracy_on(self, category: int, difficulty: float) -> float:
        """Probability of answering a task correctly (see :func:`accuracy`)."""
        if not 0.0 <= difficulty <= 1.0:
            raise ValidationError(
                f"difficulty must lie in [0, 1], got {difficulty}"
            )
        return accuracy(self.skill_for(category), difficulty)

    def __repr__(self) -> str:
        return (
            f"Worker(id={self.worker_id}, capacity={self.capacity}, "
            f"mean_skill={self.skills.mean():.3f}, active={self.active})"
        )
