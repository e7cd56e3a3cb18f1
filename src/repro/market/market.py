"""The :class:`LaborMarket` container: workers + tasks + taxonomy.

The market is the single object every other subsystem consumes.  It
enforces the global consistency rules (skill vectors match the
taxonomy, ids are dense, categories exist) once, so downstream code can
index arrays without re-checking.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.market.categories import CategoryTaxonomy
from repro.market.checks import (
    check_categories,
    check_requesters,
    check_skills,
    check_task_fields,
    check_worker_fields,
    column,
)
from repro.market.requester import Requester
from repro.market.task import Task
from repro.market.worker import Worker, accuracy
from repro.utils.validation import (
    check_integers, check_shape, check_unique_ids, reject_first,
)


def _python_scalars(values: np.ndarray) -> list:
    """A column's entries as Python numbers; a broadcast scalar (stride
    0) becomes one object shared by every entry."""
    if values.strides == (0,) and values.size:
        return [values[0].item()] * values.size
    return values.tolist()


class LaborMarket:
    """A snapshot of a bipartite labor market.

    Workers and tasks are stored in insertion order; their position in
    the list is their *index*, used by all matrix-valued computations.
    ``worker_id`` / ``task_id`` are free-form identities preserved for
    reporting (in generated markets they equal the index).
    """

    def __init__(
        self,
        workers: Sequence[Worker],
        tasks: Sequence[Task],
        taxonomy: CategoryTaxonomy,
        requesters: Sequence[Requester] | None = None,
    ) -> None:
        self.workers = list(workers)
        self.tasks = list(tasks)
        self.taxonomy = taxonomy
        self.requesters = list(requesters) if requesters is not None else []
        self._validate()
        self._index_requester_tasks()

    @classmethod
    def from_arrays(
        cls,
        taxonomy: CategoryTaxonomy,
        *,
        skills: np.ndarray,
        interests: np.ndarray,
        capacities: np.ndarray | int,
        reservation_wages: np.ndarray | float,
        categories: np.ndarray,
        difficulties: np.ndarray | float,
        payments: np.ndarray | float,
        replications: np.ndarray | int,
        requester_ids: np.ndarray | int,
        efforts: np.ndarray | float,
        requesters: Sequence[Requester],
    ) -> "LaborMarket":
        """A market built column-wise: worker ``i`` is row ``i`` of
        ``skills``/``interests`` and entry ``i`` of ``capacities`` and
        ``reservation_wages``, task ``j`` is entry ``j`` of
        ``categories`` and the other task columns, and ids are
        positions.  A column other than the matrices and ``categories``
        may be one scalar shared by every entity.

        Every column is checked once, as a whole, by the same checks
        :class:`Worker` and :class:`Task` run on one row, and so raises
        the same errors; the entities are then built without checking
        each again.  Ids are dense by construction, so the per-entity
        loop of the list constructor is skipped too.  Scalar fields are
        Python numbers (a shared scalar is one object, as a literal
        argument to the entity constructors would be);
        ``skills[i]``/``interests[i]`` are row views of the given
        matrices, not copies.
        """
        n_cat = len(taxonomy)
        skills = np.asarray(skills, dtype=float)
        interests = np.asarray(interests, dtype=float)
        n_workers = len(skills) if skills.ndim else 0
        check_shape("skill matrix", skills, (n_workers, n_cat))
        check_shape("interest matrix", interests, (n_workers, n_cat))
        categories = np.asarray(categories)
        if categories.ndim != 1:
            raise ValidationError(
                f"categories must be 1-D, got shape {categories.shape}"
            )
        n_tasks = len(categories)
        categories = column("categories", categories, n_tasks, integer=True)
        capacities = column("capacities", capacities, n_workers, integer=True)
        reservation_wages = column(
            "reservation_wages", reservation_wages, n_workers
        )
        difficulties = column("difficulties", difficulties, n_tasks)
        payments = column("payments", payments, n_tasks)
        replications = column(
            "replications", replications, n_tasks, integer=True
        )
        requester_ids = column(
            "requester_ids", requester_ids, n_tasks, integer=True
        )
        efforts = column("efforts", efforts, n_tasks)

        worker_ids, task_ids = range(n_workers), range(n_tasks)
        check_worker_fields(
            worker_ids, skills, interests, capacities, reservation_wages
        )
        check_task_fields(
            task_ids, categories, difficulties, payments, replications, efforts
        )
        check_integers(requester_ids=requester_ids)
        check_categories(task_ids, categories, n_cat)
        requesters = list(requesters)
        check_requesters(
            task_ids, requester_ids, [r.requester_id for r in requesters]
        )

        market = cls.__new__(cls)
        market.workers = list(
            map(
                Worker._unchecked,
                worker_ids,
                skills,
                _python_scalars(capacities),
                _python_scalars(reservation_wages),
                interests,
            )
        )
        task_fields = (
            categories, difficulties, payments, replications, requester_ids,
            efforts,
        )
        market.tasks = list(
            map(Task._unchecked, task_ids, *map(_python_scalars, task_fields))
        )
        market.taxonomy = taxonomy
        market.requesters = requesters
        market._index_requester_tasks()
        return market

    # -- construction helpers -------------------------------------------------

    def _validate(self) -> None:
        n_cat = len(self.taxonomy)
        worker_ids = [worker.worker_id for worker in self.workers]
        sizes = np.array([worker.skills.size for worker in self.workers])
        reject_first(
            "worker", worker_ids, sizes != n_cat,
            f"skill vector has {{}} entries but taxonomy has {n_cat}", sizes,
        )
        check_unique_ids("worker", worker_ids)
        task_ids = [task.task_id for task in self.tasks]
        check_unique_ids("task", task_ids)
        check_categories(
            task_ids,
            np.array([task.category for task in self.tasks], dtype=int),
            n_cat,
        )
        check_requesters(
            task_ids,
            np.array([task.requester_id for task in self.tasks], dtype=int),
            [r.requester_id for r in self.requesters],
        )

    def _index_requester_tasks(self) -> None:
        by_id = {r.requester_id: r for r in self.requesters}
        for requester in self.requesters:
            requester.task_ids = []
        for task in self.tasks:
            owner = by_id.get(task.requester_id)
            if owner is not None:
                owner.task_ids.append(task.task_id)

    # -- sizes & lookups ------------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def active_worker_indices(self) -> list[int]:
        """Indices of workers currently willing to participate."""
        return [i for i, w in enumerate(self.workers) if w.active]

    def worker_by_id(self, worker_id: int) -> Worker:
        for worker in self.workers:
            if worker.worker_id == worker_id:
                return worker
        raise ValidationError(f"no worker with id {worker_id}")

    def task_by_id(self, task_id: int) -> Task:
        for task in self.tasks:
            if task.task_id == task_id:
                return task
        raise ValidationError(f"no task with id {task_id}")

    # -- vectorized views -----------------------------------------------------

    def skill_matrix(self) -> np.ndarray:
        """``(n_workers, n_categories)`` matrix of skills."""
        if not self.workers:
            return np.zeros((0, len(self.taxonomy)))
        return np.stack([w.skills for w in self.workers])

    def interest_matrix(self) -> np.ndarray:
        """``(n_workers, n_categories)`` matrix of interests."""
        if not self.workers:
            return np.zeros((0, len(self.taxonomy)))
        return np.stack([w.interests for w in self.workers])

    def pair_skills(self) -> np.ndarray:
        """``(n_workers, n_tasks)`` skill of each worker in each task's category."""
        return self.skill_matrix()[:, self.task_categories()]

    def pair_interests(self) -> np.ndarray:
        """``(n_workers, n_tasks)`` interest of each worker in each task's category."""
        return self.interest_matrix()[:, self.task_categories()]

    def task_categories(self) -> np.ndarray:
        """``(n_tasks,)`` vector of category ids."""
        return np.array([t.category for t in self.tasks], dtype=int)

    def task_difficulties(self) -> np.ndarray:
        return np.array([t.difficulty for t in self.tasks], dtype=float)

    def task_payments(self) -> np.ndarray:
        return np.array([t.payment for t in self.tasks], dtype=float)

    def task_efforts(self) -> np.ndarray:
        return np.array([t.effort for t in self.tasks], dtype=float)

    def task_replications(self) -> np.ndarray:
        return np.array([t.replication for t in self.tasks], dtype=int)

    def worker_capacities(self) -> np.ndarray:
        return np.array([w.capacity for w in self.workers], dtype=int)

    def reservation_wages(self) -> np.ndarray:
        return np.array([w.reservation_wage for w in self.workers], dtype=float)

    def accuracy_matrix(self) -> np.ndarray:
        """``(n_workers, n_tasks)`` probability worker i answers task j
        correctly, combining per-category skill with task difficulty.

        This is the quantity both the benefit models and the answer
        simulator are built on, computed once and vectorized.
        """
        return accuracy(self.pair_skills(), self.task_difficulties())

    # -- mutation used by the simulator ---------------------------------------

    def with_skills(self, skills: np.ndarray) -> "LaborMarket":
        """A market whose workers carry the rows of ``skills``.

        ``skills`` is checked once as a whole — shape
        ``(n_workers, n_categories)``, then the skill check ``Worker``
        runs on its one row — and nothing else is: workers are
        :meth:`Worker.clone` copies of this market's (already
        validated) workers, each with its own copy of its row, and
        tasks, taxonomy and requesters are shared without being
        validated again, as :meth:`from_arrays` does.
        """
        skills = np.asarray(skills, dtype=float)
        check_shape("skill matrix", skills, (self.n_workers, len(self.taxonomy)))
        check_skills([w.worker_id for w in self.workers], skills)
        market = LaborMarket.__new__(LaborMarket)
        market.workers = [
            worker.clone(row.copy(), worker.interests)
            for worker, row in zip(self.workers, skills)
        ]
        market.tasks = list(self.tasks)
        market.taxonomy = self.taxonomy
        market.requesters = list(self.requesters)
        market._index_requester_tasks()
        return market

    def subset(
        self,
        worker_indices: Iterable[int] | None = None,
        task_indices: Iterable[int] | None = None,
    ) -> "LaborMarket":
        """A new market containing only the selected workers/tasks.

        Entities are shared (not copied); the simulator uses this to
        restrict a round to active workers and unexpired tasks.
        """
        w_idx = (
            list(worker_indices)
            if worker_indices is not None
            else list(range(self.n_workers))
        )
        t_idx = (
            list(task_indices)
            if task_indices is not None
            else list(range(self.n_tasks))
        )
        return LaborMarket(
            [self.workers[i] for i in w_idx],
            [self.tasks[j] for j in t_idx],
            self.taxonomy,
            self.requesters,
        )

    def __repr__(self) -> str:
        return (
            f"LaborMarket(workers={self.n_workers}, tasks={self.n_tasks}, "
            f"categories={len(self.taxonomy)})"
        )
