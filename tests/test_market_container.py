"""Tests for the LaborMarket container."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.market.categories import CategoryTaxonomy
from repro.market.market import LaborMarket
from repro.market.requester import Requester
from repro.market.task import Task
from repro.market.worker import Worker


def _worker(worker_id, skills, **kwargs):
    return Worker(worker_id=worker_id, skills=np.array(skills), **kwargs)


class TestValidation:
    def test_skill_vector_length_mismatch(self, taxonomy):
        with pytest.raises(ValidationError, match="taxonomy"):
            LaborMarket(
                [_worker(0, [0.5])], [Task(task_id=0, category=0)], taxonomy
            )

    def test_unknown_category(self, taxonomy):
        with pytest.raises(ValidationError, match="category"):
            LaborMarket(
                [_worker(0, [0.5, 0.5, 0.5])],
                [Task(task_id=0, category=9)],
                taxonomy,
            )

    def test_duplicate_worker_ids(self, taxonomy):
        with pytest.raises(ValidationError, match="duplicate worker"):
            LaborMarket(
                [_worker(0, [0.5] * 3), _worker(0, [0.6] * 3)],
                [Task(task_id=0, category=0)],
                taxonomy,
            )

    def test_duplicate_task_ids(self, taxonomy):
        with pytest.raises(ValidationError, match="duplicate task"):
            LaborMarket(
                [_worker(0, [0.5] * 3)],
                [Task(task_id=0, category=0), Task(task_id=0, category=1)],
                taxonomy,
            )

    def test_skill_length_names_first_offending_worker(self, taxonomy):
        workers = [_worker(i, [0.5] * 3) for i in range(4)]
        workers[2] = _worker(2, [0.5] * 2)
        workers[3] = _worker(3, [0.5])
        with pytest.raises(
            ValidationError,
            match=r"^worker 2: skill vector has 2 entries but taxonomy has 3$",
        ):
            LaborMarket(workers, [Task(task_id=0, category=0)], taxonomy)

    def test_duplicate_worker_names_first_repeat(self, taxonomy):
        workers = [_worker(i, [0.5] * 3) for i in (7, 5, 9, 5, 7)]
        with pytest.raises(ValidationError, match=r"^duplicate worker id 5$"):
            LaborMarket(workers, [Task(task_id=0, category=0)], taxonomy)

    def test_duplicate_task_names_first_repeat(self, taxonomy):
        tasks = [Task(task_id=i, category=0) for i in (4, 8, 1, 8, 4)]
        with pytest.raises(ValidationError, match=r"^duplicate task id 8$"):
            LaborMarket([_worker(0, [0.5] * 3)], tasks, taxonomy)

    def test_unknown_requester(self, taxonomy):
        with pytest.raises(ValidationError, match="requester"):
            LaborMarket(
                [_worker(0, [0.5] * 3)],
                [Task(task_id=0, category=0, requester_id=9)],
                taxonomy,
                requesters=[Requester(requester_id=0)],
            )

    def test_requester_task_index_built(self, taxonomy):
        market = LaborMarket(
            [_worker(0, [0.5] * 3)],
            [
                Task(task_id=0, category=0, requester_id=1),
                Task(task_id=1, category=0, requester_id=1),
            ],
            taxonomy,
            requesters=[Requester(requester_id=1)],
        )
        assert market.requesters[0].task_ids == [0, 1]


class TestViews:
    def test_sizes(self, tiny_market):
        assert tiny_market.n_workers == 3
        assert tiny_market.n_tasks == 2

    def test_skill_matrix_shape(self, tiny_market):
        assert tiny_market.skill_matrix().shape == (3, 3)

    def test_accuracy_matrix_matches_entity_method(self, tiny_market):
        matrix = tiny_market.accuracy_matrix()
        for i, worker in enumerate(tiny_market.workers):
            for j, task in enumerate(tiny_market.tasks):
                expected = worker.accuracy_on(task.category, task.difficulty)
                assert matrix[i, j] == pytest.approx(expected)

    def test_accuracy_matrix_bounds(self, small_market):
        matrix = small_market.accuracy_matrix()
        assert matrix.min() >= 0.0
        assert matrix.max() <= 1.0

    def test_capacity_vectors(self, tiny_market):
        assert list(tiny_market.worker_capacities()) == [1, 2, 1]
        assert list(tiny_market.task_replications()) == [2, 1]

    def test_active_indices_respect_flag(self, tiny_market):
        tiny_market.workers[1].active = False
        assert tiny_market.active_worker_indices() == [0, 2]

    def test_lookup_by_id(self, tiny_market):
        assert tiny_market.worker_by_id(2).worker_id == 2
        assert tiny_market.task_by_id(1).task_id == 1

    def test_lookup_missing(self, tiny_market):
        with pytest.raises(ValidationError):
            tiny_market.worker_by_id(99)
        with pytest.raises(ValidationError):
            tiny_market.task_by_id(99)

    def test_subset(self, tiny_market):
        sub = tiny_market.subset(worker_indices=[0, 2], task_indices=[1])
        assert sub.n_workers == 2
        assert sub.n_tasks == 1
        # Entities are shared, not copied.
        assert sub.workers[0] is tiny_market.workers[0]

    def test_empty_market_views(self, taxonomy):
        market = LaborMarket([], [], taxonomy)
        assert market.skill_matrix().shape == (0, 3)
        assert market.accuracy_matrix().shape == (0, 0)
