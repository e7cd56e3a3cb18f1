"""``LaborMarket.from_arrays``: columns checked once, the same entities.

The generators build their markets column-wise; the per-entity builders
in ``tests/market_reference.py`` are the ground truth.  Every entity
check is one array check shared by ``Worker``/``Task`` and
``from_arrays``, so a bad value raises the same text either way.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.datagen.traces import workload_registry
from repro.errors import ValidationError
from repro.market.categories import CategoryTaxonomy
from repro.market.market import LaborMarket
from repro.market.requester import Requester
from repro.market.task import Task
from repro.market.worker import Worker
from tests.market_reference import (
    generate_market_reference,
    workload_registry_reference,
)

SIZES = [(1, 1), (7, 3), (3, 7), (60, 45)]


def _assert_same_entity(a, b):
    assert type(a) is type(b)
    fields_a, fields_b = vars(a), vars(b)
    assert list(fields_a) == list(fields_b)
    for name, value in fields_a.items():
        other = fields_b[name]
        assert type(value) is type(other), name
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype, name
            assert np.array_equal(value, other), name
        else:
            assert value == other, name


def _assert_same_market(market, reference):
    assert list(market.taxonomy) == list(reference.taxonomy)
    assert len(market.workers) == len(reference.workers)
    assert len(market.tasks) == len(reference.tasks)
    for a, b in zip(market.workers, reference.workers):
        _assert_same_entity(a, b)
    for a, b in zip(market.tasks, reference.tasks):
        _assert_same_entity(a, b)
    assert [(r.requester_id, r.budget, r.task_ids) for r in market.requesters] == [
        (r.requester_id, r.budget, r.task_ids) for r in reference.requesters
    ]


class TestGeneratorsMatchPerEntityReference:
    @pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workload", sorted(workload_registry()))
    def test_identical_entities(self, workload, seed, size):
        market = workload_registry()[workload](*size, seed=seed)
        reference = workload_registry_reference()[workload](*size, seed=seed)
        _assert_same_market(market, reference)
        assert np.array_equal(market.skill_matrix(), reference.skill_matrix())
        assert np.array_equal(
            market.interest_matrix(), reference.interest_matrix()
        )
        # Checkpoint snapshots pickle workers; copies must survive too.
        for entities in (market.workers, market.tasks):
            for entity in entities:
                _assert_same_entity(
                    pickle.loads(pickle.dumps(entity)), entity
                )
                _assert_same_entity(copy.copy(entity), entity)

    @pytest.mark.parametrize(
        "config",
        [
            SyntheticConfig(
                n_workers=9, n_tasks=5, skill_distribution="gaussian",
                n_requesters=0,
            ),
            SyntheticConfig(
                n_workers=9, n_tasks=5, skill_distribution="bimodal",
                replication_choices=(2,),
            ),
        ],
        ids=["gaussian-standalone", "bimodal"],
    )
    def test_other_synthetic_shapes(self, config):
        _assert_same_market(
            generate_market(config, seed=4),
            generate_market_reference(config, seed=4),
        )

    @pytest.mark.parametrize("workload", sorted(workload_registry()))
    def test_worker_vectors_are_row_views(self, workload):
        market = workload_registry()[workload](6, 4, seed=0)
        for worker in market.workers:
            assert worker.skills.base is market.workers[0].skills.base
            assert worker.interests.base is market.workers[0].interests.base


def _columns(n_workers=2, n_tasks=2, n_categories=3):
    return {
        "skills": np.full((n_workers, n_categories), 0.5),
        "interests": np.full((n_workers, n_categories), 0.5),
        "capacities": np.ones(n_workers, dtype=int),
        "reservation_wages": np.zeros(n_workers),
        "categories": np.zeros(n_tasks, dtype=int),
        "difficulties": np.full(n_tasks, 0.3),
        "payments": np.ones(n_tasks),
        "replications": np.ones(n_tasks, dtype=int),
        "requester_ids": np.zeros(n_tasks, dtype=int),
        "efforts": np.ones(n_tasks),
        "requesters": [Requester(requester_id=0)],
    }


def _from_arrays(**overrides):
    columns = {**_columns(), **overrides}
    return LaborMarket.from_arrays(CategoryTaxonomy.default(3), **columns)


def _error(build):
    with pytest.raises(ValidationError) as info:
        build()
    return str(info.value)


NAN, INF = float("nan"), float("inf")


class TestSameErrorAsEntities:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("skills", NAN),
            ("skills", INF),
            ("skills", 1.5),
            ("interests", NAN),
            ("interests", -INF),
            ("interests", -0.1),
            ("reservation_wage", NAN),
            ("reservation_wage", INF),
            ("reservation_wage", -1.0),
            ("capacity", -1),
        ],
    )
    def test_worker_field(self, field, value):
        vectors = {"skills": [0.5] * 3, "interests": [0.5] * 3}
        columns = _columns()
        if field in vectors:
            vectors[field][1] = value
            columns[field][1, 1] = value
        else:
            column = {"capacity": "capacities"}.get(field, field + "s")
            columns[column][1] = value
        entity = _error(
            lambda: Worker(
                worker_id=1,
                **{k: np.array(v) for k, v in vectors.items()},
                **({} if field in vectors else {field: value}),
            )
        )
        assert entity == _error(lambda: _from_arrays(**columns))
        assert entity.startswith(f"worker 1: {field}")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("payment", NAN),
            ("payment", INF),
            ("payment", -1.0),
            ("effort", NAN),
            ("effort", INF),
            ("effort", 0.0),
            ("difficulty", NAN),
            ("difficulty", 1.5),
            ("replication", 0),
            ("category", -1),
        ],
    )
    def test_task_field(self, field, value):
        columns = _columns()
        column = {"category": "categories", "difficulty": "difficulties"}.get(
            field, field + "s"
        )
        columns[column][1] = value
        entity = _error(lambda: Task(task_id=1, **{"category": 0, field: value}))
        assert entity == _error(lambda: _from_arrays(**columns))
        assert entity.startswith(f"task 1: {field}")

    @pytest.mark.parametrize("value", [1.5, 2.5, INF])
    @pytest.mark.parametrize(
        "column, build",
        [
            (
                "capacities",
                lambda v: Worker(worker_id=1, skills=np.full(3, 0.5), capacity=v),
            ),
            ("replications", lambda v: Task(task_id=1, category=0, replication=v)),
            ("categories", lambda v: Task(task_id=1, category=v)),
        ],
    )
    def test_non_integer_count(self, column, build, value):
        # The market's dtype=int columns would truncate a non-integer
        # count, and the solvers would see another value than the entity.
        columns = _columns()
        columns[column] = columns[column].astype(float)
        columns[column][1] = value
        entity = _error(lambda: build(value))
        assert entity == _error(lambda: _from_arrays(**columns))
        assert "must be an integer" in entity

    @pytest.mark.parametrize(
        "column, build",
        [
            (
                "capacities",
                lambda v: Worker(worker_id=1, skills=np.full(3, 0.5), capacity=v),
            ),
            ("replications", lambda v: Task(task_id=1, category=0, replication=v)),
            ("categories", lambda v: Task(task_id=1, category=v)),
        ],
    )
    def test_whole_float_count(self, column, build):
        # A whole float passes the field rule but not the integer-dtype
        # rule, on the one-row path as on the column path.
        columns = _columns()
        columns[column] = columns[column].astype(float)
        columns[column][1] = 2.0
        entity = _error(lambda: build(2.0))
        assert entity == _error(lambda: _from_arrays(**columns))
        assert entity == f"{column} must be integers, got float64"

    def test_category_outside_taxonomy(self):
        list_built = _error(
            lambda: LaborMarket(
                [], [Task(task_id=0, category=0), Task(task_id=1, category=3)],
                CategoryTaxonomy.default(3),
            )
        )
        assert list_built == _error(
            lambda: _from_arrays(categories=np.array([0, 3]))
        )
        assert "taxonomy of size 3" in list_built

    def test_unknown_requester(self):
        list_built = _error(
            lambda: LaborMarket(
                [], [Task(task_id=0, category=0, requester_id=0),
                     Task(task_id=1, category=0, requester_id=7)],
                CategoryTaxonomy.default(3),
                requesters=[Requester(requester_id=0)],
            )
        )
        assert list_built == _error(
            lambda: _from_arrays(requester_ids=np.array([0, 7]))
        )
        assert list_built == "task 1: references unknown requester 7"

    def test_unknown_requester_between_known_ids(self):
        assert _error(
            lambda: _from_arrays(
                requester_ids=np.array([2, 1]),
                requesters=[Requester(requester_id=0), Requester(requester_id=2)],
            )
        ) == "task 1: references unknown requester 1"

    def test_duplicate_requesters(self):
        assert "duplicate requester" in _error(
            lambda: _from_arrays(
                requesters=[Requester(requester_id=0), Requester(requester_id=0)]
            )
        )


class TestColumnShapes:
    def test_skill_matrix_against_taxonomy(self):
        assert _error(
            lambda: _from_arrays(skills=np.full((2, 4), 0.5))
        ) == "skill matrix has shape (2, 4), expected (2, 3)"

    def test_interest_matrix_matches_skills(self):
        assert "interest matrix" in _error(
            lambda: _from_arrays(interests=np.full((1, 3), 0.5))
        )

    @pytest.mark.parametrize(
        "column", ["reservation_wages", "difficulties", "payments", "efforts"]
    )
    def test_length_mismatch(self, column):
        assert _error(
            lambda: _from_arrays(**{column: np.ones(3)})
        ).startswith(f"{column} has shape (3,)")

    @pytest.mark.parametrize(
        "column", ["capacities", "categories", "replications", "requester_ids"]
    )
    def test_integer_columns(self, column):
        assert f"{column} must be integers" in _error(
            lambda: _from_arrays(**{column: np.ones(2)})
        )

    def test_empty_market(self):
        market = _from_arrays(**{**_columns(0, 0), "requesters": []})
        assert (market.n_workers, market.n_tasks) == (0, 0)
        assert market.skill_matrix().shape == (0, 3)


class TestBuiltMarket:
    def test_fields_are_python_scalars_and_row_views(self):
        columns = _columns()
        market = _from_arrays(**columns)
        worker, task = market.workers[1], market.tasks[1]
        assert (worker.worker_id, task.task_id) == (1, 1)
        assert type(worker.capacity) is int
        assert type(worker.reservation_wage) is float
        assert type(task.payment) is float and type(task.category) is int
        assert worker.active
        assert worker.skills.base is columns["skills"]
        assert worker.interests.base is columns["interests"]
        assert market.requesters[0].task_ids == [0, 1]

    def test_scalar_column_is_one_shared_object(self):
        market = _from_arrays(reservation_wages=0.25, efforts=2, replications=3)
        first, second = market.tasks
        assert type(first.effort) is float and first.effort == 2.0
        assert first.effort is second.effort
        assert market.workers[0].reservation_wage is (
            market.workers[1].reservation_wage
        )
        assert (first.replication, second.replication) == (3, 3)

    def test_bad_scalar_column_names_the_first_entity(self):
        assert _error(lambda: _from_arrays(efforts=NAN)) == (
            "task 0: effort must be finite and > 0, got nan"
        )

    def test_categories_must_be_one_dimensional(self):
        assert "categories must be 1-D" in _error(
            lambda: _from_arrays(categories=0)
        )

    def test_with_skills_names_the_worker(self):
        skills = np.full((2, 3), 0.5)
        skills[1, 0] = NAN
        assert _error(lambda: _from_arrays().with_skills(skills)) == (
            "worker 1: skills must be finite and lie in [0, 1]"
        )
        assert _error(
            lambda: _from_arrays().with_skills(np.full((2, 2), 0.5))
        ) == "skill matrix has shape (2, 2), expected (2, 3)"
