"""Tests for the requester- and worker-side benefit models."""

import numpy as np
import pytest

from repro.benefit.requester_benefit import QualityGainBenefit
from repro.benefit.worker_benefit import NetRewardBenefit
from repro.errors import ValidationError
from repro.market.categories import CategoryTaxonomy
from repro.market.market import LaborMarket
from repro.market.task import Task
from repro.market.wage import FlatCost
from repro.market.worker import Worker


def _market(skills, tasks):
    taxonomy = CategoryTaxonomy.default(len(skills[0]))
    workers = [
        Worker(worker_id=i, skills=np.array(s)) for i, s in enumerate(skills)
    ]
    return LaborMarket(workers, tasks, taxonomy)


class TestQualityGainBenefit:
    def test_perfect_worker_on_trivial_task(self):
        market = _market(
            [[1.0]], [Task(task_id=0, category=0, difficulty=0.0, payment=2.0)]
        )
        matrix = QualityGainBenefit().matrix(market)
        assert matrix[0, 0] == pytest.approx(2.0)

    def test_coin_flip_worker_is_zero(self):
        market = _market(
            [[0.5]], [Task(task_id=0, category=0, difficulty=0.0)]
        )
        assert QualityGainBenefit().matrix(market)[0, 0] == pytest.approx(0.0)

    def test_adversarial_worker_is_negative(self):
        market = _market(
            [[0.2]], [Task(task_id=0, category=0, difficulty=0.0)]
        )
        assert QualityGainBenefit().matrix(market)[0, 0] < 0

    def test_scales_with_payment(self):
        tasks = [
            Task(task_id=0, category=0, difficulty=0.1, payment=1.0),
            Task(task_id=1, category=0, difficulty=0.1, payment=3.0),
        ]
        matrix = QualityGainBenefit().matrix(_market([[0.9]], tasks))
        assert matrix[0, 1] == pytest.approx(3.0 * matrix[0, 0])

    def test_difficulty_shrinks_benefit(self):
        tasks = [
            Task(task_id=0, category=0, difficulty=0.0),
            Task(task_id=1, category=0, difficulty=0.8),
        ]
        matrix = QualityGainBenefit().matrix(_market([[0.9]], tasks))
        assert matrix[0, 1] < matrix[0, 0]

    def test_value_scale(self):
        market = _market(
            [[0.9]], [Task(task_id=0, category=0, difficulty=0.0)]
        )
        base = QualityGainBenefit(value_scale=1.0).matrix(market)[0, 0]
        doubled = QualityGainBenefit(value_scale=2.0).matrix(market)[0, 0]
        assert doubled == pytest.approx(2.0 * base)

    def test_nan_value_scale_rejected(self):
        with pytest.raises(ValidationError, match="value_scale"):
            QualityGainBenefit(value_scale=float("nan"))


class TestNetRewardBenefit:
    def test_payment_minus_cost(self):
        market = _market(
            [[0.8]], [Task(task_id=0, category=0, payment=1.0)]
        )
        model = NetRewardBenefit(wage_model=FlatCost(0.3), interest_weight=0.0)
        assert model.matrix(market)[0, 0] == pytest.approx(0.7)

    def test_reservation_shortfall_penalized(self):
        taxonomy = CategoryTaxonomy.default(1)
        worker = Worker(
            worker_id=0, skills=np.array([0.8]), reservation_wage=2.0
        )
        market = LaborMarket(
            [worker], [Task(task_id=0, category=0, payment=1.0)], taxonomy
        )
        model = NetRewardBenefit(wage_model=FlatCost(0.0), interest_weight=0.0)
        # payment 1 - cost 0 - shortfall (2-1) = 0
        assert model.matrix(market)[0, 0] == pytest.approx(0.0)

    def test_interest_bonus(self):
        taxonomy = CategoryTaxonomy.default(1)
        keen = Worker(
            worker_id=0, skills=np.array([0.8]), interests=np.array([1.0])
        )
        bored = Worker(
            worker_id=1, skills=np.array([0.8]), interests=np.array([0.0])
        )
        market = LaborMarket(
            [keen, bored], [Task(task_id=0, category=0, payment=1.0)], taxonomy
        )
        matrix = NetRewardBenefit(
            wage_model=FlatCost(0.0), interest_weight=0.5
        ).matrix(market)
        assert matrix[0, 0] - matrix[1, 0] == pytest.approx(0.5)

    def test_empty_market_shapes(self):
        taxonomy = CategoryTaxonomy.default(1)
        market = LaborMarket([], [], taxonomy)
        assert NetRewardBenefit().matrix(market).shape == (0, 0)

    def test_nan_interest_weight_rejected(self):
        with pytest.raises(ValidationError, match="interest_weight"):
            NetRewardBenefit(interest_weight=float("nan"))

    def test_matrix_shape(self, small_market):
        matrix = NetRewardBenefit().matrix(small_market)
        assert matrix.shape == (small_market.n_workers, small_market.n_tasks)
