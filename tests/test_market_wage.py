"""Tests for wage/cost models."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.market.wage import FlatCost, LinearEffortCost


class TestLinearEffortCost:
    def test_scales_with_effort(self):
        model = LinearEffortCost(rate=0.5, skill_discount=0.0)
        assert model.cost(0.8, 3.0) == pytest.approx(3.0 * model.cost(0.8, 1.0))

    def test_skilled_workers_pay_less(self):
        model = LinearEffortCost(rate=0.5, skill_discount=1.0)
        assert model.cost(0.9, 1.0) < model.cost(0.3, 1.0)

    def test_zero_discount_ignores_skill(self):
        model = LinearEffortCost(rate=0.5, skill_discount=0.0)
        assert model.cost(0.9, 2.0) == model.cost(0.1, 2.0)

    def test_broadcasts_elementwise(self):
        model = LinearEffortCost(rate=0.5, skill_discount=0.7)
        skills = np.array([[0.2, 0.9, 0.5], [0.6, 0.1, 1.0]])
        efforts = np.array([1.0, 2.5, 0.3])
        costs = model.cost(skills, efforts)
        assert costs.shape == (2, 3)
        for i in range(2):
            for j in range(3):
                assert costs[i, j] == model.cost(
                    float(skills[i, j]), float(efforts[j])
                )

    def test_rejects_negative_rate(self):
        with pytest.raises(ValidationError):
            LinearEffortCost(rate=-0.1)

    @pytest.mark.parametrize("field", ["rate", "skill_discount"])
    def test_rejects_nan(self, field):
        with pytest.raises(ValidationError, match=field):
            LinearEffortCost(**{field: float("nan")})


class TestFlatCost:
    def test_constant(self):
        model = FlatCost(amount=0.25)
        assert model.cost(0.5, 1.0) == 0.25
        assert model.cost(0.5, 9.0) == 0.25

    def test_broadcast_shape(self):
        costs = FlatCost(amount=0.25).cost(np.zeros((4, 1)), np.ones(3))
        assert np.array_equal(costs, np.full((4, 3), 0.25))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="amount"):
            FlatCost(amount=float("nan"))
