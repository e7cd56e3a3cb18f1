"""Warm-start contract of the auction kernel.

The warm wrapper's approximate tier relies on the kernel-level
guarantee pinned here: the auction reaches ε-complementary slackness
from *any* finite start prices, so a stale warm start can cost bidding
rounds but never the optimum.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.matching.auction import auction_assignment


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestAuctionWarmStart:
    def test_zero_start_prices_match_default(self, rng):
        weights = rng.normal(size=(6, 6))
        cold = auction_assignment(weights)
        warm = auction_assignment(weights, start_prices=np.zeros(6))
        assert warm == cold

    @pytest.mark.parametrize("shape", [(6, 6), (4, 7)])
    def test_arbitrary_prices_stay_near_optimal(self, rng, shape):
        weights = rng.normal(size=shape)
        _, cold_total = auction_assignment(weights)
        for _ in range(5):
            start = np.abs(rng.normal(size=shape[1])) * 3
            _, warm_total = auction_assignment(
                weights, start_prices=start
            )
            assert warm_total == pytest.approx(cold_total, abs=1e-6)

    def test_returned_prices_round_trip(self, rng):
        weights = rng.normal(size=(5, 5))
        _, cold_total, prices = auction_assignment(
            weights, return_state=True
        )
        assert prices.shape == (5,)
        _, warm_total = auction_assignment(weights, start_prices=prices)
        assert warm_total == pytest.approx(cold_total, abs=1e-6)

    def test_bad_start_prices_rejected(self):
        weights = np.ones((3, 4))
        with pytest.raises(ValidationError):
            auction_assignment(weights, start_prices=np.zeros(3))
        with pytest.raises(ValidationError):
            auction_assignment(
                weights, start_prices=np.array([0.0, np.nan, 0.0, 0.0])
            )
