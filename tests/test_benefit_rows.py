"""RowwiseBenefit slices must be bit-identical to the full matrices."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benefit import (
    LinearCombiner,
    NashCombiner,
    NetRewardBenefit,
    NormalizedBenefit,
    QualityGainBenefit,
    RowwiseBenefit,
    build_benefit_matrices,
)
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError
from repro.market.market import LaborMarket
from repro.market.wage import FlatCost, LinearEffortCost, WageModel


def _market(seed=0, **kwargs):
    defaults = dict(n_workers=25, n_tasks=14)
    defaults.update(kwargs)
    return generate_market(SyntheticConfig(**defaults), seed=seed)


class _QuadraticCost(WageModel):
    """A wage model the library does not ship."""

    def cost(self, skill, effort):
        return 0.1 * effort**2 * np.ones_like(skill)


class TestFastPath:
    def test_every_row_matches_full_matrix(self):
        market = _market()
        rows = RowwiseBenefit(market)
        matrices = build_benefit_matrices(market)
        tasks = np.arange(market.n_tasks)
        for wi in range(market.n_workers):
            assert np.array_equal(
                rows.row(wi, tasks), matrices.combined[wi]
            )

    def test_every_column_matches_full_matrix(self):
        market = _market()
        rows = RowwiseBenefit(market)
        matrices = build_benefit_matrices(market)
        workers = np.arange(market.n_workers)
        for tj in range(market.n_tasks):
            assert np.array_equal(
                rows.column(tj, workers), matrices.combined[:, tj]
            )

    def test_subset_slices(self):
        market = _market(seed=3)
        rows = RowwiseBenefit(market)
        matrices = build_benefit_matrices(market)
        tasks = np.array([4, 1, 9])
        assert np.array_equal(
            rows.row(2, tasks), matrices.combined[2, tasks]
        )
        workers = np.array([7, 0, 11])
        assert np.array_equal(
            rows.column(5, workers), matrices.combined[workers, 5]
        )

    def test_side_rows_match_per_side_matrices(self):
        market = _market(seed=1)
        rows = RowwiseBenefit(market)
        matrices = build_benefit_matrices(market)
        tasks = np.arange(market.n_tasks)
        for wi in range(market.n_workers):
            req, wrk = rows.side_row(wi, tasks)
            assert np.array_equal(req, matrices.requester[wi])
            assert np.array_equal(wrk, matrices.worker[wi])

    def test_edge_scalar(self):
        market = _market()
        rows = RowwiseBenefit(market)
        matrices = build_benefit_matrices(market)
        assert rows.edge(3, 5) == float(matrices.combined[3, 5])

    def test_empty_selection(self):
        rows = RowwiseBenefit(_market())
        assert rows.row(0, np.zeros(0, dtype=np.int64)).size == 0
        assert rows.column(0, np.zeros(0, dtype=np.int64)).size == 0

    def test_nondefault_combiner(self):
        market = _market(seed=2)
        combiner = LinearCombiner(0.8)
        rows = RowwiseBenefit(market, combiner=combiner)
        matrices = build_benefit_matrices(market, combiner=combiner)
        tasks = np.arange(market.n_tasks)
        assert np.array_equal(rows.row(0, tasks), matrices.combined[0])


class TestBlocks:
    """Index arrays on both sides gather the ``np.ix_`` block."""

    @pytest.mark.parametrize(
        "requester_model",
        [QualityGainBenefit(), QualityGainBenefit(value_scale=2.5)],
        ids=["quality-gain", "quality-gain-scaled"],
    )
    @pytest.mark.parametrize(
        "worker_model",
        [
            NetRewardBenefit(),
            NetRewardBenefit(wage_model=FlatCost(0.4), interest_weight=0.0),
            NetRewardBenefit(wage_model=_QuadraticCost()),
        ],
        ids=["net-reward", "net-reward-flat", "net-reward-quadratic"],
    )
    @pytest.mark.parametrize(
        "combiner", [LinearCombiner(0.3), NashCombiner()],
        ids=["linear", "nash"],
    )
    def test_block_matches_full_matrices(
        self, requester_model, worker_model, combiner
    ):
        market = _market(seed=6)
        models = dict(
            combiner=combiner,
            requester_model=requester_model,
            worker_model=worker_model,
        )
        rows = RowwiseBenefit(market, **models)
        full = build_benefit_matrices(market, **models)
        workers = np.array([9, 0, 17, 3, 3, 24])
        tasks = np.array([13, 2, 7, 0])
        block = np.ix_(workers, tasks)
        requester, worker = rows.side_row(workers, tasks)
        assert requester.shape == (workers.size, tasks.size)
        assert np.array_equal(requester, full.requester[block])
        assert np.array_equal(worker, full.worker[block])
        assert np.array_equal(rows.row(workers, tasks), full.combined[block])

    def test_worker_list_is_an_index_array(self):
        rows = RowwiseBenefit(_market())
        tasks = np.arange(4)
        assert np.array_equal(
            rows.row([2, 5], tasks), rows.row(np.array([2, 5]), tasks)
        )
        assert np.array_equal(
            rows.row(np.int64(5), tasks), rows.row(5, tasks)
        )

    def test_empty_block(self):
        rows = RowwiseBenefit(_market())
        empty = np.zeros(0, dtype=np.int64)
        assert rows.row(empty, np.arange(3)).shape == (0, 3)
        assert rows.row(np.arange(3), empty).shape == (3, 0)


class TestCustomModels:
    def test_custom_wage_model_matches_full_matrix(self):
        market = _market(seed=4)
        worker_model = NetRewardBenefit(wage_model=_QuadraticCost())
        rows = RowwiseBenefit(market, worker_model=worker_model)
        matrices = build_benefit_matrices(market, worker_model=worker_model)
        tasks = np.arange(market.n_tasks)
        workers = np.arange(market.n_workers)
        for wi in range(market.n_workers):
            assert np.array_equal(rows.row(wi, tasks), matrices.combined[wi])
        for tj in range(market.n_tasks):
            assert np.array_equal(
                rows.column(tj, workers), matrices.combined[:, tj]
            )

    def test_whole_market_models_refused(self):
        # Normalizing a slice by the slice's own scale gives wrong
        # values (edge (3, 5) read 1.0 against a full-matrix 0.2945),
        # so such models cannot be sliced at all.
        market = _market()
        with pytest.raises(ValidationError, match="whole market"):
            RowwiseBenefit(
                market,
                requester_model=NormalizedBenefit(QualityGainBenefit()),
                worker_model=NormalizedBenefit(NetRewardBenefit()),
            )
        with pytest.raises(ValidationError, match="whole market"):
            RowwiseBenefit(
                market, worker_model=NormalizedBenefit(NetRewardBenefit())
            )


@st.composite
def _sliced_market(draw):
    n_workers = draw(st.integers(1, 12))
    n_tasks = draw(st.integers(1, 10))
    base = _market(
        seed=draw(st.integers(0, 2**31 - 1)),
        n_workers=n_workers,
        n_tasks=n_tasks,
        n_categories=draw(st.integers(1, 4)),
    )
    # The generator gives every worker one reservation wage and every
    # task one effort; vary both so a mis-gathered entry shows.
    reservations = draw(
        st.lists(st.floats(0.0, 3.0), min_size=n_workers, max_size=n_workers)
    )
    efforts = draw(
        st.lists(st.floats(0.1, 5.0), min_size=n_tasks, max_size=n_tasks)
    )
    market = LaborMarket(
        [
            dataclasses.replace(w, reservation_wage=r)
            for w, r in zip(base.workers, reservations)
        ],
        [dataclasses.replace(t, effort=e) for t, e in zip(base.tasks, efforts)],
        base.taxonomy,
        base.requesters,
    )
    unit = st.floats(0.0, 1.0)
    amount = st.floats(0.0, 3.0)
    wage_model = draw(
        st.one_of(
            st.builds(LinearEffortCost, rate=amount, skill_discount=amount),
            st.builds(FlatCost, amount=amount),
        )
    )
    models = dict(
        combiner=LinearCombiner(draw(unit)),
        requester_model=QualityGainBenefit(value_scale=draw(amount)),
        worker_model=NetRewardBenefit(
            wage_model=wage_model, interest_weight=draw(amount)
        ),
    )
    # Index subsets may be empty and may repeat an index.
    workers = draw(st.lists(st.integers(0, n_workers - 1), max_size=15))
    tasks = draw(st.lists(st.integers(0, n_tasks - 1), max_size=15))
    return (
        market,
        models,
        np.array(workers, dtype=np.int64),
        np.array(tasks, dtype=np.int64),
        draw(st.integers(0, n_workers - 1)),
        draw(st.integers(0, n_tasks - 1)),
    )


class TestSlicesProperty:
    @settings(max_examples=60, deadline=None)
    @given(_sliced_market())
    def test_slices_equal_full_matrices(self, case):
        market, models, workers, tasks, worker, task = case
        rows = RowwiseBenefit(market, **models)
        full = build_benefit_matrices(market, **models)
        assert np.array_equal(
            rows.row(worker, tasks), full.combined[worker, tasks]
        )
        assert np.array_equal(
            rows.column(task, workers), full.combined[workers, task]
        )
        req, wrk = rows.side_row(worker, tasks)
        assert np.array_equal(req, full.requester[worker, tasks])
        assert np.array_equal(wrk, full.worker[worker, tasks])
        assert rows.edge(worker, task) == float(full.combined[worker, task])
        block = np.ix_(workers, tasks)
        req, wrk = rows.side_row(workers, tasks)
        assert np.array_equal(req, full.requester[block])
        assert np.array_equal(wrk, full.worker[block])
