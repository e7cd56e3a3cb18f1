"""One input contract for benefit blocks, problems and matching kernels.

Every public kernel checks its weight matrix and capacity vectors with
the shared rules of :mod:`repro.utils.validation`, so each bad input
raises one :class:`ValidationError` text whichever kernel receives it.
A benefit block is refused where it is built, so every registered
solver fails the same way on a non-finite benefit.  The registry-driven
cases below also pin invariants of the objective that every solver
must keep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benefit.base import BenefitModel
from repro.benefit.mutual import LinearCombiner
from repro.benefit.requester_benefit import QualityGainBenefit
from repro.benefit.worker_benefit import NetRewardBenefit
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver, list_solvers
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ValidationError
from repro.market.market import LaborMarket
from repro.matching import (
    auction_assignment,
    b_matching_reference,
    max_weight_b_matching,
)
from repro.matching.stable import deferred_acceptance

ONES = [1, 1]

#: Each kernel as a call on (weights, row capacities, column
#: capacities); kernels without capacities ignore the last two.
KERNELS = {
    "max_weight_b_matching": max_weight_b_matching,
    "b_matching_reference": b_matching_reference,
    "auction_assignment": lambda w, rows, cols: auction_assignment(w),
    "deferred_acceptance": lambda w, rows, cols: deferred_acceptance(
        w, w, rows, cols
    ),
}
CAPACITATED = (
    "max_weight_b_matching", "b_matching_reference", "deferred_acceptance",
)

#: (weights, row capacities, column capacities, the one error text).
MATRIX_CASES = {
    "nan-entry": (
        np.array([[1.0, np.nan], [0.5, 2.0]]), ONES, ONES,
        "weights must be finite",
    ),
    "one-d": (
        np.ones(2), ONES, ONES, "weights must be 2-D, got shape (2,)",
    ),
}
CAPACITY_CASES = {
    "wrong-length": (
        np.ones((2, 2)), [1], ONES,
        "row_capacities has shape (1,), expected (2,)",
    ),
    "negative": (
        np.ones((2, 2)), ONES, [1, -1], "col_capacities must be non-negative",
    ),
    # Refused, not truncated to [1, 1] by a dtype=int cast.
    "fraction": (
        np.ones((2, 2)), [1.5, 1], ONES,
        "row_capacities must be integers, got float64",
    ),
}


def _error(kernel: str, weights, rows, cols) -> str:
    with pytest.raises(ValidationError) as error:
        KERNELS[kernel](weights, rows, cols)
    return str(error.value)


@pytest.mark.parametrize("case", sorted(MATRIX_CASES))
def test_bad_matrix_raises_one_text_in_every_kernel(case):
    weights, rows, cols, text = MATRIX_CASES[case]
    assert {
        kernel: _error(kernel, weights, rows, cols) for kernel in KERNELS
    } == {kernel: text for kernel in KERNELS}


@pytest.mark.parametrize("case", sorted(CAPACITY_CASES))
def test_bad_capacities_raise_one_text_in_every_kernel(case):
    weights, rows, cols, text = CAPACITY_CASES[case]
    assert {
        kernel: _error(kernel, weights, rows, cols) for kernel in CAPACITATED
    } == {kernel: text for kernel in CAPACITATED}


def test_wide_rule_for_assignment_kernels():
    text = (
        "weights must have n_rows <= n_cols, got 3 x 2; "
        "transpose or pad the matrix"
    )
    assert _error("auction_assignment", np.ones((3, 2)), None, None) == text


# -- registry-driven contract ------------------------------------------


class OneNaN(BenefitModel):
    """The requester model with one entry replaced by NaN."""

    def matrix(self, market) -> np.ndarray:
        values = QualityGainBenefit().matrix(market)
        values[1, 2] = np.nan
        return values


class Doubled(BenefitModel):
    """Another model's matrix, times two."""

    def __init__(self, model: BenefitModel) -> None:
        self.model = model

    def matrix(self, market) -> np.ndarray:
        return 2.0 * self.model.matrix(market)


def _market(seed: int = 5):
    return generate_market(
        SyntheticConfig(
            n_workers=12, n_tasks=6, replication_choices=(1, 2),
            capacity_low=1, capacity_high=2,
        ),
        seed=seed,
    )


@pytest.mark.parametrize("solver_name", list_solvers())
def test_non_finite_benefit_is_refused_before_any_solver(solver_name):
    solver = get_solver(solver_name)
    with pytest.raises(ValidationError) as error:
        solver.solve(MBAProblem(_market(), requester_model=OneNaN()), seed=0)
    assert str(error.value) == "requester benefits must be finite"


@pytest.mark.parametrize("solver_name", list_solvers())
def test_doubling_both_sides_doubles_the_objective(solver_name):
    market = _market()
    combiner = LinearCombiner(0.5)
    plain = MBAProblem(market, combiner=combiner)
    doubled = MBAProblem(
        market,
        combiner=combiner,
        requester_model=Doubled(QualityGainBenefit()),
        worker_model=Doubled(NetRewardBenefit()),
    )
    once = get_solver(solver_name).solve(plain, seed=3).combined_total()
    twice = get_solver(solver_name).solve(doubled, seed=3).combined_total()
    assert twice == pytest.approx(2.0 * once, rel=1e-9)


#: Solvers whose output depends on entity order by design, each with
#: the reason.
ORDER_DEPENDENT = {
    "online-batch": "workers arrive in a seeded order over their indices",
    "online-greedy": "workers arrive in a seeded order over their indices",
    "online-two-phase": "workers arrive in a seeded order over their indices",
    "random": "draws its edges from the seeded stream in index order",
    "round-robin": "tasks take turns in index order",
}


@pytest.mark.parametrize(
    "solver_name",
    [name for name in list_solvers() if name not in ORDER_DEPENDENT],
)
def test_permuting_entities_keeps_the_objective(solver_name):
    market = _market()
    rng = np.random.default_rng(11)
    worker_order = rng.permutation(market.n_workers)
    task_order = rng.permutation(market.n_tasks)
    permuted = LaborMarket(
        [market.workers[i] for i in worker_order],
        [market.tasks[j] for j in task_order],
        market.taxonomy,
        market.requesters,
    )
    combiner = LinearCombiner(0.5)
    solver = get_solver(solver_name)
    plain = solver.solve(MBAProblem(market, combiner=combiner), seed=3)
    moved = solver.solve(MBAProblem(permuted, combiner=combiner), seed=3)
    assert moved.combined_total() == pytest.approx(
        plain.combined_total(), rel=1e-9
    )
    if solver_name == "flow":
        # Edge (i, j) of the market is edge (worker_at[i], task_at[j])
        # of the permuted one.
        worker_at = np.argsort(worker_order)
        task_at = np.argsort(task_order)
        assert sorted(moved.edges) == sorted(
            (int(worker_at[i]), int(task_at[j])) for i, j in plain.edges
        )


def test_flow_at_lambda_one_is_quality_only():
    problem = MBAProblem(_market(), combiner=LinearCombiner(1.0))
    flow = get_solver("flow").solve(problem, seed=0)
    quality = get_solver("quality-only").solve(problem, seed=0)
    assert flow.edges == quality.edges
