"""The reconstructed evaluation: one function per table/figure.

Every experiment takes a ``scale`` multiplier (1.0 = the sizes used in
EXPERIMENTS.md; tests pass smaller values) and a ``seed``, and returns
a :class:`repro.eval.report.Table`.  The mapping from experiment id to
function is :data:`EXPERIMENTS`; benchmarks call
:func:`run_experiment`.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.benefit.mutual import (
    EgalitarianCombiner,
    LinearCombiner,
    NashCombiner,
)
from repro.core.fairness import assigned_fraction, benefit_gini, side_gap
from repro.core.objective import CoverageObjective
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.crowd.aggregation import dawid_skene, majority_vote, weighted_majority_vote
from repro.crowd.answer_model import simulate_answers
from repro.crowd.quality import majority_vote_accuracy
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.datagen.traces import workload_registry
from repro.errors import ConfigurationError
from repro.eval.report import Table
from repro.market.retention import RetentionModel
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.timer import Timer

#: Solvers compared in the effectiveness experiments, in report order.
EFFECTIVENESS_SOLVERS = (
    "flow",
    "greedy",
    "local-search",
    "quality-only",
    "worker-only",
    "round-robin",
    "random",
)


def _scaled(base: int, scale: float, minimum: int = 4) -> int:
    return max(int(round(base * scale)), minimum)


# ---------------------------------------------------------------------------
# T1 — dataset statistics
# ---------------------------------------------------------------------------

def table1_datasets(scale: float = 1.0, seed: int = 0) -> Table:
    """T1: descriptive statistics of the four workloads."""
    table = Table(
        "Table 1: workload statistics",
        ["workload", "workers", "tasks", "mean skill", "mean pay",
         "mean repl", "demand/supply"],
        float_format="{:.3f}",
    )
    rngs = spawn_rngs(seed, 4)
    for (name, make), rng in zip(sorted(workload_registry().items()), rngs):
        market = make(
            n_workers=_scaled(200, scale), n_tasks=_scaled(100, scale),
            seed=rng,
        )
        demand = int(market.task_replications().sum())
        supply = int(market.worker_capacities().sum())
        table.add_row(
            name,
            market.n_workers,
            market.n_tasks,
            float(market.skill_matrix().mean()),
            float(market.task_payments().mean()),
            float(market.task_replications().mean()),
            demand / supply if supply else float("inf"),
        )
    return table


# ---------------------------------------------------------------------------
# T2 — effectiveness: combined benefit by algorithm and workload
# ---------------------------------------------------------------------------

def table2_effectiveness(scale: float = 1.0, seed: int = 0) -> Table:
    """T2: total mutual benefit per solver on each workload."""
    table = Table(
        "Table 2: total mutual benefit (lambda = 0.5)",
        ["workload"] + list(EFFECTIVENESS_SOLVERS),
    )
    rngs = spawn_rngs(seed, 4)
    for (name, make), rng in zip(sorted(workload_registry().items()), rngs):
        market = make(
            n_workers=_scaled(150, scale), n_tasks=_scaled(75, scale),
            seed=rng,
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        row: list[object] = [name]
        for solver_name in EFFECTIVENESS_SOLVERS:
            assignment = get_solver(solver_name).solve(problem, seed=0)
            row.append(assignment.combined_total())
        table.add_row(*row)
    return table


# ---------------------------------------------------------------------------
# T3 — answer quality by algorithm
# ---------------------------------------------------------------------------

def table3_quality(scale: float = 1.0, seed: int = 0) -> Table:
    """T3: round-1 aggregated accuracy per solver (majority vote)."""
    table = Table(
        "Table 3: aggregated answer accuracy (single round, majority vote)",
        ["workload"] + list(EFFECTIVENESS_SOLVERS),
    )
    rngs = spawn_rngs(seed, 8)
    rng_index = 0
    for name, make in sorted(workload_registry().items()):
        market = make(
            n_workers=_scaled(150, scale), n_tasks=_scaled(75, scale),
            seed=rngs[rng_index],
        )
        rng_index += 1
        answer_rng = rngs[rng_index]
        rng_index += 1
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        row: list[object] = [name]
        for solver_name in EFFECTIVENESS_SOLVERS:
            assignment = get_solver(solver_name).solve(problem, seed=0)
            accuracies = []
            # Average over several answer realizations to denoise.
            for repetition in range(5):
                answers = simulate_answers(
                    market, list(assignment.edges),
                    seed=answer_rng.integers(2**31) + repetition,
                )
                labels = majority_vote(answers, seed=repetition)
                scored = [
                    labels[t] == truth for t, truth in answers.truths.items()
                ]
                if scored:
                    accuracies.append(sum(scored) / len(scored))
            row.append(float(np.mean(accuracies)) if accuracies else float("nan"))
        table.add_row(*row)
    return table


# ---------------------------------------------------------------------------
# T4 — worker-side outcomes
# ---------------------------------------------------------------------------

def table4_worker_outcomes(scale: float = 1.0, seed: int = 0) -> Table:
    """T4: worker benefit, spread, and long-run participation.

    Uses the tight-margin market (effort costs rival payments) where a
    worker-blind policy actually assigns money-losing edges; that is
    the regime in which the participation column separates.
    """
    table = Table(
        "Table 4: worker-side outcomes (tight-margin workload, 20 rounds)",
        ["solver", "worker benefit", "gini", "assigned frac",
         "participation@20"],
    )
    market = generate_market(
        SyntheticConfig(
            n_workers=_scaled(120, scale), n_tasks=_scaled(60, scale),
            payment_mean=0.6, payment_sigma=0.6,
            effort=2.5, reservation_fraction=0.5,
        ),
        seed=seed,
    )
    retention_template = dict(
        expectation=0.15, sharpness=8.0, base_stay=0.97
    )
    problem = MBAProblem(market, combiner=LinearCombiner(0.5))
    for solver_name in ("flow", "greedy", "quality-only", "worker-only",
                        "random"):
        assignment = get_solver(solver_name).solve(problem, seed=0)
        scenario = Scenario(
            market=market,
            solver_name=solver_name,
            n_rounds=max(int(20 * min(scale, 1.0)), 3),
            retention=RetentionModel(**retention_template),
        )
        result = Simulation(scenario).run(seed=seed + 1)
        table.add_row(
            solver_name,
            assignment.worker_total(),
            benefit_gini(assignment),
            assigned_fraction(assignment),
            result.final_participation,
        )
    return table


# ---------------------------------------------------------------------------
# F5 — long-run quality over rounds (the crossover figure)
# ---------------------------------------------------------------------------

def figure5_longrun(scale: float = 1.0, seed: int = 0) -> Table:
    """F5: cumulative accuracy per round, MBA vs quality-only.

    The market is configured so the worker side can actually be hurt:
    effort costs rival payments, so the most-accurate worker for a task
    often *loses* money doing it.  Quality-only assigns such edges
    anyway; its own workforce sours and churns, and the accuracy
    advantage it opens in early rounds erodes — the crossover the
    abstract's thesis predicts.
    """
    n_rounds = max(int(30 * min(scale, 1.0)), 5)
    table = Table(
        "Figure 5: long-run outcomes per round (retention enabled). "
        "Requester benefit = answer volume x quality; cumulative "
        "accuracy alone conditions on answered tasks and misses the "
        "volume loss.",
        ["round", "mba req benefit", "qo req benefit",
         "mba cum accuracy", "qo cum accuracy",
         "mba participation", "qo participation"],
    )
    market = generate_market(
        SyntheticConfig(
            n_workers=_scaled(120, scale), n_tasks=_scaled(80, scale),
            replication_choices=(3,),
            payment_mean=0.6, payment_sigma=0.6,
            effort=2.5, reservation_fraction=0.5,
        ),
        seed=seed,
    )
    retention = RetentionModel(
        expectation=0.15, sharpness=8.0, base_stay=0.97
    )
    results = {}
    for solver_name in ("flow", "quality-only"):
        scenario = Scenario(
            market=market,
            solver_name=solver_name,
            n_rounds=n_rounds,
            retention=retention,
        )
        results[solver_name] = Simulation(scenario).run(seed=seed + 17)
    mba, qo = results["flow"], results["quality-only"]
    mba_req = mba.series("requester_benefit")
    qo_req = qo.series("requester_benefit")
    mba_acc = mba.cumulative_accuracy()
    qo_acc = qo.cumulative_accuracy()
    mba_part = mba.series("participation_rate")
    qo_part = qo.series("participation_rate")
    for r in range(n_rounds):
        table.add_row(
            r, float(mba_req[r]), float(qo_req[r]),
            float(mba_acc[r]), float(qo_acc[r]),
            float(mba_part[r]), float(qo_part[r]),
        )
    return table


# ---------------------------------------------------------------------------
# F6 — the lambda trade-off knob
# ---------------------------------------------------------------------------

def figure6_lambda(scale: float = 1.0, seed: int = 0) -> Table:
    """F6: requester vs worker benefit as lambda sweeps 0..1."""
    table = Table(
        "Figure 6: side benefits vs lambda (flow solver)",
        ["lambda", "requester benefit", "worker benefit", "combined",
         "side gap"],
    )
    market = generate_market(
        SyntheticConfig(
            n_workers=_scaled(120, scale), n_tasks=_scaled(60, scale)
        ),
        seed=seed,
    )
    for lam in np.linspace(0.0, 1.0, 11):
        problem = MBAProblem(market, combiner=LinearCombiner(float(lam)))
        assignment = get_solver("flow").solve(problem, seed=0)
        table.add_row(
            float(lam),
            assignment.requester_total(),
            assignment.worker_total(),
            assignment.combined_total(),
            side_gap(assignment),
        )
    return table


# ---------------------------------------------------------------------------
# F7 / F8 — scalability
# ---------------------------------------------------------------------------

#: The solvers F7 and F8 time.
SCALABILITY_SOLVERS = ("flow", "greedy", "online-greedy", "round-robin")


def _scalability(
    vary: str, sizes: list[int], fixed: int, seed: int
) -> Table:
    table = Table(
        f"Figure {'7' if vary == 'workers' else '8'}: runtime (s) vs "
        f"|{'W' if vary == 'workers' else 'T'}|",
        [f"n_{vary}"] + list(SCALABILITY_SOLVERS),
        float_format="{:.4f}",
    )
    rngs = spawn_rngs(seed, len(sizes))
    for size, rng in zip(sizes, rngs):
        n_workers = size if vary == "workers" else fixed
        n_tasks = size if vary == "tasks" else fixed
        market = generate_market(
            SyntheticConfig(n_workers=n_workers, n_tasks=n_tasks), seed=rng
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        row: list[object] = [size]
        for solver_name in SCALABILITY_SOLVERS:
            solver = get_solver(solver_name)
            with Timer() as timer:
                solver.solve(problem, seed=0)
            row.append(timer.elapsed)
        table.add_row(*row)
    return table


def figure7_scale_workers(scale: float = 1.0, seed: int = 0) -> Table:
    """F7: runtime vs number of workers, |T| fixed."""
    sizes = [
        _scaled(s, scale, minimum=10) for s in (100, 200, 400, 800, 1600)
    ]
    return _scalability("workers", sizes, _scaled(100, scale, 10), seed)


def figure8_scale_tasks(scale: float = 1.0, seed: int = 0) -> Table:
    """F8: runtime vs number of tasks, |W| fixed."""
    sizes = [
        _scaled(s, scale, minimum=10) for s in (100, 200, 400, 800, 1600)
    ]
    return _scalability("tasks", sizes, _scaled(200, scale, 10), seed)


# ---------------------------------------------------------------------------
# F9 — online vs offline
# ---------------------------------------------------------------------------

def figure9_online(scale: float = 1.0, seed: int = 0) -> Table:
    """F9: empirical competitive ratio of the online solvers.

    Alongside the per-arrival algorithms, the micro-batching solver is
    swept over batch sizes: the ratio should climb toward 1 as the
    batch window grows — the operational knob platforms actually turn.
    """
    batch_sizes = (1, 5, 20)
    table = Table(
        "Figure 9: online / offline combined-benefit ratio "
        "(random arrival order, 5 repetitions)",
        ["workload", "online-greedy", "online-two-phase"]
        + [f"batch({b})" for b in batch_sizes],
    )
    rngs = spawn_rngs(seed, 4)
    for (name, make), rng in zip(sorted(workload_registry().items()), rngs):
        market = make(
            n_workers=_scaled(120, scale), n_tasks=_scaled(60, scale),
            seed=rng,
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        offline = get_solver("flow").solve(problem, seed=0).combined_total()
        if offline <= 0:
            table.add_row(
                name, *([float("nan")] * (2 + len(batch_sizes)))
            )
            continue

        def mean_ratio(solver_name: str, **kwargs) -> float:
            values = [
                get_solver(solver_name, **kwargs)
                .solve(problem, seed=rep)
                .combined_total()
                for rep in range(5)
            ]
            return float(np.mean(values)) / offline

        table.add_row(
            name,
            mean_ratio("online-greedy"),
            mean_ratio("online-two-phase"),
            *[
                mean_ratio("online-batch", batch_size=b)
                for b in batch_sizes
            ],
        )
    return table


# ---------------------------------------------------------------------------
# F10 — replication factor
# ---------------------------------------------------------------------------

def figure10_replication(scale: float = 1.0, seed: int = 0) -> Table:
    """F10: quality and per-answer cost vs replication factor k."""
    table = Table(
        "Figure 10: majority-vote accuracy vs replication k",
        ["k", "expected accuracy", "simulated accuracy",
         "marginal gain of k-th worker"],
    )
    rng = as_rng(seed)
    # One representative accuracy pool drawn from the uniform workload.
    market = generate_market(
        SyntheticConfig(n_workers=_scaled(200, scale), n_tasks=1), seed=rng
    )
    accuracies = np.sort(market.accuracy_matrix()[:, 0])[::-1]
    previous = 0.5
    for k in (1, 3, 5, 7, 9):
        committee = list(accuracies[:k])
        expected = majority_vote_accuracy(committee)
        # Monte-Carlo check with the same committee.
        n_samples = 4000
        draws = rng.random((n_samples, k)) < np.array(committee)
        votes = draws.sum(axis=1)
        wins = (votes * 2 > k).mean() + 0.5 * (votes * 2 == k).mean()
        table.add_row(k, expected, float(wins), expected - previous)
        previous = expected
    return table


# ---------------------------------------------------------------------------
# F11 — skill-distribution sensitivity
# ---------------------------------------------------------------------------

def figure11_distributions(scale: float = 1.0, seed: int = 0) -> Table:
    """F11: MBA's edge over quality-only across skill distributions."""
    table = Table(
        "Figure 11: combined benefit by skill distribution",
        ["distribution", "flow", "quality-only", "worker-only",
         "mba advantage"],
    )
    rngs = spawn_rngs(seed, 4)
    for distribution, rng in zip(
        ("uniform", "gaussian", "zipf", "bimodal"), rngs
    ):
        market = generate_market(
            SyntheticConfig(
                n_workers=_scaled(150, scale),
                n_tasks=_scaled(75, scale),
                skill_distribution=distribution,
            ),
            seed=rng,
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        values = {
            s: get_solver(s).solve(problem, seed=0).combined_total()
            for s in ("flow", "quality-only", "worker-only")
        }
        best_single = max(values["quality-only"], values["worker-only"])
        advantage = (
            values["flow"] / best_single - 1.0 if best_single > 0 else float("nan")
        )
        table.add_row(
            distribution, values["flow"], values["quality-only"],
            values["worker-only"], advantage,
        )
    return table


# ---------------------------------------------------------------------------
# F12 — greedy/flow vs exact optimum
# ---------------------------------------------------------------------------

def figure12_optimality(scale: float = 1.0, seed: int = 0) -> Table:
    """F12: empirical approximation ratio on small instances."""
    table = Table(
        "Figure 12: value / exact-optimum on 10x5 instances "
        "(20 instances, linear combiner)",
        ["solver", "mean ratio", "min ratio"],
    )
    rngs = spawn_rngs(seed, 20)
    ratios: dict[str, list[float]] = {"flow": [], "greedy": [],
                                      "local-search": []}
    for rng in rngs:
        market = generate_market(
            SyntheticConfig(
                n_workers=10, n_tasks=5, replication_choices=(1, 2),
                capacity_low=1, capacity_high=2,
            ),
            seed=rng,
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        exact = get_solver("exact", max_edges=60).solve(problem, seed=0)
        optimum = exact.combined_total()
        if optimum <= 1e-9:
            continue
        for solver_name in ratios:
            value = (
                get_solver(solver_name).solve(problem, seed=0).combined_total()
            )
            ratios[solver_name].append(value / optimum)
    for solver_name, values in ratios.items():
        table.add_row(
            solver_name,
            float(np.mean(values)) if values else float("nan"),
            float(np.min(values)) if values else float("nan"),
        )
    return table


# ---------------------------------------------------------------------------
# F13 — aggregation ablation
# ---------------------------------------------------------------------------

def figure13_aggregation(scale: float = 1.0, seed: int = 0) -> Table:
    """F13: accuracy of majority vs weighted vs Dawid-Skene vs GLAD."""
    from repro.crowd.aggregation import glad

    table = Table(
        "Figure 13: aggregation accuracy by method (zipf skills, k=5)",
        ["skill skew", "majority", "weighted", "dawid-skene", "glad"],
    )
    rngs = spawn_rngs(seed, 3)
    for exponent, rng in zip((3.0, 1.5, 0.8), rngs):
        market = generate_market(
            SyntheticConfig(
                n_workers=_scaled(60, scale),
                n_tasks=_scaled(40, scale),
                skill_distribution="zipf",
                zipf_exponent=exponent,
                skill_low=0.45,
                skill_high=0.95,
                replication_choices=(5,),
                capacity_low=3,
                capacity_high=6,
            ),
            seed=rng,
        )
        problem = MBAProblem(market, combiner=LinearCombiner(0.5))
        assignment = get_solver("flow").solve(problem, seed=0)
        answer_rng = as_rng(int(rng.integers(2**31)))
        accuracy_matrix = market.accuracy_matrix()
        mean_accuracy = {
            i: float(accuracy_matrix[i].mean())
            for i in range(market.n_workers)
        }
        scores = {
            "majority": [], "weighted": [], "dawid-skene": [], "glad": []
        }
        for repetition in range(5):
            answers = simulate_answers(
                market, list(assignment.edges), seed=answer_rng
            )
            labelings = {
                "majority": majority_vote(answers, seed=repetition),
                "weighted": weighted_majority_vote(
                    answers, mean_accuracy, seed=repetition
                ),
                "dawid-skene": dawid_skene(answers).labels,
                "glad": glad(answers, max_iterations=20).labels,
            }
            for method, labels in labelings.items():
                scored = [
                    labels[t] == truth
                    for t, truth in answers.truths.items()
                ]
                if scored:
                    scores[method].append(sum(scored) / len(scored))
        table.add_row(
            f"zipf({exponent})",
            float(np.mean(scores["majority"])),
            float(np.mean(scores["weighted"])),
            float(np.mean(scores["dawid-skene"])),
            float(np.mean(scores["glad"])),
        )
    return table


# ---------------------------------------------------------------------------
# F14 — combiner ablation
# ---------------------------------------------------------------------------

def figure14_combiners(scale: float = 1.0, seed: int = 0) -> Table:
    """F14: linear vs egalitarian vs Nash on side balance."""
    table = Table(
        "Figure 14: combiner ablation (local-search solver)",
        ["combiner", "requester benefit", "worker benefit", "side gap",
         "combined (linear 0.5)"],
    )
    market = generate_market(
        SyntheticConfig(
            n_workers=_scaled(60, scale), n_tasks=_scaled(30, scale)
        ),
        seed=seed,
    )
    combiners = {
        "linear(0.5)": LinearCombiner(0.5),
        "egalitarian": EgalitarianCombiner(),
        "nash": NashCombiner(),
    }
    for name, combiner in combiners.items():
        problem = MBAProblem(market, combiner=combiner)
        assignment = get_solver("local-search").solve(problem, seed=0)
        req = assignment.requester_total()
        wrk = assignment.worker_total()
        table.add_row(
            name, req, wrk, side_gap(assignment), 0.5 * req + 0.5 * wrk
        )
    return table


# ---------------------------------------------------------------------------
# F15 — skill-estimation ablation (oracle vs estimated planning)
# ---------------------------------------------------------------------------

def figure15_estimation(scale: float = 1.0, seed: int = 0) -> Table:
    """F15: assignment value under estimated vs oracle skills, by round.

    The estimator starts at the prior and learns from gold questions +
    aggregated labels; the gap to the oracle planner shrinks as history
    accumulates.
    """
    from repro.crowd.estimation import BetaSkillEstimator

    n_rounds = max(int(12 * min(scale, 1.0)), 4)
    table = Table(
        "Figure 15: oracle vs estimated planning (combined benefit/round)",
        ["round", "oracle", "estimated", "gap %"],
    )
    market = generate_market(
        SyntheticConfig(
            n_workers=_scaled(80, scale), n_tasks=_scaled(40, scale)
        ),
        seed=seed,
    )
    oracle = Simulation(
        Scenario(market=market, solver_name="flow", n_rounds=n_rounds,
                 retention=None)
    ).run(seed=seed + 1)
    estimator = BetaSkillEstimator()
    estimated = Simulation(
        Scenario(market=market, solver_name="flow", n_rounds=n_rounds,
                 retention=None, estimator=estimator, gold_fraction=0.2)
    ).run(seed=seed + 1)
    oracle_series = oracle.series("combined_benefit")
    estimated_series = estimated.series("combined_benefit")
    for r in range(n_rounds):
        gap = (
            100.0 * (oracle_series[r] - estimated_series[r])
            / oracle_series[r]
            if oracle_series[r] > 0
            else float("nan")
        )
        table.add_row(
            r, float(oracle_series[r]), float(estimated_series[r]), gap
        )
    return table


# ---------------------------------------------------------------------------
# F16 — constraint ablation (the "general settings" of the title)
# ---------------------------------------------------------------------------

def figure16_constraints(scale: float = 1.0, seed: int = 0) -> Table:
    """F16: the price of each side constraint on total benefit."""
    from repro.core.constraints import (
        BudgetConstraint,
        CategoryDiversityConstraint,
        MinAccuracyConstraint,
    )

    table = Table(
        "Figure 16: combined benefit under side constraints "
        "(constrained-greedy)",
        ["constraint", "combined benefit", "edges", "vs unconstrained"],
    )
    market = generate_market(
        SyntheticConfig(
            n_workers=_scaled(100, scale), n_tasks=_scaled(50, scale),
            n_requesters=5,
        ),
        seed=seed,
    )
    problem = MBAProblem(market, combiner=LinearCombiner(0.5))
    # Budgets set to ~60 % of each requester's posted payment volume.
    volume: dict[int, float] = {}
    for task in market.tasks:
        volume[task.requester_id] = (
            volume.get(task.requester_id, 0.0)
            + task.payment * task.replication
        )
    budgets = {r: 0.6 * v for r, v in volume.items()}

    settings = {
        "none": [],
        "budget(60%)": [BudgetConstraint(budgets)],
        "min-accuracy(0.7)": [MinAccuracyConstraint(0.7)],
        "diversity(1/cat)": [CategoryDiversityConstraint(1)],
        "all three": [
            BudgetConstraint(budgets),
            MinAccuracyConstraint(0.7),
            CategoryDiversityConstraint(1),
        ],
    }
    baseline = None
    for name, constraints in settings.items():
        assignment = get_solver(
            "constrained-greedy", constraints=constraints
        ).solve(problem, seed=0)
        value = assignment.combined_total()
        if baseline is None:
            baseline = value
        table.add_row(
            name, value, len(assignment),
            value / baseline if baseline else float("nan"),
        )
    return table


# ---------------------------------------------------------------------------
# F17 — candidate-pruning ablation (quality vs speed)
# ---------------------------------------------------------------------------

def figure17_pruning(scale: float = 1.0, seed: int = 0) -> Table:
    """F17: pruned-greedy quality and runtime as k grows."""
    table = Table(
        "Figure 17: top-k pruning — value ratio to flow and runtime",
        ["k", "value ratio", "runtime (s)", "flow runtime (s)"],
        float_format="{:.4f}",
    )
    market = generate_market(
        SyntheticConfig(
            n_workers=_scaled(400, scale, 40),
            n_tasks=_scaled(200, scale, 20),
        ),
        seed=seed,
    )

    def timed(solver) -> tuple[float, float]:
        """(value, median seconds of three solves), each on a fresh
        problem (no cached top-k mask) with its benefits prebuilt."""
        seconds = []
        for _ in range(3):
            problem = MBAProblem(market, combiner=LinearCombiner(0.5))
            problem.benefits
            with Timer() as timer:
                assignment = solver.solve(problem)
            seconds.append(timer.elapsed)
        return assignment.combined_total(), float(np.median(seconds))

    flow_value, flow_seconds = timed(get_solver("flow"))
    for k in (1, 2, 5, 10, 20, 50):
        value, seconds = timed(get_solver("pruned-greedy", k=k))
        table.add_row(
            k,
            value / flow_value if flow_value > 0 else float("nan"),
            seconds,
            flow_seconds,
        )
    return table


# ---------------------------------------------------------------------------
# F18 — stability/benefit frontier for incremental re-assignment
# ---------------------------------------------------------------------------

def figure18_stability(scale: float = 1.0, seed: int = 0) -> Table:
    """F18: sweeping the stability bonus trades benefit for retention."""
    from repro.core.solvers.incremental import edge_ids, retention_overlap

    table = Table(
        "Figure 18: incremental re-solve — retained edges vs benefit",
        ["stability bonus", "edge retention", "combined benefit",
         "vs re-solve"],
    )
    import dataclasses

    rng = as_rng(seed)
    market_a = generate_market(
        SyntheticConfig(
            n_workers=_scaled(100, scale), n_tasks=_scaled(50, scale)
        ),
        seed=rng,
    )
    problem_a = MBAProblem(market_a, combiner=LinearCombiner(0.5))
    previous = get_solver("flow").solve(problem_a, seed=0)
    previous_ids = edge_ids(problem_a, previous)

    # Round 2: the same market a day later — skills drift slightly and
    # ~10 % of workers are away.
    drifted_workers = []
    for worker in market_a.workers:
        skills = np.clip(
            worker.skills + rng.normal(0.0, 0.05, worker.skills.shape),
            0.0, 1.0,
        )
        drifted = dataclasses.replace(worker, skills=skills)
        drifted.active = rng.random() >= 0.1
        drifted_workers.append(drifted)
    market_b = type(market_a)(
        drifted_workers, market_a.tasks, market_a.taxonomy,
        market_a.requesters,
    )
    problem_b = MBAProblem(market_b, combiner=LinearCombiner(0.5))
    fresh_value = get_solver("flow").solve(problem_b, seed=0).combined_total()
    for bonus in (0.0, 0.1, 0.25, 0.5, 1.0, 2.0):
        solver = get_solver(
            "incremental-flow",
            previous_edge_ids=previous_ids,
            stability_bonus=bonus,
        )
        assignment = solver.solve(problem_b, seed=0)
        table.add_row(
            bonus,
            retention_overlap(previous_ids, problem_b, assignment),
            assignment.combined_total(),
            assignment.combined_total() / fresh_value
            if fresh_value > 0
            else float("nan"),
        )
    return table


# ---------------------------------------------------------------------------
# F19 — matching-theory comparison: deferred acceptance vs MBA
# ---------------------------------------------------------------------------

def figure19_stable(scale: float = 1.0, seed: int = 0) -> Table:
    """F19: total benefit vs blocking pairs across solver families.

    Deferred acceptance embodies matching theory's "no pair would
    deviate" notion of mutual agreeability; the MBA solvers maximize
    total benefit.  The table shows what each family gives up.
    """
    from repro.core.solvers.stable import StableMatchingSolver

    table = Table(
        "Figure 19: deferred acceptance vs MBA solvers",
        ["solver", "combined benefit", "blocking pairs",
         "requester benefit", "worker benefit"],
    )
    market = generate_market(
        SyntheticConfig(
            n_workers=_scaled(80, scale), n_tasks=_scaled(40, scale)
        ),
        seed=seed,
    )
    problem = MBAProblem(market, combiner=LinearCombiner(0.5))
    for solver_name in ("stable-matching", "flow", "greedy",
                        "quality-only", "random"):
        assignment = get_solver(solver_name).solve(problem, seed=0)
        table.add_row(
            solver_name,
            assignment.combined_total(),
            StableMatchingSolver.count_blocking_pairs(problem, assignment),
            assignment.requester_total(),
            assignment.worker_total(),
        )
    return table


# ---------------------------------------------------------------------------
# F20 — continuous-time load sweep (streaming dispatcher)
# ---------------------------------------------------------------------------

def figure20_load(scale: float = 1.0, seed: int = 0) -> Table:
    """F20: fill rate and per-assignment benefit vs supply/demand ratio.

    The streaming dispatcher posts tasks and logs workers in at
    Poisson rates; sweeping the worker rate against a fixed task rate
    traces the under- to over-supplied regimes, for the greedy and
    sample-price policies.  Every entity arrives exactly once, so each
    ratio gets its own market sized to the rates: ``rate × H`` tasks
    and workers for a nominal horizon ``H``.
    """
    from repro.stream import DispatchConfig, StreamDispatcher

    table = Table(
        "Figure 20: continuous-time load sweep (fill rate / mean benefit)",
        ["supply ratio", "greedy fill", "sample-price fill",
         "greedy mean benefit", "sample-price mean benefit"],
    )
    task_rate = 2.0
    horizon = 120.0 * min(scale, 1.0) + 30.0
    for ratio in (0.25, 0.5, 1.0, 2.0, 4.0):
        worker_rate = task_rate * ratio
        market = generate_market(
            SyntheticConfig(
                n_workers=round(worker_rate * horizon),
                n_tasks=round(task_rate * horizon),
            ),
            seed=seed,
        )
        fills = {}
        means = {}
        for policy in ("greedy", "sample-price"):
            config = DispatchConfig(
                policy=policy,
                task_rate=task_rate,
                worker_rate=worker_rate,
                deadline=8.0,
                session_length=4.0,
            )
            result = StreamDispatcher(market, config).run(seed=seed + 3)
            fills[policy] = result.fill_rate
            means[policy] = (
                result.combined_benefit / result.assignments
                if result.assignments
                else float("nan")
            )
        table.add_row(
            ratio, fills["greedy"], fills["sample-price"],
            means["greedy"], means["sample-price"],
        )
    return table


# ---------------------------------------------------------------------------
# F21 — pricing ablation: as-posted vs optimized payments
# ---------------------------------------------------------------------------

def figure21_pricing(scale: float = 1.0, seed: int = 0) -> Table:
    """F21: what optimal per-task pricing buys, by worker scarcity.

    Payments are re-optimized per task (surplus-maximizing sweep over
    the workers' indifference prices) and the flow assignment is
    re-run.  The metric that pricing targets is the requester
    **surplus** — ``value_per_quality * realized quality − payments
    made`` — not the payment-scaled MBA benefit (cutting payments
    trivially lowers that); both are reported for honesty.
    """
    from repro.crowd.quality import knowledge_coverage_quality
    from repro.market.pricing import price_market

    value_per_quality = 3.0

    def requester_surplus(problem: MBAProblem, assignment) -> float:
        accuracy = problem.market.accuracy_matrix()
        surplus = 0.0
        for task_index, workers in assignment.workers_per_task().items():
            quality = knowledge_coverage_quality(
                [accuracy[i, task_index] for i in workers]
            )
            paid = problem.market.tasks[task_index].payment * len(workers)
            surplus += value_per_quality * quality - paid
        return surplus

    table = Table(
        "Figure 21: as-posted vs optimized payments (flow solver, "
        "value 3.0/quality-unit)",
        ["reservation level", "posted surplus", "repriced surplus",
         "posted worker benefit", "repriced worker benefit",
         "repriced mean pay"],
    )
    rngs = spawn_rngs(seed, 3)
    for reservation_fraction, rng in zip((0.1, 0.5, 1.0), rngs):
        market = generate_market(
            SyntheticConfig(
                n_workers=_scaled(80, scale),
                n_tasks=_scaled(40, scale),
                reservation_fraction=reservation_fraction,
            ),
            seed=rng,
        )
        repriced = price_market(market, value_per_quality=value_per_quality)
        surpluses = []
        worker_totals = []
        for candidate in (market, repriced):
            problem = MBAProblem(candidate, combiner=LinearCombiner(0.5))
            assignment = get_solver("flow").solve(problem, seed=0)
            surpluses.append(requester_surplus(problem, assignment))
            worker_totals.append(assignment.worker_total())
        table.add_row(
            f"res={reservation_fraction:.1f}x pay",
            surpluses[0], surpluses[1],
            worker_totals[0], worker_totals[1],
            float(repriced.task_payments().mean()),
        )
    return table


# ---------------------------------------------------------------------------
# F22 — scale-normalization ablation
# ---------------------------------------------------------------------------

def figure22_normalization(scale: float = 1.0, seed: int = 0) -> Table:
    """F22: does λ mean what it says?  Raw vs normalized side scales.

    On the upwork-like market the worker side's monetary units dwarf
    the requester side's quality units; with raw scales even a λ=0.9
    objective stays worker-dominated (requester share ≈ 1/3).
    Normalizing both sides moves the requester share toward parity at
    every λ — scale honesty, the precondition for the λ knob (F6) to
    mean anything across heterogeneous markets.
    """
    from repro.benefit.normalization import normalized_problem
    from repro.datagen.traces import upwork_like_market

    table = Table(
        "Figure 22: requester share of total side benefit vs lambda, "
        "raw vs normalized scales (upwork-like)",
        ["lambda", "raw req share", "normalized req share"],
    )
    market = upwork_like_market(
        n_workers=_scaled(120, scale), n_tasks=_scaled(50, scale),
        seed=seed,
    )

    def requester_share(problem: MBAProblem) -> float:
        assignment = get_solver("flow").solve(problem, seed=0)
        # Shares computed on the problem's own (possibly normalized)
        # matrices so both columns are comparable within themselves.
        req, wrk = assignment.requester_total(), assignment.worker_total()
        denominator = abs(req) + abs(wrk)
        return req / denominator if denominator > 0 else float("nan")

    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        raw = MBAProblem(market, combiner=LinearCombiner(lam))
        normalized = normalized_problem(
            market, combiner=LinearCombiner(lam)
        )
        table.add_row(lam, requester_share(raw), requester_share(normalized))
    return table


# ---------------------------------------------------------------------------
# F23 — skill drift: does the policy train tomorrow's workforce?
# ---------------------------------------------------------------------------

def figure23_drift(scale: float = 1.0, seed: int = 0) -> Table:
    """F23: long-run skill pool under learning-by-doing drift.

    With drift on, practiced skills grow and idle skills rust, so the
    assignment policy shapes the future pool.  The table tracks the
    population's mean skill and per-round requester benefit for MBA,
    quality-only (concentrates practice on the already-strong), and
    round-robin (spreads practice).
    """
    from repro.market.drift import SkillDriftModel

    n_rounds = max(int(20 * min(scale, 1.0)), 5)
    solvers = ("flow", "quality-only", "round-robin")
    table = Table(
        "Figure 23: learning-by-doing — final mean skill and requester "
        "benefit trajectory",
        ["solver", "mean skill r0", "mean skill final",
         "req benefit r0", "req benefit final"],
    )
    market = generate_market(
        SyntheticConfig(
            n_workers=_scaled(80, scale), n_tasks=_scaled(30, scale),
            skill_low=0.55, skill_high=0.8,
        ),
        seed=seed,
    )
    drift = SkillDriftModel(learning_rate=0.1, decay_rate=0.02)
    skill_start = float(np.mean([w.skills.mean() for w in market.workers]))
    for solver_name in solvers:
        # The Simulation (drift enabled) provides the benefit
        # trajectory; a deterministic manual replay of the same rounds
        # exposes the drifted skill pool, which RoundMetrics does not
        # carry.
        scenario = Scenario(
            market=market, solver_name=solver_name, n_rounds=n_rounds,
            retention=None, drift=drift,
        )
        result = Simulation(scenario).run(seed=seed + 5)
        req = result.series("requester_benefit")

        import dataclasses

        from repro.market.market import LaborMarket

        live_workers = [
            dataclasses.replace(w, skills=w.skills.copy())
            for w in market.workers
        ]
        live = LaborMarket(
            live_workers, market.tasks, market.taxonomy, market.requesters
        )
        solver = get_solver(solver_name)
        for _round in range(n_rounds):
            problem = MBAProblem(live, combiner=LinearCombiner(0.5))
            assignment = solver.solve(problem, seed=0)
            drift.apply(live, list(assignment.edges))
        skill_final = float(
            np.mean([w.skills.mean() for w in live.workers])
        )
        table.add_row(
            solver_name, skill_start, skill_final,
            float(req[0]), float(req[-1]),
        )
    return table


# ---------------------------------------------------------------------------
# F24 — graceful degradation under injected faults
# ---------------------------------------------------------------------------

def figure24_faults(scale: float = 1.0, seed: int = 0) -> Table:
    """F24: benefit and accuracy vs. injected fault rate.

    Sweeps a uniform :class:`~repro.resilience.FaultPlan` (fixed plan
    seed, so every cell sees the same fault draws) over greedy and
    mutual-benefit (flow) policies with the resilient executor on.
    Expected shape: degradation is *graceful* — benefit and accuracy
    decline roughly in proportion to the fault rate, with no cliff —
    and mutual benefit keeps its edge over greedy at every rate.
    """
    from repro.resilience import FaultPlan

    n_rounds = max(int(12 * min(scale, 1.0)), 4)
    rates = (0.0, 0.05, 0.1, 0.2, 0.4)
    market = generate_market(
        SyntheticConfig(
            n_workers=_scaled(60, scale), n_tasks=_scaled(24, scale),
        ),
        seed=seed,
    )
    table = Table(
        "Figure 24: per-round benefit and accuracy vs. injected fault "
        "rate (resilient executor on)",
        ["fault rate", "greedy benefit", "greedy accuracy",
         "mba benefit", "mba accuracy", "degraded rounds"],
    )
    for rate in rates:
        # One plan per rate, shared across solvers: both policies face
        # the identical fault draws, so the comparison is paired.
        plan = FaultPlan.uniform(rate, seed=17)
        row: list[float] = [rate]
        degraded = 0
        for solver_name in ("greedy", "flow"):
            scenario = Scenario(
                market=market,
                solver_name=solver_name,
                n_rounds=n_rounds,
                retention=None,
                fault_plan=plan,
                resilience="default",
            )
            result = Simulation(scenario).run(seed=seed + 3)
            row.append(float(result.series("combined_benefit").mean()))
            row.append(result.mean_accuracy)
            degraded += result.degraded_rounds
        row.append(degraded)
        table.add_row(*row)
    return table


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[..., Table]] = {
    "T1": table1_datasets,
    "T2": table2_effectiveness,
    "T3": table3_quality,
    "T4": table4_worker_outcomes,
    "F5": figure5_longrun,
    "F6": figure6_lambda,
    "F7": figure7_scale_workers,
    "F8": figure8_scale_tasks,
    "F9": figure9_online,
    "F10": figure10_replication,
    "F11": figure11_distributions,
    "F12": figure12_optimality,
    "F13": figure13_aggregation,
    "F14": figure14_combiners,
    "F15": figure15_estimation,
    "F16": figure16_constraints,
    "F17": figure17_pruning,
    "F18": figure18_stability,
    "F19": figure19_stable,
    "F20": figure20_load,
    "F21": figure21_pricing,
    "F22": figure22_normalization,
    "F23": figure23_drift,
    "F24": figure24_faults,
}


def run_experiment(
    experiment_id: str, scale: float = 1.0, seed: int = 0
) -> Table:
    """Run one experiment by id (e.g. ``"T2"``, ``"F9"``)."""
    try:
        function = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"known: {sorted(EXPERIMENTS)}"
        ) from None
    return function(scale=scale, seed=seed)
