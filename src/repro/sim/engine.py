"""The round-based simulation engine."""

from __future__ import annotations

import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.assignment import Assignment
from repro.core.fairness import benefit_gini
from repro.core.problem import MBAProblem
from repro.core.solvers import get_solver
from repro.crowd.aggregation import get_aggregator
from repro.crowd.answer_model import AnswerSet, simulate_answers
from repro.crowd.estimation import BetaSkillEstimator
from repro.errors import (
    InfeasibleError,
    ResilienceExhaustedError,
    SolverError,
    ValidationError,
)
from repro.market.market import LaborMarket
from repro.market.retention import RetentionModel
from repro.resilience import CheckpointStore, ResilientSolver, SolveReport
from repro.sim.metrics import RoundMetrics, SimulationResult
from repro.sim.scenario import Scenario
from repro.utils.atomic import atomic_write_bytes
from repro.utils.rng import SeedLike, as_rng
from repro.utils.timer import Timer

SIM_STATE_SCHEMA = "repro-sim-checkpoint/1"
_STATE_NAME = "state.pkl"


class Simulation:
    """Runs a :class:`Scenario` to completion.

    The engine owns the feedback loops: benefits received this round
    move worker satisfaction, satisfaction moves participation, and —
    when an estimator is configured — each round's answers refine the
    skill estimates the next round's assignment plans with.

    Each :meth:`run` is independent: the scenario's market, retention
    model, and estimator are never mutated — workers are copied and the
    stateful models start fresh — so the same scenario can be run with
    several solvers or seeds and compared fairly.

    The engine degrades gracefully instead of crashing: a solver that
    fails a round (even without a resilience policy) costs that round,
    not the run; injected faults (see
    :class:`repro.resilience.FaultPlan`) remove the affected edges
    from realization and accounting; and every degradation is recorded
    in :class:`RoundMetrics` (``faulted_edges``, ``solver_retries``,
    ``fallback_tier``, ``solver_wall_time``) so it is visible, never
    silent.
    """

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._mean_accuracy_cache: dict[int, float] | None = None

    def run(
        self,
        seed: SeedLike = None,
        checkpoint: str | Path | None = None,
        resume: bool = False,
        checkpoint_every: int = 1,
    ) -> SimulationResult:
        """Simulate the scenario, optionally durably.

        ``checkpoint`` names a directory: after each completed round
        the full mutable state (RNG, workers, retention, estimator,
        solver memory, collected metrics) is pickled, and the snapshot
        is written atomically every ``checkpoint_every`` rounds, at
        the final round, and on ``KeyboardInterrupt`` (which then
        re-raises, so callers see the interrupt).  ``resume=True``
        restores the latest snapshot and continues — the resumed run
        is bit-identical to one that never stopped, because the
        snapshot carries the exact generator state.

        The checkpoint fingerprint covers everything that shapes the
        per-round values *except* ``n_rounds``, so an interrupted
        3-round checkpoint can resume into a 10-round horizon.
        ``task_refresh`` is code, not data — changing it between runs
        is not detected.
        """
        rng = as_rng(seed)
        self._mean_accuracy_cache = None
        scenario = self.scenario
        if checkpoint_every < 1:
            raise ValidationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if resume and checkpoint is None:
            raise ValidationError(
                "resume=True needs a checkpoint directory to resume "
                "from"
            )
        store = (
            CheckpointStore(checkpoint, self._fingerprint(rng))
            if checkpoint is not None
            else None
        )
        policy = scenario.resilience_policy()
        if policy is not None:
            solver = ResilientSolver(
                primary=scenario.solver_name,
                policy=policy,
                solver_kwargs=scenario.solver_kwargs,
            )
        else:
            solver = get_solver(
                scenario.solver_name, **scenario.solver_kwargs
            )
        plan = scenario.fault_plan
        result = SimulationResult(solver_name=scenario.solver_name)

        # Private copies so runs never contaminate each other.  Skill
        # and interest arrays are copied too: the drift model mutates
        # skills in place.
        base = scenario.market
        workers = [
            w.clone(w.skills.copy(), w.interests.copy())
            for w in base.workers
        ]
        retention = (
            dataclasses.replace(scenario.retention, _satisfaction={})
            if scenario.retention is not None
            else None
        )
        estimator = (
            dataclasses.replace(scenario.estimator, _counts={})
            if scenario.estimator is not None
            else None
        )

        start_round = 0
        latest: bytes | None = None
        # The last round's planning problem: the next one takes over
        # its benefit matrices (MBAProblem.succeed).  A resumed run
        # starts without one.
        previous: MBAProblem | None = None
        if resume and store is not None:
            snapshot = self._load_snapshot(store)
            if snapshot is not None:
                rng = snapshot["rng"]
                workers = snapshot["workers"]
                retention = snapshot["retention"]
                estimator = snapshot["estimator"]
                solver = snapshot["solver"]
                result.rounds = snapshot["rounds"]
                start_round = snapshot["next_round"]
                with obs.span(
                    "runtime.resume", kind="simulation",
                    rounds=start_round,
                ):
                    obs.count(
                        "resilience.runtime.checkpoint.hits", start_round
                    )
        if start_round > scenario.n_rounds:
            # Resuming into a *shorter* horizon: the extra rounds are
            # already computed; report exactly the asked-for prefix.
            result.rounds = result.rounds[: scenario.n_rounds]
            start_round = scenario.n_rounds

        def _run_round(round_index: int, round_span) -> None:
            nonlocal previous
            faults = (
                plan.for_round(round_index) if plan is not None else None
            )
            tasks = self._round_tasks(round_index)
            market = LaborMarket(
                workers, tasks, base.taxonomy, base.requesters
            )
            active = market.active_worker_indices()
            if not tasks or not active:
                # Nothing posted, or nobody to do it: an empty
                # round, not an error — the run continues.
                obs.count("sim.empty_rounds")
                round_span.tag(outcome="empty")
                result.rounds.append(
                    self._empty_round(round_index, market)
                )
                return

            # Plan on estimated skills when an estimator is
            # configured; account and realize on the true market
            # either way, reading it at the assigned edges only.
            true_problem = MBAProblem(market, combiner=scenario.combiner)
            planning_problem = (
                MBAProblem(
                    estimator.estimated_market(market),
                    combiner=scenario.combiner,
                )
                if estimator is not None
                else true_problem
            )
            planning_problem.succeed(previous)
            previous = planning_problem
            with obs.span(
                "assign", solver=scenario.solver_name
            ) as assign_span:
                planned, report = self._solve_round(
                    solver, planning_problem, rng, faults
                )
                assign_span.tag(
                    tier=report.tier, retries=report.retries
                )
                # Warm-start-capable solvers report how they served the
                # round (replay / warm / cold); tag it so obs diffs can
                # attribute assign-time shifts to warm-hit-rate shifts.
                warm_outcome = getattr(solver, "last_warm_outcome", None)
                if warm_outcome is not None:
                    assign_span.tag(warm=warm_outcome)
                    obs.count(f"sim.warm.{warm_outcome}")
            obs.count("sim.solver_retries", report.retries)
            if planned is None:
                # Infeasible round or exhausted solver stack: the
                # round is lost, the run continues.
                obs.count("sim.degraded_rounds")
                round_span.tag(outcome="degraded")
                result.rounds.append(
                    self._empty_round(
                        round_index,
                        market,
                        solver_retries=report.retries,
                        fallback_tier=-1,
                        solver_wall_time=report.wall_time,
                    )
                )
                return
            assignment = Assignment(
                true_problem, list(planned.edges), solver_name=solver.name
            )

            declined = 0
            if scenario.workers_decline:
                worker = assignment.edge_values[1].tolist()
                accepted = [
                    edge
                    for edge, value in zip(assignment.edges, worker)
                    if value >= 0
                ]
                declined = len(assignment.edges) - len(accepted)
                assignment = Assignment(
                    true_problem, accepted, solver_name=solver.name
                )

            # Unfulfilled edges — worker no-shows and mid-round
            # task cancellations — vanish from realization *and*
            # accounting: no answer, no pay, no practice, no
            # satisfaction.
            faulted = 0
            if faults is not None:
                assignment, faulted = self._apply_edge_faults(
                    true_problem, assignment, faults, market.n_tasks
                )

            solver.observe_round(true_problem, assignment)

            # Dropped answers: the work happened (and is paid /
            # accounted), but the answer never reaches aggregation.
            dropped = (
                faults.dropped_answers(assignment.edges)
                if faults is not None
                else frozenset()
            )
            accuracy, answers, labels = self._realize_answers(
                market, assignment, rng, dropped
            )
            faulted += len(dropped)
            if estimator is not None and answers is not None:
                with obs.span(
                    "estimate", tasks=answers.task_groups[0].size
                ):
                    self._update_estimator(
                        estimator, market, answers, labels, rng
                    )
            churned = self._apply_retention(
                retention, market, assignment, rng
            )
            if scenario.drift is not None:
                scenario.drift.apply(market, list(assignment.edges))

            obs.count("sim.rounds")
            round_span.tag(outcome="ok", edges=len(assignment))
            obs.count("sim.assigned_edges", len(assignment))
            obs.count("sim.declined_edges", declined)
            obs.count("sim.faulted_edges", faulted)
            obs.count("sim.churned_workers", churned)
            result.rounds.append(
                RoundMetrics(
                    round_index=round_index,
                    n_active_workers=len(active),
                    n_assigned_edges=len(assignment),
                    requester_benefit=assignment.requester_total(),
                    worker_benefit=assignment.worker_total(),
                    combined_benefit=assignment.combined_total(),
                    aggregated_accuracy=accuracy,
                    participation_rate=(
                        sum(w.active for w in market.workers)
                        / market.n_workers
                    ),
                    benefit_gini=benefit_gini(assignment),
                    churned_workers=churned,
                    declined_edges=declined,
                    faulted_edges=faulted,
                    solver_retries=report.retries,
                    fallback_tier=report.tier,
                    solver_wall_time=report.wall_time,
                )
            )

        state_path = (
            store.root / _STATE_NAME if store is not None else None
        )
        try:
            for round_index in range(start_round, scenario.n_rounds):
                with obs.span("round", index=round_index) as round_span:
                    _run_round(round_index, round_span)
                self._scrape_round(result.rounds[-1])
                if store is None:
                    continue
                # Serialize after *every* round (the only moment the
                # state is consistent) so an interrupt always has a
                # snapshot to flush; write it out on the configured
                # cadence and at the end of the run.
                latest = self._snapshot_bytes(
                    store, round_index + 1, rng, workers, retention,
                    estimator, solver, result,
                )
                rounds_done = round_index + 1 - start_round
                if (
                    rounds_done % checkpoint_every == 0
                    or round_index + 1 == scenario.n_rounds
                ):
                    atomic_write_bytes(state_path, latest)
                    obs.count("resilience.runtime.checkpoint.writes")
        except KeyboardInterrupt:
            if state_path is not None and latest is not None:
                atomic_write_bytes(state_path, latest)
                obs.count("resilience.runtime.checkpoint.writes")
            obs.count("resilience.runtime.interrupts")
            raise
        if obs.enabled():
            # Snapshot of the active tracer's metrics as of run end —
            # exactly this run's numbers when the run is traced in
            # isolation (``with obs.tracing(): sim.run()``), cumulative
            # when several runs share one tracer.
            result.report = obs.RunReport.from_tracer(obs.active())
        return result

    # -- checkpointing ---------------------------------------------------

    def _fingerprint(self, rng) -> dict:
        """What makes checkpointed rounds reusable.

        Everything that shapes per-round values: the market, the full
        model stack (via their stable dataclass/custom reprs), and the
        *initial* generator state.  ``n_rounds`` is deliberately
        absent — the horizon says how long to run, not what the rounds
        contain — so a short run's checkpoint extends into a longer
        one.  ``task_refresh`` is a callable (code, not data) and
        cannot be fingerprinted; see :meth:`run`.
        """
        from repro.io import market_to_dict

        scenario = self.scenario
        policy = scenario.resilience_policy()
        return {
            "kind": "simulation",
            "market": market_to_dict(scenario.market),
            "solver": scenario.solver_name,
            "solver_kwargs": scenario.solver_kwargs,
            "combiner": repr(scenario.combiner),
            "retention": repr(scenario.retention),
            "estimator": repr(scenario.estimator),
            "drift": repr(scenario.drift),
            "fault_plan": repr(scenario.fault_plan),
            "aggregator": scenario.aggregator,
            "gold_fraction": scenario.gold_fraction,
            "workers_decline": scenario.workers_decline,
            "resilience": repr(policy),
            "rng_state": rng.bit_generator.state,
        }

    def _snapshot_bytes(
        self, store, next_round, rng, workers, retention, estimator,
        solver, result,
    ) -> bytes:
        payload = {
            "schema": SIM_STATE_SCHEMA,
            "fingerprint_id": store.fingerprint_id,
            "next_round": next_round,
            "rng": rng,
            "workers": workers,
            "retention": retention,
            "estimator": estimator,
            # The whole solver object: history-aware solvers (previous
            # edges) and warm-start wrappers (WarmState with prices /
            # replayable edges) resume bit-identically
            # because their cross-round state pickles with them.
            "solver": solver,
            "rounds": list(result.rounds),
        }
        try:
            return pickle.dumps(payload)
        except (pickle.PicklingError, TypeError, AttributeError) as error:
            raise ValidationError(
                "simulation state is not picklable, so it cannot be "
                f"checkpointed ({error}); drop the checkpoint option "
                "or make the scenario's models picklable"
            ) from None

    @staticmethod
    def _load_snapshot(store) -> dict | None:
        """The latest state snapshot, or ``None`` for a fresh start."""
        path = store.root / _STATE_NAME
        if not path.exists():
            return None
        try:
            payload = pickle.loads(path.read_bytes())
        except (pickle.UnpicklingError, EOFError, AttributeError):
            raise ValidationError(
                f"checkpoint state {path} is unreadable — remove the "
                "checkpoint directory to start fresh"
            ) from None
        if payload.get("schema") != SIM_STATE_SCHEMA:
            raise ValidationError(
                f"{path} has schema {payload.get('schema')!r}, "
                f"expected {SIM_STATE_SCHEMA!r}"
            )
        if payload.get("fingerprint_id") != store.fingerprint_id:
            raise ValidationError(
                f"checkpoint state {path} belongs to a different run "
                "configuration — point --checkpoint at a fresh "
                "directory"
            )
        return payload

    # -- helpers ---------------------------------------------------------

    def _solve_round(
        self, solver, planning_problem: MBAProblem, rng, faults
    ) -> tuple[Assignment | None, SolveReport]:
        """One round's solve, degraded instead of crashed.

        Returns ``(assignment, report)``; ``assignment`` is ``None``
        when the round is infeasible or every solver tier failed, with
        the report describing what was attempted.
        """
        forced = faults.solver_failure() if faults is not None else None
        planned: Assignment | None = None
        report: SolveReport | None = None
        failed_retries = 0
        with Timer() as timer:
            try:
                planning_problem.require_nonempty_feasible()
                if isinstance(solver, ResilientSolver):
                    planned, report = solver.solve_resilient(
                        planning_problem, seed=rng, forced_failure=forced
                    )
                elif forced is not None:
                    # Fault injection without a resilience policy: the
                    # bare solver has no retry stack, so a forced
                    # failure simply costs the round.
                    failed_retries = 1
                else:
                    planned = solver.solve(planning_problem, seed=rng)
            except InfeasibleError:
                failed_retries = 0
            except ResilienceExhaustedError as error:
                failed_retries = len(error.attempts)
            except SolverError:
                failed_retries = 1
        if planned is not None:
            if report is None:
                report = SolveReport(
                    solver_name=solver.name,
                    tier=0,
                    retries=0,
                    wall_time=timer.elapsed,
                )
            return planned, report
        return None, SolveReport(
            solver_name=solver.name,
            tier=-1,
            retries=failed_retries,
            wall_time=timer.elapsed,
        )

    @staticmethod
    def _apply_edge_faults(
        true_problem: MBAProblem,
        assignment: Assignment,
        faults,
        n_tasks: int,
    ) -> tuple[Assignment, int]:
        """Remove no-show and cancelled-task edges from the assignment."""
        edges = assignment.edges
        cancelled = faults.cancelled_tasks(n_tasks)
        no_shows = faults.no_shows(edges)
        kept = [
            edge
            for edge in edges
            if edge[1] not in cancelled and edge not in no_shows
        ]
        faulted = len(edges) - len(kept)
        if faulted == 0:
            return assignment, 0
        return (
            Assignment(
                true_problem, kept, solver_name=assignment.solver_name
            ),
            faulted,
        )

    def _round_tasks(self, round_index: int) -> list:
        scenario = self.scenario
        if scenario.task_refresh is not None:
            return scenario.task_refresh(round_index)
        # Default: replay the market's initial tasks each round.  Task
        # ids are deliberately *stable* across rounds — they denote the
        # recurring task, which is what history-aware solvers (e.g.
        # incremental-flow) key their memory on.
        return list(scenario.market.tasks)

    def _realize_answers(
        self,
        market,
        assignment,
        rng,
        dropped: frozenset[tuple[int, int]] = frozenset(),
    ) -> tuple[float, AnswerSet | None, dict[int, int]]:
        """Simulate answers, aggregate, score against ground truth.

        ``dropped`` edges produce an answer (the worker did the work,
        so the RNG stream advances identically either way) that is then
        lost before aggregation — tasks left with no surviving answer
        are not scored.
        """
        edges = list(assignment.edges)
        if not edges:
            return float("nan"), None, {}
        with obs.span("simulate", edges=len(edges)):
            answers = simulate_answers(market, edges, seed=rng)
        if dropped:
            answers = self._drop_answers(answers, dropped)
            if not answers.n_answers():
                return float("nan"), None, {}
        aggregator = get_aggregator(self.scenario.aggregator)
        with obs.span(
            "aggregate",
            aggregator=aggregator.name,
            tasks=answers.task_groups[0].size,
        ):
            # Weight-hungry aggregators get the planner-known
            # accuracies (the planner's model of workers; estimation
            # from data is exercised by the dawid-skene option).
            weights = (
                self._weighted_mean_accuracy(market)
                if aggregator.needs_weights
                else None
            )
            labels = aggregator.run(answers, weights=weights, seed=rng)
        task_ids, _ = answers.task_groups
        correct = sum(
            labels[task] == answers.truths[task]
            for task in task_ids.tolist()
        )
        return correct / task_ids.size, answers, labels

    def _weighted_mean_accuracy(self, market) -> dict[int, float]:
        """Per-worker mean planner accuracy for the weighted aggregator.

        The full ``accuracy_matrix`` is an (n_workers, n_tasks) build
        per call; with neither skill drift nor task refresh configured
        the planner model never changes between rounds, so the means
        are computed once per run and reused.  Any drift or refresh
        disables the cache (worker churn only toggles ``active`` flags,
        which do not enter the accuracy matrix).
        """
        scenario = self.scenario
        cacheable = (
            scenario.drift is None and scenario.task_refresh is None
        )
        if cacheable and self._mean_accuracy_cache is not None:
            return self._mean_accuracy_cache
        accuracy_matrix = market.accuracy_matrix()
        means = accuracy_matrix.mean(axis=1)
        mean_accuracy = {
            i: float(means[i]) for i in range(market.n_workers)
        }
        if cacheable:
            self._mean_accuracy_cache = mean_accuracy
        return mean_accuracy

    @staticmethod
    def _drop_answers(
        answers: AnswerSet, dropped: frozenset[tuple[int, int]]
    ) -> AnswerSet:
        """A copy of ``answers`` without the dropped edges' answers."""
        lost = np.array(sorted(dropped), dtype=np.int64).reshape(-1, 2)
        span = int(max(answers.tasks.max(), lost[:, 1].max())) + 1
        keep = ~np.isin(
            answers.workers * span + answers.tasks,
            lost[:, 0] * span + lost[:, 1],
        )
        answered = set(answers.tasks[keep].tolist())
        return AnswerSet(
            answers.tasks[keep],
            answers.workers[keep],
            answers.votes[keep],
            {t: v for t, v in answers.truths.items() if t in answered},
        )

    def _update_estimator(
        self,
        estimator: BetaSkillEstimator,
        market,
        answers: AnswerSet,
        labels: dict[int, int],
        rng,
    ) -> None:
        """Gold tasks reveal truth; the rest teach via aggregated labels.

        Aggregated labels only teach when the committee has at least
        three members: with one or two answers the label is (close to)
        the worker's own vote, so "agreement" would be self-confirming
        noise that inflates every estimate.  Gold flags are one
        ``rng.random`` draw per answered task, in first-answer order.
        """
        task_ids, group = answers.task_groups
        # ``random(n)`` is the same stream as ``n`` scalar ``random()``
        # calls, so seeded runs draw the same flags as a per-task loop.
        gold = rng.random(task_ids.size) < self.scenario.gold_fraction
        committee = np.bincount(group, minlength=task_ids.size)
        reference: dict[int, int] = {}
        for task_index, is_gold, size in zip(
            task_ids.tolist(), gold.tolist(), committee.tolist()
        ):
            if is_gold:
                reference[task_index] = answers.truths[task_index]
            elif task_index in labels and size >= 3:
                reference[task_index] = labels[task_index]
        estimator.record_answers(market, answers, reference)

    @staticmethod
    def _apply_retention(
        retention: RetentionModel | None, market, assignment, rng
    ) -> int:
        if retention is None:
            return 0
        received = assignment.per_worker_benefit()
        benefits = {
            market.workers[i].worker_id: received.get(i, 0.0)
            for i in range(market.n_workers)
            if market.workers[i].active
        }
        retention.record_round(benefits)
        return len(retention.apply(market, seed=rng))

    @staticmethod
    def _scrape_round(metrics: RoundMetrics) -> None:
        """Feed one finished round into the live-telemetry store.

        The engine's logical clock is the round index: round ``i``
        lands in window ``i`` of the active tracer's store regardless
        of the configured window width (``bucket_time`` addresses the
        bucket directly), so the same SLO catalogue that watches a
        streaming run watches a batch run per-round.  No-op when
        tracing is off or no store was created.
        """
        store = obs.timeseries_store()
        if store is None:
            return
        t = store.bucket_time(metrics.round_index)
        store.count(
            "sim.assigned_edges", t, float(metrics.n_assigned_edges)
        )
        store.gauge(
            "market.benefit_gini", t, float(metrics.benefit_gini)
        )
        store.gauge(
            "market.participation", t, float(metrics.participation_rate)
        )
        store.gauge(
            "market.worker_benefit", t, float(metrics.worker_benefit)
        )
        if not math.isnan(metrics.aggregated_accuracy):
            store.gauge(
                "sim.accuracy", t, float(metrics.aggregated_accuracy)
            )

    @staticmethod
    def _empty_round(
        round_index: int,
        market,
        solver_retries: int = 0,
        fallback_tier: int = 0,
        solver_wall_time: float = 0.0,
    ) -> RoundMetrics:
        return RoundMetrics(
            round_index=round_index,
            n_active_workers=len(market.active_worker_indices()),
            n_assigned_edges=0,
            requester_benefit=0.0,
            worker_benefit=0.0,
            combined_benefit=0.0,
            aggregated_accuracy=float("nan"),
            participation_rate=(
                sum(w.active for w in market.workers) / market.n_workers
                if market.n_workers
                else 0.0
            ),
            benefit_gini=0.0,
            churned_workers=0,
            solver_retries=solver_retries,
            fallback_tier=fallback_tier,
            solver_wall_time=solver_wall_time,
        )
