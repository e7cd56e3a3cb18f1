"""Tests for the streaming dispatch service.

Includes the two property tests the streaming layer is pinned by:
round mode is bit-identical to running the batch engine directly, and
greedy dispatch reproduces ``online_greedy_matching`` on identical
arrival orders.
"""

import dataclasses
import gc
import hashlib
import types
import weakref

import numpy as np
import pytest

from repro import obs
from repro.benefit import LinearCombiner, RowwiseBenefit, build_benefit_matrices
from repro.core.problem import MBAProblem
from repro.core.solvers import auction_solver
from repro.datagen.synthetic import SyntheticConfig, generate_market
from repro.errors import ConfigurationError, ValidationError
from repro.market.arrivals import TraceArrivals
from repro.market.categories import CategoryTaxonomy
from repro.market.market import LaborMarket
from repro.matching.online import online_greedy_matching
from repro.sim.engine import Simulation
from repro.sim.scenario import Scenario
from repro.stream import (
    DISPATCH_POLICIES,
    ONLINE_POLICIES,
    DispatchConfig,
    GreedyPolicy,
    MicroBatchPolicy,
    SamplePricePolicy,
    StreamDispatcher,
    make_policy,
)


def _market(seed=0, **kwargs):
    defaults = dict(n_workers=15, n_tasks=12)
    defaults.update(kwargs)
    return generate_market(SyntheticConfig(**defaults), seed=seed)


def _unit_capacity(market):
    workers = [
        dataclasses.replace(w, capacity=1) for w in market.workers
    ]
    return LaborMarket(
        workers, market.tasks, market.taxonomy, market.requesters
    )


def _pairs(result):
    return [(r.worker_index, r.task_index) for r in result.records]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"policy": "auction"},
            {"task_rate": 0.0},
            {"worker_rate": -1.0},
            {"deadline": 0.0},
            {"session_length": 0.0},
            {"batch_window": 0.0},
            {"sample_fraction": 1.5},
            {"max_open_tasks": -1},
            {"writer_batch": 0},
            {"round_rounds": 0},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigurationError):
            DispatchConfig(**kwargs)

    def test_round_is_a_policy(self):
        assert "round" in DISPATCH_POLICIES
        DispatchConfig(policy="round")

    def test_empty_market_rejected(self, taxonomy):
        with pytest.raises(ValidationError):
            StreamDispatcher(LaborMarket([], [], taxonomy))

    def test_round_mode_has_no_incremental_stream(self):
        dispatcher = StreamDispatcher(
            _market(), DispatchConfig(policy="round")
        )
        with pytest.raises(ConfigurationError):
            next(dispatcher.dispatch(seed=0))


class TestMakePolicy:
    def test_mapping(self):
        assert isinstance(
            make_policy(DispatchConfig(policy="greedy"), 10), GreedyPolicy
        )
        assert isinstance(
            make_policy(DispatchConfig(policy="sample-price"), 10),
            SamplePricePolicy,
        )
        assert isinstance(
            make_policy(DispatchConfig(policy="micro-batch"), 10),
            MicroBatchPolicy,
        )

    def test_sample_cutoff_scales_with_population(self):
        policy = make_policy(
            DispatchConfig(policy="sample-price", sample_fraction=0.2), 50
        )
        assert policy.sample_cutoff == 10

    def test_round_has_no_policy_object(self):
        with pytest.raises(ConfigurationError):
            make_policy(DispatchConfig(policy="round"), 10)


class TestOnlinePolicies:
    @pytest.mark.parametrize(
        "policy", ["greedy", "sample-price", "micro-batch"]
    )
    def test_deterministic_given_seed(self, policy):
        config = DispatchConfig(
            policy=policy,
            task_rate=6.0,
            worker_rate=2.0,
            deadline=4.0,
            session_length=3.0,
            batch_window=1.0,
        )
        a = StreamDispatcher(_market(), config).run(seed=7)
        b = StreamDispatcher(_market(), config).run(seed=7)
        assert _pairs(a) == _pairs(b)
        assert [r.time for r in a.records] == [r.time for r in b.records]
        assert a.posted_tasks == b.posted_tasks
        assert a.combined_benefit == b.combined_benefit

    @pytest.mark.parametrize(
        "policy", ["greedy", "sample-price", "micro-batch"]
    )
    def test_accounting_consistency(self, policy):
        config = DispatchConfig(
            policy=policy,
            task_rate=6.0,
            worker_rate=2.0,
            deadline=4.0,
            session_length=3.0,
        )
        market = _market(seed=1)
        result = StreamDispatcher(market, config).run(seed=3)
        # Every posted task is either assigned or (eventually) expired;
        # dropped tasks were never posted.
        assert result.assignments + result.expired_tasks == (
            result.posted_tasks
        )
        assert result.posted_tasks + result.dropped_tasks == (
            market.n_tasks
        )
        assert result.logins + result.skipped_logins == market.n_workers
        assert 0.0 <= result.fill_rate <= 1.0
        assert result.latency_summary()["count"] == result.assignments

    @pytest.mark.parametrize(
        "policy", ["greedy", "sample-price", "micro-batch"]
    )
    def test_emitted_edges_respect_capacity_and_positivity(self, policy):
        config = DispatchConfig(
            policy=policy,
            task_rate=8.0,
            worker_rate=3.0,
            deadline=5.0,
            session_length=4.0,
        )
        market = _market(seed=2)
        result = StreamDispatcher(market, config).run(seed=11)
        assert result.assignments > 0
        combined = build_benefit_matrices(market).combined
        assert result.combined_benefit == pytest.approx(
            sum(
                float(combined[r.worker_index, r.task_index])
                for r in result.records
            )
        )
        times = [record.time for record in result.records]
        assert times == sorted(times)
        taken_per_worker: dict[int, int] = {}
        seen_tasks = set()
        for record in result.records:
            assert record.benefit > 0.0
            assert 0.0 <= record.wait <= config.deadline
            assert record.task_index not in seen_tasks
            seen_tasks.add(record.task_index)
            taken_per_worker[record.worker_index] = (
                taken_per_worker.get(record.worker_index, 0) + 1
            )
        for worker_index, taken in taken_per_worker.items():
            # Each worker logs in exactly once, so their session grant
            # totals their market capacity.
            assert taken <= market.workers[worker_index].capacity

    # sample-price is left out on purpose: a task is offered to the
    # online workers only at full price when posted, and afterwards
    # only to new logins, so it can expire with workers online.
    @pytest.mark.parametrize("policy", ["greedy", "micro-batch"])
    def test_flooded_market_fills_most(self, policy):
        # Workers arrive 5x faster than tasks over the same span and
        # stay for long sessions: nearly every task finds someone
        # before expiring.
        config = DispatchConfig(
            policy=policy,
            task_rate=2.0,
            worker_rate=10.0,
            deadline=10.0,
            session_length=10.0,
        )
        market = _market(seed=8, n_workers=100, n_tasks=20)
        result = StreamDispatcher(market, config).run(seed=8)
        assert result.fill_rate > 0.8

    # Recorded outputs of seeded runs: the records (as a digest), the
    # latency summary and the published ``stream.latency.p*`` gauges
    # must stay bit-identical.
    PINNED = {
        "greedy": (
            60,
            "3947c7665a8984588a1a3d3aa8e94187a617bdb88b165295b235c61907c2a78e",
            {"count": 60.0, "mean": 0.061859275409783,
             "max": 1.0517243824415878, "p50": 0.0,
             "p95": 0.31578522320523444, "p99": 0.8189265121710276},
        ),
        "sample-price": (
            53,
            "638d31f9d55575c682411d658db0018b1eb115756fa6a5ae2da6f6c3d66f84cf",
            {"count": 53.0, "mean": 1.2374635452333158,
             "max": 3.801824178910598, "p50": 0.8916148176586649,
             "p95": 3.5609252224542516, "p99": 3.777333626906235},
        ),
        "micro-batch": (
            60,
            "ea90cda67c634192dc2a15c340c7fcf02109b5fc829bbc68cec34d7736835fd7",
            {"count": 60.0, "mean": 0.6284114703695526,
             "max": 1.9984605138395182, "p50": 0.6165189621383176,
             "p95": 1.7220149682717987, "p99": 1.9671817734708619},
        ),
    }

    @pytest.mark.parametrize(
        "policy", ["greedy", "sample-price", "micro-batch"]
    )
    def test_records_and_latency_are_pinned(self, policy):
        market = generate_market(
            SyntheticConfig(n_workers=40, n_tasks=60), seed=5
        )
        config = DispatchConfig(
            policy=policy,
            task_rate=6.0,
            worker_rate=2.0,
            deadline=4.0,
            session_length=3.0,
        )
        with obs.tracing() as tracer:
            result = StreamDispatcher(market, config).run(seed=13)
        count, digest, summary = self.PINNED[policy]
        records = hashlib.sha256()
        for r in result.records:
            records.update(
                repr(
                    (r.time, r.worker_index, r.task_index, r.benefit, r.wait)
                ).encode()
            )
        assert result.assignments == count
        assert records.hexdigest() == digest
        assert result.latency_summary() == summary
        gauges = tracer.metrics.gauges
        for key in ("p50", "p95", "p99"):
            assert gauges[f"stream.latency.{key}"] == summary[key]

    def test_micro_batch_windows_are_submarket_blocks(self, monkeypatch):
        """Each window's block equals the benefits of the submarket of
        its online workers and open tasks; no market is built and no
        auction runs."""
        market = generate_market(
            SyntheticConfig(n_workers=40, n_tasks=60), seed=5
        )
        windows = []
        side_row = RowwiseBenefit.side_row

        def spy(rows, workers, tasks):
            block = side_row(rows, workers, tasks)
            windows.append((np.array(workers), np.array(tasks), block))
            return block

        def forbidden(*args, **kwargs):
            raise AssertionError("a window built a market or ran an auction")

        monkeypatch.setattr(RowwiseBenefit, "side_row", spy)
        monkeypatch.setattr(LaborMarket, "__init__", forbidden)
        monkeypatch.setattr(auction_solver, "auction_assignment", forbidden)
        config = DispatchConfig(
            policy="micro-batch",
            task_rate=6.0,
            worker_rate=2.0,
            deadline=4.0,
            session_length=3.0,
        )
        StreamDispatcher(market, config).run(seed=13)
        monkeypatch.undo()
        assert len(windows) > 10
        for workers, tasks, (requester, worker) in windows:
            submarket = LaborMarket(
                [market.workers[i] for i in workers],
                [market.tasks[j] for j in tasks],
                market.taxonomy,
                market.requesters,
            )
            full = MBAProblem(submarket).benefits
            assert np.array_equal(requester, full.requester)
            assert np.array_equal(worker, full.worker)

    def test_sample_price_decays_to_zero_at_deadline(self):
        policy = SamplePricePolicy(sample_cutoff=0)
        policy.runtime = types.SimpleNamespace(
            config=DispatchConfig(deadline=10.0)
        )
        policy._price = 2.0
        posted = np.array([5.0])
        thresholds = [
            float(policy._thresholds(posted, time)[0])
            for time in (5.0, 14.9, 15.0, 20.0)
        ]
        assert thresholds[0] == 2.0  # full price when posted
        assert 0.0 < thresholds[1] < thresholds[0]
        assert thresholds[2] == thresholds[3] == 0.0

    def test_full_sample_fraction_degenerates_to_greedy(self):
        market = _market(seed=4)
        kwargs = dict(
            task_rate=6.0,
            worker_rate=2.0,
            deadline=4.0,
            session_length=3.0,
        )
        greedy = StreamDispatcher(
            market, DispatchConfig(policy="greedy", **kwargs)
        ).run(seed=9)
        priced = StreamDispatcher(
            market,
            DispatchConfig(
                policy="sample-price", sample_fraction=1.0, **kwargs
            ),
        ).run(seed=9)
        assert _pairs(greedy) == _pairs(priced)


class TestGreedyMatchesOnlineReference:
    """Greedy dispatch IS online greedy matching, stream-shaped."""

    def _run_equivalence(self, seed, worker_order):
        market = _unit_capacity(_market(seed=seed, n_workers=12, n_tasks=10))
        n_tasks = market.n_tasks
        config = DispatchConfig(deadline=1e6, session_length=1e6)
        dispatcher = StreamDispatcher(
            market,
            config,
            task_arrivals=TraceArrivals(
                list(range(n_tasks)), times=[0.0] * n_tasks
            ),
            worker_arrivals=TraceArrivals(
                worker_order,
                times=[1.0 + i for i in range(len(worker_order))],
            ),
        )
        result = dispatcher.run(seed=0)

        matrices = build_benefit_matrices(
            market, combiner=LinearCombiner(0.5)
        )

        def weight_of(worker, task):
            return float(matrices.combined[worker, task])

        reference = online_greedy_matching(
            worker_order, n_tasks, weight_of
        )
        assert _pairs(result) == reference

    def test_identity_order(self):
        self._run_equivalence(seed=2, worker_order=list(range(12)))

    def test_reversed_order(self):
        self._run_equivalence(
            seed=5, worker_order=list(reversed(range(12)))
        )

    def test_interleaved_order(self):
        order = [3, 7, 0, 11, 5, 1, 9, 2, 10, 4, 8, 6]
        self._run_equivalence(seed=8, worker_order=order)


class TestRoundMode:
    """Round mode delegates to the engine bit for bit."""

    @staticmethod
    def _normalized(rounds):
        # solver_wall_time is host wall clock, the one nondeterministic
        # field; everything else must match exactly.
        return [
            dataclasses.replace(r, solver_wall_time=0.0) for r in rounds
        ]

    def test_bit_identical_to_engine_with_scenario(self):
        market = _market(seed=6)
        scenario = Scenario(
            market=market, solver_name="greedy", n_rounds=3
        )
        direct = Simulation(scenario).run(seed=21)
        streamed = StreamDispatcher(
            market, DispatchConfig(policy="round"), scenario=scenario
        ).run(seed=21)
        assert streamed.policy == "round"
        assert self._normalized(
            streamed.round_result.rounds
        ) == self._normalized(direct.rounds)
        assert streamed.posted_tasks == sum(
            r.n_assigned_edges for r in direct.rounds
        )
        assert streamed.combined_benefit == pytest.approx(
            sum(r.combined_benefit for r in direct.rounds)
        )

    def test_config_built_scenario_matches_explicit_one(self):
        market = _market(seed=7)
        streamed = StreamDispatcher(
            market,
            DispatchConfig(
                policy="round", round_solver="greedy", round_rounds=2
            ),
        ).run(seed=4)
        direct = Simulation(
            Scenario(
                market=market,
                solver_name="greedy",
                combiner=LinearCombiner(0.5),
                n_rounds=2,
            )
        ).run(seed=4)
        assert self._normalized(
            streamed.round_result.rounds
        ) == self._normalized(direct.rounds)


class TestBackpressure:
    def test_max_open_tasks_drops_and_counts(self):
        market = _unit_capacity(_market(seed=3, n_workers=4, n_tasks=6))
        config = DispatchConfig(
            deadline=1e6,
            session_length=1e6,
            max_open_tasks=2,
        )
        dispatcher = StreamDispatcher(
            market,
            config,
            task_arrivals=TraceArrivals(
                list(range(6)), times=[float(i) for i in range(6)]
            ),
            worker_arrivals=TraceArrivals(
                list(range(4)), times=[10.0, 11.0, 12.0, 13.0]
            ),
        )
        result = dispatcher.run(seed=0)
        assert result.posted_tasks == 2
        assert result.dropped_tasks == 4
        assert {r.task_index for r in result.records} <= {0, 1}

    def test_short_deadline_expires_everything(self):
        market = _market(seed=3, n_workers=4, n_tasks=6)
        dispatcher = StreamDispatcher(
            market,
            DispatchConfig(deadline=0.5, session_length=1.0),
            task_arrivals=TraceArrivals(
                list(range(6)), times=[float(i) for i in range(6)]
            ),
            # All workers arrive long after every task has expired.
            worker_arrivals=TraceArrivals(
                list(range(4)), times=[100.0, 101.0, 102.0, 103.0]
            ),
        )
        result = dispatcher.run(seed=0)
        assert result.assignments == 0
        assert result.expired_tasks == result.posted_tasks == 6

    def test_inactive_logins_are_counted_not_served(self):
        market = _market(seed=9, n_workers=6, n_tasks=5)
        workers = list(market.workers)
        inactive = {1, 4}
        for index in inactive:
            workers[index] = dataclasses.replace(
                workers[index], active=False
            )
        market = LaborMarket(
            workers, market.tasks, market.taxonomy, market.requesters
        )
        result = StreamDispatcher(
            market,
            DispatchConfig(
                task_rate=5.0,
                worker_rate=2.0,
                deadline=6.0,
                session_length=5.0,
            ),
        ).run(seed=1)
        assert result.skipped_logins == len(inactive)
        assert result.logins == market.n_workers - len(inactive)
        assert not {r.worker_index for r in result.records} & inactive


class TestRun:
    def test_on_record_sees_every_emission(self):
        market = _market(seed=5)
        seen = []
        result = StreamDispatcher(
            market,
            DispatchConfig(
                task_rate=6.0,
                worker_rate=2.0,
                deadline=4.0,
                session_length=3.0,
            ),
        ).run(seed=2, on_record=seen.append)
        assert seen == result.records

    def test_run_times_the_drain(self):
        result = StreamDispatcher(_market()).run(seed=0)
        assert result.wall_time > 0.0
        assert result.end_time > 0.0

    def test_last_result_is_the_returned_result(self):
        dispatcher = StreamDispatcher(_market())
        result = dispatcher.run(seed=0)
        assert dispatcher.last_result is result

    @pytest.mark.parametrize("policy", ONLINE_POLICIES)
    def test_finished_run_is_freed_without_cyclic_gc(self, policy):
        config = DispatchConfig(policy=policy)
        enabled = gc.isenabled()
        gc.disable()
        try:
            dispatcher = StreamDispatcher(_market(), config)
            result = dispatcher.run(seed=0)
            ref = weakref.ref(result)
            del dispatcher, result
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("policy", ONLINE_POLICIES)
    def test_abandoned_stream_is_freed_without_cyclic_gc(self, policy):
        config = DispatchConfig(policy=policy, task_rate=6.0)
        enabled = gc.isenabled()
        gc.disable()
        try:
            dispatcher = StreamDispatcher(_market(), config)
            stream = dispatcher.dispatch(seed=0)
            next(stream)
            ref = weakref.ref(dispatcher.last_result)
            del dispatcher, stream
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
