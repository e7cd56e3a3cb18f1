"""Smoke + shape tests for every registered experiment.

Each experiment runs at a tiny scale; the assertions check structure
and the *qualitative* claims the reconstruction predicts (DESIGN.md
§3), not absolute numbers.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.eval.experiments import EXPERIMENTS, run_experiment

SCALE = 0.15
SLOW_EXPERIMENTS = {"F7", "F8"}  # scalability sweeps; smoke-tested smaller


class TestRegistry:
    def test_all_experiments_present(self):
        assert set(EXPERIMENTS) == {
            "T1", "T2", "T3", "T4", "F5", "F6", "F7", "F8", "F9", "F10",
            "F11", "F12", "F13", "F14", "F15", "F16", "F17", "F18", "F19",
            "F20", "F21", "F22", "F23", "F24",
        }

    def test_unknown_experiment(self):
        with pytest.raises(ConfigurationError):
            run_experiment("T99")


@pytest.mark.parametrize(
    "experiment_id", sorted(set(EXPERIMENTS) - SLOW_EXPERIMENTS)
)
def test_experiment_runs_and_renders(experiment_id):
    table = run_experiment(experiment_id, scale=SCALE, seed=1)
    assert table.rows, experiment_id
    text = table.render()
    assert table.caption in text


@pytest.mark.parametrize("experiment_id", sorted(SLOW_EXPERIMENTS))
def test_scalability_experiments_run(experiment_id):
    table = run_experiment(experiment_id, scale=0.05, seed=1)
    assert len(table.rows) == 5


class TestQualitativeClaims:
    def test_t2_flow_wins(self):
        table = run_experiment("T2", scale=SCALE, seed=2)
        for row in table.rows:
            values = dict(zip(table.header, row))
            assert values["flow"] >= values["random"] - 1e-9
            assert values["flow"] >= values["quality-only"] - 1e-9
            assert values["flow"] >= values["worker-only"] - 1e-9

    def test_t2_greedy_close_to_flow(self):
        table = run_experiment("T2", scale=SCALE, seed=2)
        for row in table.rows:
            values = dict(zip(table.header, row))
            if values["flow"] > 0:
                assert values["greedy"] >= 0.8 * values["flow"]

    def test_f6_lambda_monotone(self):
        table = run_experiment("F6", scale=SCALE, seed=3)
        requester = table.column("requester benefit")
        worker = table.column("worker benefit")
        # Requester benefit weakly increases with lambda; worker weakly
        # decreases (allow small float slack).
        assert requester[-1] >= requester[0] - 1e-9
        assert worker[-1] <= worker[0] + 1e-9

    def test_f9_ratios_bounded(self):
        table = run_experiment("F9", scale=SCALE, seed=4)
        for name in ("online-greedy", "online-two-phase"):
            for ratio in table.column(name):
                if not np.isnan(ratio):
                    assert 0.0 <= ratio <= 1.0 + 1e-9

    def test_f10_diminishing_returns(self):
        table = run_experiment("F10", scale=SCALE, seed=5)
        gains = table.column("marginal gain of k-th worker")
        # Gains of adding workers 3, 5, 7, 9 shrink.
        assert gains[1] >= gains[2] >= gains[3] >= gains[4] >= 0

    def test_f10_expected_matches_simulated(self):
        table = run_experiment("F10", scale=SCALE, seed=6)
        expected = table.column("expected accuracy")
        simulated = table.column("simulated accuracy")
        for e, s in zip(expected, simulated):
            assert e == pytest.approx(s, abs=0.05)

    def test_f12_ratios_above_guarantee(self):
        table = run_experiment("F12", scale=SCALE, seed=7)
        values = dict(zip(table.column("solver"), table.column("min ratio")))
        assert values["flow"] == pytest.approx(1.0, abs=1e-6)
        assert values["greedy"] >= 0.5 - 1e-9

    def test_f14_egalitarian_balances(self):
        table = run_experiment("F14", scale=SCALE, seed=8)
        gaps = dict(zip(table.column("combiner"), table.column("side gap")))
        assert gaps["egalitarian"] <= gaps["linear(0.5)"] + 0.25

    def test_f20_fill_rises_with_supply(self):
        table = run_experiment("F20", scale=SCALE, seed=9)
        ratios = table.column("supply ratio")
        assert ratios[0] == 0.25
        for policy in ("greedy", "sample-price"):
            fills = table.column(f"{policy} fill")
            # Under-supplied fill is below every balanced-or-better one.
            for ratio, fill in zip(ratios, fills):
                if ratio >= 1.0:
                    assert fills[0] < fill, (policy, ratio)


class TestPinnedTables:
    def test_f13_aggregation_table(self):
        """Seed-0 F13 at full scale, pinned exactly: a change to the
        vote, Dawid-Skene or GLAD arithmetic that moves any label
        shows here."""
        table = run_experiment("F13", scale=1.0, seed=0)
        assert [list(row) for row in table.rows] == [
            ["zipf(3.0)", 0.7450000000000001, 0.75, 0.72, 0.7],
            ["zipf(1.5)", 0.7849999999999999, 0.775, 0.79, 0.7899999999999999],
            [
                "zipf(0.8)",
                0.9099999999999999,
                0.9099999999999999,
                0.8799999999999999,
                0.89,
            ],
        ]

    def test_f9_online_table(self):
        """Seed-0 F9 at scale 0.25, pinned exactly.  The greedy and
        batch columns predate greedy running as sample-and-price with an
        empty sample; the two-phase column is priced by the exact
        b-matching of the sample."""
        table = run_experiment("F9", scale=0.25, seed=0)
        assert [list(row) for row in table.rows] == [
            [
                "amt-like",
                0.955433317169648,
                0.8930144479056434,
                0.955433317169648,
                0.9637952740469451,
                0.9831659854943602,
            ],
            [
                "synthetic-uniform",
                0.8799458217690898,
                0.8632948617866818,
                0.8799458217690898,
                0.8991770099470738,
                0.9521758320543686,
            ],
            [
                "synthetic-zipf",
                0.8870862319909967,
                0.870026244711583,
                0.8870862319909967,
                0.8993363614762093,
                0.9587674521661718,
            ],
            [
                "upwork-like",
                0.6926709549453895,
                0.6926709549453895,
                0.6926709549453895,
                0.8126272895624511,
                0.9653843502795466,
            ],
        ]
